"""Scenario benchmark for calrlab.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from `src/`.  One
process, single-threaded (CALRLAB_THREADS is removed and BLAS is held to one
thread), closed loop: after one untimed warm-up pass, passes run back to back
through `calrlab.scenarios.run_scenario` until at least MIN_PASSES have run
and the next one would end past `--seconds`.  Every pass is checked: each
scenario assertion must pass, its tables must equal the first pass's, and at
seed 0 they must also match the reference tables in
perfbench/reference/<workload>/.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one pass at the reference host speed: the mean
               time of the timed passes that passed (the reciprocal of the
               closed loop's throughput), times KERNEL_REFERENCE_S over the
               mean time of the reference kernel, which runs before the
               first timed pass and after each pass.  The kernel is fixed
               numpy and interpreter work that never calls calrlab, so
               a change to the program moves wall_s and a change in the
               shared host's speed, which swings pass times by up to 2x over
               minutes, mostly cancels.  The summary line and the run record
               also give the raw mean and median pass times.
  setup_s      median time for a fresh interpreter to import calrlab.scenarios
               and calrlab.cli
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/spans.py: mean self times per traced pass, counts of
the last traced pass, and the tracing overhead.

failed_frac (failed / attempted passes) is printed on the summary line; the
last line of standard output is the JSON result, and the run record goes to
perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

SETUP_SAMPLES = 7
MIN_PASSES = 3
SETUP_IMPORT = "import calrlab.scenarios, calrlab.cli"
# A typical time of reference_kernel() on the 2-core sandbox the benchmark
# was written on (Python 3.11, numpy 2.4); it only sets the scale of wall_s.
KERNEL_REFERENCE_S = 0.08

# One thread in BLAS too: on a host with few cores, a BLAS thread pool would
# measure the scheduler.  Set before numpy is first imported, and
# inherited by the interpreters that measure set-up time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402

from check import compare_outputs, read_outputs  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_sha():
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


_KERNEL_Z = np.linspace(0.1, 30.0, 4000)
_KERNEL_ZC = _KERNEL_Z * (1 + 0.5j)


def reference_kernel():
    """Seconds for fixed interpreter and numpy work that never calls calrlab.

    Run between passes, it samples the shared host's speed.  On the sandbox
    the benchmark was written on, the host switched between a fast and a slow
    state every few seconds; dividing 25-second means of the pass time by
    those of this kernel cut their spread (quartile distance over median)
    from 0.13-0.30 to 0.05-0.11.  The interpreter loop and the ufunc loop
    each take about half of the time; each alone tracked one workload better
    than the other.
    """
    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    for n in range(120):
        (np.sin(_KERNEL_Z * (1 + n / 50)) * np.exp(-_KERNEL_ZC)).sum()
        np.log(_KERNEL_Z + n)
    return time.perf_counter() - start


def measure_setup(samples=SETUP_SAMPLES):
    """Median seconds for a fresh interpreter to import the entry points."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", SETUP_IMPORT]
    # the first start may compile bytecode; it is not what a user pays
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def run_pass(workload, seed, outdir, run_scenario):
    """Run every step of the workload; return (seconds, outputs, problems)."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    problems = []
    start = time.perf_counter()
    for scenario, params in workload.scenario_params(seed):
        try:
            results = run_scenario(scenario, params, outdir)
        except Exception as exc:  # a failed pass is counted, not fatal
            problems.append(f"{scenario} raised {exc!r}")
            continue
        problems += [f"{scenario}: assertion {name} failed: {detail}"
                     for name, passed, detail in results["assertions"]
                     if not passed]
    seconds = time.perf_counter() - start
    return seconds, read_outputs(outdir), problems


class Checker:
    """Compares each pass's outputs to the reference (seed 0) and the first pass."""

    def __init__(self, workload, seed):
        self.expected = None
        if seed == 0:
            self.expected = read_outputs(REFERENCE / workload.name)

    def problems(self, outputs):
        if self.expected is None:
            self.expected = outputs
            return []
        return compare_outputs(outputs, self.expected)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "calrlab" / "scenarios.py").is_file():
        print(f"no calrlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CALRLAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": _version("numpy"), "scipy": _version("scipy"),
              "git_sha": _git_sha(), "loadavg_start": _loadavg()}

    setup_s, setup_samples = measure_setup()
    from calrlab.scenarios import run_scenario

    checker = Checker(workload, args.seed)
    outdir = OUT / f"{workload.name}-pass"
    # The first pass fills caches and finishes lazy imports; it is checked
    # but not timed.
    _, outputs, problems = run_pass(workload, args.seed, outdir, run_scenario)
    problems += checker.problems(outputs)
    failures = [problems] if problems else []
    if problems:
        print("warm-up pass failed: " + "; ".join(problems[:5]),
              file=sys.stderr)
    attempted = 1
    walls, traced_walls, untraced_walls = [], [], []
    kernels = [reference_kernel()]
    layer_sums, last_counts = {}, {}
    start = time.perf_counter()
    while True:
        traced = args.trace and attempted % 2 == 0
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                seconds, outputs, problems = run_pass(
                    workload, args.seed, outdir,
                    tracer.span("scenarios", "scenarios", run_scenario))
            finally:
                tracer.restore()
            layer = tracer.metrics()
            traced_walls.append(layer["scenarios.total_s"])
            for key, value in layer.items():
                if key.endswith("_s"):
                    layer_sums[key] = layer_sums.get(key, 0.0) + value
                else:
                    last_counts[key] = value
        else:
            seconds, outputs, problems = run_pass(workload, args.seed, outdir,
                                                  run_scenario)
            untraced_walls.append(seconds)
        kernels.append(reference_kernel())
        attempted += 1
        problems += checker.problems(outputs)
        if problems:
            failures.append(problems)
            print(f"pass {attempted} failed: " + "; ".join(problems[:5]),
                  file=sys.stderr)
        elif not traced:
            walls.append(seconds)
        enough = (len(untraced_walls) >= MIN_PASSES
                  and (traced_walls or not args.trace))
        # stop before a pass that would end past the time given
        typical = statistics.median(untraced_walls + traced_walls) + kernels[-1]
        if enough and time.perf_counter() - start + typical > args.seconds:
            break
    shutil.rmtree(outdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_mean_s = statistics.mean(walls or untraced_walls)
    wall_median_s = statistics.median(walls or untraced_walls)
    host_factor = KERNEL_REFERENCE_S / statistics.mean(kernels)
    wall_s = wall_mean_s * host_factor
    if args.trace:
        n = len(traced_walls)
        values = {key: total / n for key, total in layer_sums.items()}
        values.update(last_counts)
        values["traced.wall_s"] = values.pop("scenarios.total_s")
        values["tracing.overhead_s"] = (values["traced.wall_s"]
                                        - statistics.mean(untraced_walls))
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    record.update({"loadavg_end": _loadavg(), "passes": attempted,
                   "failed": len(failures), "failures": failures,
                   "pass_seconds": untraced_walls,
                   "traced_pass_seconds": traced_walls,
                   "setup_samples": setup_samples,
                   "kernel_seconds": kernels, "host_factor": host_factor,
                   "wall_s": wall_s, "wall_mean_s": wall_mean_s,
                   "wall_median_s": wall_median_s,
                   "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb, "result": result})
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{workload.name} seed={args.seed}: wall_s={wall_s:.4f} s "
          f"(raw mean of {len(walls)} passes {wall_mean_s:.4f} s, "
          f"median {wall_median_s:.4f} s, host factor {host_factor:.3f}) "
          f"setup_s={setup_s:.4f} s "
          f"peak_rss_mb={peak_rss_mb:.1f} MB "
          f"failed_frac={len(failures) / attempted:g} "
          f"({len(failures)}/{attempted}); record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
