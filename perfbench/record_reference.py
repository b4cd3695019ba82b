"""Record the reference tables the benchmark checks seed-0 passes against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one untraced pass of each named workload (all by default) at seed 0 and
copies its CSV tables and manifests to perfbench/reference/<workload>/.  The
reference is meant to stay fixed: re-record only when a change is meant to
alter the numbers, and say so.
"""
from __future__ import annotations

import shutil
import sys

from run import OUT, REFERENCE, SRC, run_pass
from workloads import WORKLOADS


def main(names):
    sys.path.insert(0, str(SRC))
    from calrlab.scenarios import run_scenario
    for name in names or sorted(WORKLOADS):
        outdir = OUT / f"{name}-record"
        seconds, _, problems = run_pass(WORKLOADS[name], 0, outdir, run_scenario)
        if problems:
            raise SystemExit(f"{name}: " + "; ".join(problems))
        shutil.rmtree(REFERENCE / name, ignore_errors=True)
        shutil.copytree(outdir, REFERENCE / name)
        shutil.rmtree(outdir)
        print(f"{name}: recorded in {seconds:.2f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
