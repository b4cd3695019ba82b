"""Run every workload untraced and print the end-to-end metrics as a table.

    python3 perfbench/table.py [--seed N] [--seconds S]

Each workload runs in its own process (perfbench/run.py), so peak_rss_mb is
per workload.  failed_frac is failed passes over attempted passes.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    print(f"{'workload':16s} {'wall_s':>12s} {'setup_s':>12s} "
          f"{'peak_rss_mb':>14s} {'failed_frac':>12s}")
    status = 0
    for workload in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{workload['name']:16s} failed (exit {proc.returncode})")
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        m = result["metrics"]
        frac = result["failed"] / result["attempted"]
        print(f"{workload['name']:16s} {m['wall_s']['value']:10.4f} s "
              f"{m['setup_s']['value']:10.4f} s "
              f"{m['peak_rss_mb']['value']:11.1f} MB "
              f"{frac:12.3f}  ({result['failed']}/{result['attempted']} passes)")
        status = status or int(not result["correct"])
    return status


if __name__ == "__main__":
    sys.exit(main())
