"""Write every output file whose bytes a change to calrlab must keep.

    python3 tools/write_outputs.py OUTDIR

Writes, from the `src/` of the checkout this script sits in:

- OUTDIR/defaults/: the CSV tables and manifests of the eight scenarios at
  their default parameters (18 files);
- OUTDIR/<workload>-seed<s>/: those of every benchmark workload's steps
  (`perfbench/workloads.py`, `scenario_params(s)`) at seeds 0, 3 and 7
  (42 files).

Every run is under `warnings.simplefilter("error", RuntimeWarning)`, so an
overflow or an invalid value fails the script instead of reaching a table.
Run it at two commits and compare the trees with `diff -r`; identical
trees mean the change kept every reported number to the bit.
"""
from __future__ import annotations

import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 3, 7)

sys.dont_write_bytecode = True      # leave perfbench/ as it is checked out
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from calrlab.scenarios import SCENARIOS, run_scenario  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def write_outputs(outdir: Path) -> int:
    """Run every default scenario and workload step into outdir; the number
    of files written."""
    runs = [(outdir / "defaults", name, {}) for name in sorted(SCENARIOS)]
    runs += [(outdir / f"{name}-seed{seed}", scenario, params)
             for name, workload in WORKLOADS.items() for seed in SEEDS
             for scenario, params in workload.scenario_params(seed)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for target, scenario, params in runs:
            run_scenario(scenario, params, target)
    return sum(1 for path in outdir.rglob("*") if path.is_file())


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 tools/write_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    if outdir.exists() and any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    print(f"{write_outputs(outdir)} files in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
