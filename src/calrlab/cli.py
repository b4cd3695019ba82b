"""Command-line experiment runner.

Subcommands: `run CONFIG`, `validate-config CONFIG`, `list-scenarios`.
The config is a JSON file {"scenario": NAME, "out": DIR, "params": {...}}.
Every key in "params" must be one of the scenario's defaults, with a value
of the default's type, and the merged params must pass the scenario's check.
Exit codes: 0 success, 2 config error (an ArithmeticError in the check too),
3 assertion failure, 4 numerical guard tripped (a solver warning raised as
an error, or an ArithmeticError in the run).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .scenarios import SCENARIOS, run_scenario, scenario_params

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTION = 3
EXIT_NUMERICAL = 4


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    scenario = config.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ValueError(
            f"config needs a 'scenario' among {sorted(SCENARIOS)}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("'params' must be an object")
    try:
        scenario_params(config["scenario"], params)
    except ArithmeticError as exc:
        raise ValueError(f"checking the params raised {exc!r}") from exc
    out = config.get("out", "out")
    if not isinstance(out, str):
        raise ValueError(f"'out' must be a directory path, not {out!r}")
    for path in (Path(out), *Path(out).parents):
        if path.exists() and not path.is_dir():
            raise ValueError(f"'out' {out!r}: {path} exists and is not a directory")
    return config


def cmd_run(args) -> int:
    config = load_config(args.config)
    outdir = Path(config.get("out", "out"))
    try:
        results = run_scenario(config["scenario"], config.get("params", {}),
                               outdir)
    except (RuntimeError, RuntimeWarning) as exc:
        # RuntimeWarning: a solver warning escalated by the warnings filter
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        print(f"numerical guard: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL
    failed = [a for a in results.get("assertions", []) if not a[1]]
    for name, passed, detail in results.get("assertions", []):
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    print(f"reports written to {outdir}")
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_validate(args) -> int:
    config = load_config(args.config)
    print(f"config ok: scenario {config['scenario']}")
    return EXIT_OK


def cmd_list(_args) -> int:
    for name in sorted(SCENARIOS):
        doc = (SCENARIOS[name].body.__doc__ or "").strip().splitlines()
        print(f"{name:24s} {doc[0] if doc else ''}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="calrlab",
                                     description="reproducible experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario from a JSON config")
    p_run.add_argument("config")
    p_run.set_defaults(fn=cmd_run)
    p_val = sub.add_parser("validate-config", help="schema-check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)
    p_list = sub.add_parser("list-scenarios", help="list the named experiments")
    p_list.set_defaults(fn=cmd_list)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
