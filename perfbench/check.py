"""Output check: a pass's tables against recorded ones.

A scenario writes CSV tables and a JSON manifest.  Two outputs agree when
their files have the same names and each file's text is equal after
splitting out its numbers, with every pair of numbers equal to within
REL_TOL of the larger magnitude.  Numbers within ABS_TOL of each other also
agree: they are roundoff-level residuals (jump residuals, |ratio - 1|) that
any reordering of floating-point work changes.  The manifest's
`finished_unix` is a timestamp and is left out.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-9

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


def read_outputs(outdir) -> dict:
    """File name -> text of every table and manifest in outdir."""
    out = {}
    for path in sorted(Path(outdir).iterdir()):
        text = path.read_text()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(text)
            manifest.pop("finished_unix", None)
            text = json.dumps(manifest, indent=2, sort_keys=True)
        out[path.name] = text
    return out


def _numbers_agree(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if x == y or (x != x and y != y):
        return True
    return abs(x - y) <= max(REL_TOL * max(abs(x), abs(y)), ABS_TOL)


def compare_text(new: str, ref: str) -> str | None:
    """None when the texts agree, else a description of the first difference."""
    if new == ref:
        return None
    a, b = _NUMBER.split(new), _NUMBER.split(ref)
    if len(a) != len(b):
        return "different number of fields"
    # split() alternates text and number pieces: odd indices are numbers
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 == 0 and x != y:
            return f"text {x[:40]!r} != {y[:40]!r}"
        if i % 2 == 1 and not _numbers_agree(x, y):
            return f"number {x} != {y}"
    return None


def compare_outputs(new: dict, ref: dict) -> list[str]:
    """Differences between two read_outputs() results, one line each."""
    problems = [f"{name}: missing" for name in sorted(set(ref) - set(new))]
    problems += [f"{name}: unexpected" for name in sorted(set(new) - set(ref))]
    for name in sorted(set(new) & set(ref)):
        diff = compare_text(new[name], ref[name])
        if diff:
            problems.append(f"{name}: {diff}")
    return problems
