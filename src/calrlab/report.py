"""Deterministic experiment reporting: CSV tables and JSON manifests."""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from . import __version__


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12e}"
    if isinstance(v, complex):
        return f"{v.real:.12e}{v.imag:+.12e}j"
    return v


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays into plain Python values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return _jsonable(obj.item())
        except (ValueError, AttributeError):
            pass
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def write_manifest(path, config: dict, results: dict, tolerances: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "package": "calrlab",
        "version": __version__,
        "config": _jsonable(config),
        "config_hash": config_hash(_jsonable(config)),
        "tolerances": _jsonable(tolerances),
        "results": _jsonable(results),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
