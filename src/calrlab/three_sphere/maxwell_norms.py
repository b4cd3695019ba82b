"""Tangential-trace modal norm for Maxwell fields and its three-sphere check.

The norm is the representative of the H^{-1/2}(div) equivalence class given
by the modal sum  sum n^3 (|c1|^2 + |c2|^2) r^{2n}  over modes and both
radial-family coefficients; equivalence constants are fixed to 1.
"""
from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from ..layered_maxwell.modes import TE, TM, ModeId


def hminushalf_div_norm(trace: Dict[ModeId, Tuple[complex, complex]],
                        radius: float) -> float:
    """sqrt of sum over modes of n^3 (|c1|^2 + |c2|^2) radius^(2n)."""
    total = 0.0
    for key, (c1, c2) in trace.items():
        total += key.n ** 3 * (abs(c1) ** 2 + abs(c2) ** 2) * radius ** (2 * key.n)
    return math.sqrt(total)


def field_trace_table(field: Dict[Tuple[int, int], tuple]) -> Dict[ModeId, tuple]:
    """Split (n, m) -> (a1, a2, b1, b2) quadruples into per-polarization pairs."""
    out = {}
    for (n, m), quad in field.items():
        a1, a2, b1, b2 = quad
        out[ModeId(n, m, TM)] = (complex(a1), complex(a2))
        out[ModeId(n, m, TE)] = (complex(b1), complex(b2))
    return out


def check_maxwell_3sphere(field: Dict[Tuple[int, int], tuple],
                          r1: float, r2: float, r3: float):
    """Interpolation of the modal trace norm across three spheres.

    Per mode the weight n^3 c r^{2n} is exactly log-linear in ln r, so the
    squared norms interpolate with constant 1 (Hoelder across modes); the
    measured constant is lhs/rhs <= 1 with equality for single modes.
    """
    if not (0 < r1 < r2 < r3):
        raise ValueError("need 0 < r1 < r2 < r3")
    table = field_trace_table(field)
    alpha = math.log(r3 / r2) / math.log(r3 / r1)
    lhs = hminushalf_div_norm(table, r2)
    n1 = hminushalf_div_norm(table, r1)
    n3 = hminushalf_div_norm(table, r3)
    rhs = n1 ** alpha * n3 ** (1.0 - alpha)
    c = lhs / rhs if rhs > 0 else (math.inf if lhs > 0 else 0.0)
    return lhs, rhs, c


def random_modal_field(n_max: int, rng: np.random.Generator) -> Dict[Tuple[int, int], tuple]:
    """A random source-free modal expansion (n <= n_max), for property sweeps."""
    field = {}
    for n in range(1, n_max + 1):
        for m in range(-n, n + 1):
            if rng.uniform() < 0.5:
                continue
            quad = tuple((rng.standard_normal() + 1j * rng.standard_normal())
                         / (n + 1.0) for _ in range(4))
            field[(n, m)] = quad
    if not field:
        field[(1, 0)] = (1.0 + 0j, 0j, 0j, 0j)
    return field
