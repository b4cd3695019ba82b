"""Tangential-trace modal norm for Maxwell fields and its three-sphere check.

A field maps (n, m) to the four radial-family coefficients (a1, a2, b1, b2)
of its TM and TE parts.  The norm is the representative of the
H^{-1/2}(div) equivalence class given by the modal sum
sum n^3 (|a1|^2 + |a2|^2 + |b1|^2 + |b2|^2) r^{2n}; equivalence constants
are fixed to 1.  `check_maxwell_3sphere` builds a field's (n, weight)
arrays once and evaluates its three radii from them, with the bits of three
`hminushalf_div_norm` calls.
"""
from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .harmonic2d import _alpha, _interpolation


def _modal_weights(field: Dict[Tuple[int, int], tuple]):
    """(n, n^3 (|a1|^2 + |a2|^2 + |b1|^2 + |b2|^2)) arrays over the modes."""
    n = np.array([n for n, _ in field], dtype=float)
    quads = np.array(list(field.values()), dtype=complex).reshape(-1, 4)
    return n, n ** 3 * np.sum(np.abs(quads) ** 2, axis=1)


def _modal_norm(n: np.ndarray, weights: np.ndarray, radius: float) -> float:
    return math.sqrt(float(np.sum(weights * radius ** (2 * n))))


def hminushalf_div_norm(field: Dict[Tuple[int, int], tuple], radius: float) -> float:
    """sqrt of sum over modes of n^3 (|a1|^2 + |a2|^2 + |b1|^2 + |b2|^2) radius^(2n)."""
    return _modal_norm(*_modal_weights(field), radius)


def check_maxwell_3sphere(field: Dict[Tuple[int, int], tuple],
                          r1: float, r2: float, r3: float):
    """Interpolation of the modal trace norm across three spheres.

    Per mode the weight n^3 c r^{2n} is exactly log-linear in ln r, so the
    squared norms interpolate with constant 1 (Hoelder across modes); the
    measured constant is lhs/rhs <= 1 with equality for single modes.
    Returns (lhs, rhs, c); the zero field reads c = 0.0 (see
    `harmonic2d._interpolation`).
    """
    alpha = _alpha(r1, r2, r3)
    n, weights = _modal_weights(field)
    lhs, rhs, _, c = _interpolation(*(_modal_norm(n, weights, r) for r in (r1, r2, r3)),
                                    alpha)
    return lhs, rhs, c


def random_modal_field(n_max: int, rng: np.random.Generator) -> Dict[Tuple[int, int], tuple]:
    """A random source-free modal expansion (n <= n_max), for property sweeps.

    Each mode is kept with probability 1/2; a kept mode draws eight normals,
    the (real, imaginary) pairs of its four coefficients, each over n + 1.
    The draws are one `rng.random()` per mode (the double `rng.uniform()`
    makes from the same 64-bit draw) and one `rng.standard_normal(8)` per
    kept mode, in mode order.  The coefficients are built as arrays with
    real and imaginary parts divided as floats, which keeps the bits of
    complex(x, y) / (n + 1.0); a complex array over a float would be
    multiplied by the reciprocal.
    """
    keys = []
    draws = []
    for n in range(1, n_max + 1):
        for m in range(-n, n + 1):
            if rng.random() < 0.5:
                continue
            keys.append((n, m))
            draws.append(rng.standard_normal(8))
    if not keys:
        return {(1, 0): (1.0 + 0j, 0j, 0j, 0j)}
    z = np.array(draws) / np.array([n + 1.0 for n, _ in keys])[:, None]
    coeffs = np.empty((len(keys), 4), dtype=complex)
    coeffs.real, coeffs.imag = z[:, ::2], z[:, 1::2]
    return dict(zip(keys, map(tuple, coeffs.tolist())))
