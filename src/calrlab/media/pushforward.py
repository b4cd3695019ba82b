"""Tensor and field push-forwards under diffeomorphisms.

T_* A(y) = grad T A grad T^t / det grad T at x = T^{-1}(y) for material
tensors, and T * v(y) = grad T^{-t}(x) v(x) for electromagnetic fields.
"""
from __future__ import annotations

import numpy as np

from .maps import SmoothMap


def _tensor_at(a, x):
    if callable(a):
        return np.asarray(a(x), dtype=complex)
    return np.asarray(a, dtype=complex)


def push_forward_tensor(mapping: SmoothMap, tensor, y) -> np.ndarray:
    """Push a (possibly position-dependent) 3x3 tensor forward to the point y."""
    y = np.asarray(y, dtype=float)
    x = mapping.inverse(y)
    j = mapping.jacobian(x)
    det = np.linalg.det(j)
    if det == 0:
        raise ZeroDivisionError("singular Jacobian in push-forward")
    return j @ _tensor_at(tensor, x) @ j.T / det


def push_forward_field(mapping: SmoothMap, v, y) -> np.ndarray:
    """Transform a vector field covariantly: grad T^{-t}(x) v(x), x = T^{-1}(y)."""
    y = np.asarray(y, dtype=float)
    x = mapping.inverse(y)
    j = mapping.jacobian(x)
    vx = np.asarray(v(x) if callable(v) else v, dtype=complex)
    return np.linalg.solve(j.T, vx)


def spherical_diag(rad, tan, x) -> np.ndarray:
    """rad * e_r e_r^t + tan * (I - e_r e_r^t) at the point x."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if r == 0:
        raise ZeroDivisionError("spherical frame undefined at the origin")
    p = np.outer(x, x) / (r * r)
    return rad * p + tan * (np.eye(3) - p)


def check_symmetric(a) -> None:
    """Raise unless a is symmetric to 1e-12 relative."""
    a = np.asarray(a)
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ValueError("tensor is not symmetric")


def ellipticity_bounds(a) -> tuple[float, float]:
    """(min, max) eigenvalue of the real part of a symmetric tensor."""
    w = np.linalg.eigvalsh(np.asarray(a).real)
    return float(w[0]), float(w[-1])


def check_elliptic(a, lam: float) -> None:
    """Real-part eigenvalues must lie in [1/lam, lam] for declared lam >= 1."""
    lo, hi = ellipticity_bounds(a)
    if lo < 1.0 / lam - 1e-12 or hi > lam + 1e-12:
        raise ValueError(f"eigenvalues [{lo}, {hi}] escape [{1 / lam}, {lam}]")
