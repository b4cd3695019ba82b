"""Tensor push-forwards under diffeomorphisms.

T_* A(y) = grad T A grad T^t / det grad T at x = T^{-1}(y) for material
tensors.  The matching field transform, grad T^{-t}(x) v(x), is applied to
whole solutions by `calrlab.layered_maxwell.reflect_solution`.
"""
from __future__ import annotations

import numpy as np

from .maps import SmoothMap


def _tensor_at(a, x):
    if callable(a):
        return np.asarray(a(x), dtype=complex)
    return np.asarray(a, dtype=complex)


def push_forward_tensor(mapping: SmoothMap, tensor, y) -> np.ndarray:
    """Push a (possibly position-dependent) 3x3 tensor forward to the point y,
    or to each row of an (N, 3) stack of points, giving (N, 3, 3)."""
    y = np.asarray(y, dtype=float)
    x = mapping.inverse(y)
    j = mapping.jacobian(x)
    det = np.linalg.det(j)
    if np.any(det == 0):
        raise ZeroDivisionError("singular Jacobian in push-forward")
    return j @ _tensor_at(tensor, x) @ np.swapaxes(j, -1, -2) / det[..., None, None]


def spherical_diag(rad, tan, x) -> np.ndarray:
    """rad * e_r e_r^t + tan * (I - e_r e_r^t) at the point x."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if r == 0:
        raise ZeroDivisionError("spherical frame undefined at the origin")
    p = np.outer(x, x) / (r * r)
    return rad * p + tan * (np.eye(3) - p)
