"""Diffeomorphisms with analytic Jacobians: Kelvin, power-law, linear, compositions.

The maps built here take one point (3,) or a stack of points (..., 3); a
Jacobian has shape (..., 3, 3).  A point of a stack gets exactly the bits it
gets on its own: |x| is sqrt(x . x) by a matmul per point (as
`np.linalg.norm` of one point computes it) and powers use `np.float_power`
(the scalar `**` of one point), where the array forms `norm(axis=1)` and
`**` would round differently at some points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SmoothMap:
    """A diffeomorphism with closed-form forward, inverse and Jacobian."""

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    label: str = "map"
    params: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.forward(np.asarray(x, dtype=float))

    def jacobian_det(self, x):
        return float(np.linalg.det(self.jacobian(np.asarray(x, dtype=float))))


def _stacked(value, x: np.ndarray) -> np.ndarray:
    """A constant 3x3 matrix repeated over the points of x."""
    return np.broadcast_to(value, x.shape[:-1] + (3, 3)).copy()


def identity_map() -> SmoothMap:
    eye = np.eye(3)
    return SmoothMap(forward=lambda x: np.asarray(x, dtype=float),
                     inverse=lambda x: np.asarray(x, dtype=float),
                     jacobian=lambda x: _stacked(eye, np.asarray(x, dtype=float)),
                     label="identity")


def linear_map(matrix) -> SmoothMap:
    a = np.asarray(matrix, dtype=float)
    if abs(np.linalg.det(a)) < 1e-300:
        raise ValueError("linear map must be invertible")
    ainv = np.linalg.inv(a)
    return SmoothMap(forward=lambda x: np.asarray(x, dtype=float) @ a.T,
                     inverse=lambda y: np.asarray(y, dtype=float) @ ainv.T,
                     jacobian=lambda x: _stacked(a, np.asarray(x, dtype=float)),
                     label="linear", params={"matrix": a.tolist()})


def _radius(x: np.ndarray, what: str) -> np.ndarray:
    """|x| of each point, shape x.shape[:-1] + (1,); raises at the origin."""
    r = np.sqrt(np.matmul(x[..., None, :], x[..., :, None]))[..., 0]
    if np.any(r == 0):
        raise ZeroDivisionError(f"{what} undefined at the origin")
    return r


def power_map(r2: float, p: float) -> SmoothMap:
    """x -> r2^p x / |x|^p.  p = 2 is the Kelvin transform w.r.t. |x| = r2.

    The inverse is the power map with exponent q = p/(p-1) and radius
    r2^(p/p... ) chosen so the pair exchanges B_{r2} and its exterior.
    """
    if p <= 1:
        raise ValueError("power map requires p > 1")
    if r2 <= 0:
        raise ValueError("power map requires r2 > 0")
    c = r2 ** p
    q = p / (p - 1.0)
    ci = r2 ** q
    eye = np.eye(3)

    def fwd(x):
        x = np.asarray(x, dtype=float)
        return c * x / np.float_power(_radius(x, "power map"), p)

    def inv(y):
        y = np.asarray(y, dtype=float)
        return ci * y / np.float_power(_radius(y, "power map inverse"), q)

    def jac(x):
        x = np.asarray(x, dtype=float)
        r = _radius(x, "power map Jacobian")
        xh = x / r
        outer = xh[..., :, None] * xh[..., None, :]
        return (c / np.float_power(r, p))[..., None] * (eye - p * outer)

    return SmoothMap(forward=fwd, inverse=inv, jacobian=jac,
                     label="power", params={"r2": r2, "p": p})


def kelvin_map(radius: float) -> SmoothMap:
    """Sphere inversion x -> radius^2 x / |x|^2 (self-inverse)."""
    m = power_map(radius, 2.0)
    return SmoothMap(forward=m.forward, inverse=m.inverse, jacobian=m.jacobian,
                     label="kelvin", params={"radius": radius})


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """outer after inner, with the chain-rule Jacobian."""

    def fwd(x):
        return outer.forward(inner.forward(x))

    def inv(y):
        return inner.inverse(outer.inverse(y))

    def jac(x):
        xin = inner.forward(x)
        return outer.jacobian(xin) @ inner.jacobian(x)

    return SmoothMap(forward=fwd, inverse=inv, jacobian=jac,
                     label="composition",
                     params={"outer": outer.label, "inner": inner.label})


def check_inverse(mapping: SmoothMap, points) -> float:
    """Max |inverse(forward(x)) - x| over sample points (invariant check);
    raises above 1e-10."""
    worst = 0.0
    for x in np.atleast_2d(points):
        worst = max(worst, float(np.linalg.norm(mapping.inverse(mapping.forward(x)) - x)))
    if worst > 1e-10:
        raise ValueError(f"map {mapping.label} fails round-trip check: {worst}")
    return worst
