"""Angle-fold maps: the conformal-type change of variables and its Jacobian.

fold_map compresses the half-space angle by 1/n while taking the 1/n power
of the planar radius; the flattening variant keeps the radius and only folds
the angle (used to open a slit domain onto the half-space at n = 3/2).
fold_map_inverse also takes a stack of points (..., 3).
"""
from __future__ import annotations

import math

import numpy as np


def _polar(x):
    """Planar radius and angle of a point, or of each point of a stack, by
    math.hypot and math.atan2: numpy's hypot and arctan2 round differently,
    and a point of a stack must keep the bits of the point on its own."""
    x = np.asarray(x, dtype=float)
    return (np.float64(np.frompyfunc(math.hypot, 2, 1)(x[..., 0], x[..., 1])),
            np.float64(np.frompyfunc(math.atan2, 2, 1)(x[..., 1], x[..., 0])))


def fold_map(n: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(rhat^(1/n) cos(theta/n), rhat^(1/n) sin(theta/n), x3) and its Jacobian.

    Defined on the closed half-space x1 >= 0; the planar axis rhat = 0 maps to
    itself by convention but has no Jacobian there.
    """
    x = np.asarray(x, dtype=float)
    if x[0] < -1e-14:
        raise ValueError("fold map defined on the half-space x1 >= 0")
    rhat, theta = _polar(x)
    if rhat == 0.0:
        return np.array([0.0, 0.0, x[2]]), None
    rn = rhat ** (1.0 / n)
    point = np.array([rn * math.cos(theta / n), rn * math.sin(theta / n), x[2]])
    # planar block: (1/(n rhat^{1-1/n})) R((n-1) theta / n)
    c = math.cos((n - 1.0) * theta / n)
    s = math.sin((n - 1.0) * theta / n)
    jac = np.zeros((3, 3))
    pref = 1.0 / (n * rhat ** (1.0 - 1.0 / n))
    jac[0, 0], jac[0, 1] = pref * c, pref * s
    jac[1, 0], jac[1, 1] = -pref * s, pref * c
    jac[2, 2] = 1.0
    return point, jac


def fold_map_inverse(n: float, y) -> np.ndarray:
    """Inverse of the fold on its image (|theta| < pi/(2n))."""
    y = np.asarray(y, dtype=float)
    rhat, theta = _polar(y)
    if np.any(np.abs(theta) > math.pi / (2.0 * n) + 1e-12):
        raise ValueError("point outside the folded image")
    rn = np.float_power(rhat, n)
    return np.stack([rn * np.cos(n * theta), rn * np.sin(n * theta), y[..., 2]],
                    axis=-1)


def fold_smooth_map(n: float):
    """The fold packaged as a media.SmoothMap (label "ln_fold").

    Lets the fold participate in push-forwards and compositions alongside the
    inversion maps; domain is the open half-space minus the planar axis.
    """
    from ..media.maps import SmoothMap

    return SmoothMap(forward=lambda x: fold_map(n, x)[0],
                     inverse=lambda y: fold_map_inverse(n, y),
                     jacobian=lambda x: fold_map(n, x)[1],
                     label="ln_fold", params={"n": n})


def fold_map_flatten(n: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Radius-preserving angle fold (rhat cos(theta/n), rhat sin(theta/n), x3).

    For n = 3/2 this maps the slit box {|theta| < 3 pi/4} onto the half-space
    box with the same radii, which is how boundary data on a slit is flattened.
    """
    x = np.asarray(x, dtype=float)
    rhat, theta = _polar(x)
    if rhat == 0.0:
        return np.array([0.0, 0.0, x[2]]), None
    point = np.array([rhat * math.cos(theta / n), rhat * math.sin(theta / n), x[2]])
    ct, st = math.cos(theta), math.sin(theta)
    cn, sn = math.cos(theta / n), math.sin(theta / n)
    # d(point)/d(rhat, theta) composed with d(rhat, theta)/d(x1, x2)
    d_pol = np.array([[cn, -rhat * sn / n],
                      [sn, rhat * cn / n]])
    d_cart = np.array([[ct, st], [-st / rhat, ct / rhat]])
    jac = np.zeros((3, 3))
    jac[:2, :2] = d_pol @ d_cart
    jac[2, 2] = 1.0
    return point, jac
