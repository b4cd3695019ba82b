"""Partial-boundary surrogate norms and the empirical interpolation exponent.

Only ratios within one experiment are meaningful, so a fixed L2-based
surrogate (values plus full gradient on the kept part of the sphere) stands
in for the fractional pieces; it is held constant across a sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..specfun.vsh import sphere_rule


@dataclass(frozen=True)
class NormReport:
    """A computed norm plus the metadata needed to reproduce it."""

    value: float
    parts: dict = field(default_factory=dict)
    method: str = "modal-exact"
    params: dict = field(default_factory=dict)

    def __float__(self):
        return self.value


@dataclass
class PartialBoundary:
    """Sphere radius, excised equator band, and the masked quadrature rule."""

    radius: float
    excision: float                      # tubular half-width r0
    quad_order: int = 48
    _rule: tuple = field(init=False, repr=False)

    def __post_init__(self):
        pts, w, _, _ = sphere_rule(self.quad_order)
        xs = self.radius * pts
        # distance of each node to the equator circle |x| = radius, x3 = 0
        dist = np.hypot(np.hypot(xs[:, 0], xs[:, 1]) - self.radius, xs[:, 2])
        keep = dist >= self.excision
        if not np.any(keep):
            raise ValueError("the excision covers the whole sphere")
        self._rule = (xs[keep], self.radius ** 2 * w[keep])

    @property
    def kept_fraction(self) -> float:
        _, w = self._rule
        return float(np.sum(w) / (4.0 * math.pi * self.radius ** 2))

    def quadrature(self):
        return self._rule


def partial_data_norm(v, boundary: PartialBoundary) -> NormReport:
    """Surrogate boundary datum sqrt(int_Sigma |v|^2 + |grad v|^2 dS).

    `v` must expose value_and_gradient_many; the surrogate is documented and
    held fixed so that only ratios across an experiment matter.
    """
    xs, w = boundary.quadrature()
    vals, grads = v.value_and_gradient_many(xs)
    dens = np.abs(vals) ** 2 + np.sum(np.abs(grads) ** 2, axis=1)
    return NormReport(value=math.sqrt(float(np.sum(w * dens))),
                      parts={"kept_fraction": boundary.kept_fraction},
                      method="quadrature-surrogate",
                      params={"radius": boundary.radius,
                              "excision": boundary.excision,
                              "quad_order": boundary.quad_order,
                              "curve": "equator"})


@dataclass(frozen=True)
class AlphaFit:
    """Log-log regression evidence for the attainable interpolation exponent."""

    alpha_hat: float
    intercept: float
    excision: float
    count: int
    points: tuple


def empirical_alpha(family, boundary: PartialBoundary,
                    mid_annulus: tuple[float, float],
                    full_annulus: tuple[float, float]) -> AlphaFit:
    """Fit ln(mid/full) = alpha * ln(partial/full) + const over a family.

    Produces the evidence table behind the partial-data claim; it reports a
    fitted exponent, never a pass/fail.
    """
    if len(family) < 10:
        raise ValueError("need at least 10 family members for the regression")
    xs, ys = [], []
    pts = []
    for v in family:
        partial = partial_data_norm(v, boundary).value
        full = math.sqrt(v.annulus_norm_sq(*full_annulus, include_gradient=True))
        mid = math.sqrt(v.annulus_norm_sq(*mid_annulus, include_gradient=False))
        if partial <= 0 or full <= 0 or mid <= 0:
            continue
        x = math.log(partial / full)
        y = math.log(mid / full)
        xs.append(x)
        ys.append(y)
        pts.append((x, y))
    slope, intercept = np.polyfit(xs, ys, 1)
    return AlphaFit(alpha_hat=float(slope), intercept=float(intercept),
                    excision=boundary.excision, count=len(xs),
                    points=tuple(pts))
