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


@dataclass
class PartialBoundary:
    """Sphere radius, excised equator band, and the kept rings of the rule:
    the theta rows of `sphere_rule(quad_order)` whose circles lie at
    distance >= r0 from the equator circle, each weighted by radius^2 times
    its row's weight sum."""

    radius: float
    excision: float                      # tubular half-width r0
    quad_order: int = 48
    rings: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _, w, theta, _ = sphere_rule(self.quad_order)
        theta = theta.reshape(self.quad_order, -1)[:, 0]
        r = self.radius
        # distance of each row's circle to the equator circle |x| = r, x3 = 0
        rows = np.hypot(r * np.sin(theta) - r, r * np.cos(theta)) >= self.excision
        if not np.any(rows):
            raise ValueError("the excision covers the whole sphere")
        w_rows = r ** 2 * w.reshape(self.quad_order, -1).sum(axis=1)
        self.rings = (theta[rows], w_rows[rows])

    @property
    def kept_fraction(self) -> float:
        _, w = self.rings
        return float(np.sum(w) / (4.0 * math.pi * self.radius ** 2))


def partial_data_norm(v, boundary: PartialBoundary) -> float:
    """Surrogate boundary datum sqrt(int_Sigma |v|^2 + |grad v|^2 dS).

    `v` must expose `n_max` and `ring_density(radius, theta)`, the mean over
    phi of |v|^2 + |grad v|^2 on the circles at those polar angles.  The
    2q-point trapezoid rule in phi (q = `quad_order`) integrates that
    density exactly only while n_max < q, so a larger n_max raises
    ValueError.  The surrogate is documented and held fixed so that only
    ratios across an experiment matter.
    """
    if v.n_max >= boundary.quad_order:
        raise ValueError(f"n_max {v.n_max} needs quad_order > n_max, not "
                         f"{boundary.quad_order}")
    theta, w = boundary.rings
    dens = v.ring_density(boundary.radius, theta)
    return math.sqrt(float(np.sum(w * dens)))


@dataclass(frozen=True)
class AlphaFit:
    """Log-log regression evidence for the attainable interpolation exponent."""

    alpha_hat: float
    intercept: float
    count: int


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
    for v in family:
        partial = partial_data_norm(v, boundary)
        full = math.sqrt(v.annulus_norm_sq(*full_annulus, include_gradient=True))
        mid = math.sqrt(v.annulus_norm_sq(*mid_annulus, include_gradient=False))
        if partial <= 0 or full <= 0 or mid <= 0:
            continue
        xs.append(math.log(partial / full))
        ys.append(math.log(mid / full))
    slope, intercept = np.polyfit(xs, ys, 1)
    return AlphaFit(alpha_hat=float(slope), intercept=float(intercept),
                    count=len(xs))
