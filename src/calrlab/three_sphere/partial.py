"""Partial-boundary surrogate norms and the empirical interpolation exponent.

Only ratios within one experiment are meaningful, so a fixed L2-based
surrogate (values plus full gradient on the kept part of the sphere) stands
in for the fractional pieces; it is held constant across a sweep.

`partial_data_norm` is the one-expansion reference.  `empirical_alpha`
takes a family and a list of boundaries and pays once for what they share:
each member's two annulus norms are computed once for all boundaries, and
each boundary's rings get one Legendre table per order m, of the family's
largest degree, that every member reads.  The Legendre recurrence runs
upward in the degree, so a member's rows are the same bits in that table
as in its own, and each fit keeps the bits of per-member
`partial_data_norm` calls.  Tables live for one call; nothing is cached
across calls.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..specfun.vsh import pbar_tau_pi, sphere_rule


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


def _ring_tables(nmax: int, theta):
    """`legendre` for `ring_density`: m -> pbar_tau_pi(nmax, m, theta), each
    order's table built on its first use and kept as long as the returned
    function."""
    return functools.cache(lambda m: pbar_tau_pi(nmax, m, theta))


def _ring_norm(v, boundary: PartialBoundary, legendre) -> float:
    """`partial_data_norm` of v, reading the Legendre tables `legendre` of
    the boundary's rings (see `_ring_tables`)."""
    if v.n_max >= boundary.quad_order:
        raise ValueError(f"n_max {v.n_max} needs quad_order > n_max, not "
                         f"{boundary.quad_order}")
    _, w = boundary.rings
    return math.sqrt(float(np.sum(w * v.ring_density(boundary.radius, legendre))))


def partial_data_norm(v, boundary: PartialBoundary) -> float:
    """Surrogate boundary datum sqrt(int_Sigma |v|^2 + |grad v|^2 dS).

    `v` must expose `n_max` and `ring_density(radius, legendre)`, the mean
    over phi of |v|^2 + |grad v|^2 on the circles at the polar angles of
    the Legendre tables `legendre(m)` (see `SphericalExpansion`).  The
    2q-point trapezoid rule in phi (q = `quad_order`) integrates that
    density exactly only while n_max < q, so a larger n_max raises
    ValueError.  The surrogate is documented and held fixed so that only
    ratios across an experiment matter.
    """
    return _ring_norm(v, boundary, _ring_tables(v.n_max, boundary.rings[0]))


@dataclass(frozen=True)
class AlphaFit:
    """Log-log regression evidence for the attainable interpolation exponent."""

    alpha_hat: float
    intercept: float
    count: int


# Fewest members with nonzero norms that a fit takes.
_MIN_FIT = 10


def empirical_alpha(family, boundaries, mid_annulus: tuple[float, float],
                    full_annulus: tuple[float, float]) -> list[AlphaFit]:
    """Fit ln(mid/full) = alpha * ln(partial/full) + const over a family,
    one `AlphaFit` per boundary of the list `boundaries`.

    A member whose partial, full or mid norm is zero is left out of a fit,
    and a boundary whose fit would keep fewer than 10 members raises
    ValueError.  Each fit equals the one from `partial_data_norm` and the
    two annulus norms of each member (see the module docstring).  Produces
    the evidence table behind the partial-data claim; it reports fitted
    exponents, never a pass/fail.
    """
    family = list(family)
    norms = []                        # (member, full, mid) with full, mid > 0
    for v in family:
        full = math.sqrt(v.annulus_norm_sq(*full_annulus, include_gradient=True))
        mid = math.sqrt(v.annulus_norm_sq(*mid_annulus, include_gradient=False))
        if full > 0 and mid > 0:
            norms.append((v, full, mid))
    nmax = max((v.n_max for v in family), default=0)
    fits = []
    for boundary in boundaries:
        legendre = _ring_tables(nmax, boundary.rings[0])
        xs, ys = [], []
        for v, full, mid in norms:
            partial = _ring_norm(v, boundary, legendre)
            if partial > 0:
                xs.append(math.log(partial / full))
                ys.append(math.log(mid / full))
        if len(xs) < _MIN_FIT:
            raise ValueError(
                f"excision {boundary.excision}: {len(xs)} family members with "
                f"nonzero norms, need at least {_MIN_FIT} for the regression")
        slope, intercept = np.polyfit(xs, ys, 1)
        fits.append(AlphaFit(alpha_hat=float(slope), intercept=float(intercept),
                             count=len(xs)))
    return fits
