"""The singular weight exp(beta r^-p): derivative identity, the central
weighted inequality, and the fold-parameter bookkeeping.

Integrals carry the common factor exp(2 beta (r^-p - ref)) with ref chosen
so the shifted exponent is <= 0 on the region that matters; the factor
cancels in every measured ratio, so no quantity here over- or underflows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..specfun.vsh import gauss_legendre

# The weighted-inequality quadrature: radial panels of _GAUSS_ORDER
# Gauss-Legendre nodes, _PANELS_PER_EFOLD of them per e-fold of the weight,
# dropped beyond _EXPONENT_FLOOR e-folds below its peak.  A panel doubling
# must agree to _REFINE_GUARD.
_GAUSS_ORDER = 8
_PANELS_PER_EFOLD = 2
_EXPONENT_FLOOR = 80.0
_REFINE_GUARD = 0.01


def weight_derivative_identity(beta: float, p: float, m_field, x,
                               h: float = 1e-4) -> float:
    """Relative residual of the closed-form divergence of M grad e^{-beta r^-p}.

    div(M grad e^{-beta r^-p}) =
        p beta e^{-beta r^-p} [p beta r^{-2p-4} - (p+2) r^{-p-4}] x.Mx
        + p beta r^{-p-2} e^{-beta r^-p} div(Mx),
    checked against a central-difference divergence; div(Mx) is itself a
    central difference of the field.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0:
        raise ValueError("x must be away from the origin")
    if beta == 0.0:
        return 0.0

    def phi(pt):
        return math.exp(-beta * float(np.linalg.norm(pt)) ** (-p))

    def flux(pt):
        g = np.empty(3)
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = h
            g[k] = (phi(pt + dx) - phi(pt - dx)) / (2 * h)
        return np.asarray(m_field(pt), dtype=float) @ g

    fd_div = 0.0
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        fd_div += (flux(x + dx)[k] - flux(x - dx)[k]) / (2 * h)
    m = np.asarray(m_field(x), dtype=float)
    xmx = float(x @ (m @ x))
    div_mx = np.trace(m)
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        mp = np.asarray(m_field(x + dx), dtype=float)
        mm = np.asarray(m_field(x - dx), dtype=float)
        div_mx += np.dot((mp - mm)[k, :], x) / (2 * h)
    e = math.exp(-beta * r ** (-p))
    closed = (p * beta * e * (p * beta * r ** (-2 * p - 4) - (p + 2) * r ** (-p - 4)) * xmx
              + p * beta * r ** (-p - 2) * e * div_mx)
    scale = max(abs(closed), abs(fd_div), 1e-300)
    return abs(closed - fd_div) / scale


@dataclass(frozen=True)
class BumpFunction:
    """Smooth radial bump exp(-1/(1-s^2)), s = (r - mid)/half, supported on
    (a, b), with analytic radial derivatives."""

    a: float
    b: float

    @property
    def support(self):
        return (self.a, self.b)

    def radial(self, r):
        """(v, v', v'') at an array of radii; all three vanish off (a, b)."""
        r = np.asarray(r, dtype=float)
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        s = (r - mid) / half
        inside = np.abs(s) < 1.0
        q = np.where(inside, 1.0 - s * s, 1.0)
        e = np.where(inside, np.exp(-1.0 / q), 0.0)
        d1 = e * (-2.0 * s / q ** 2)
        d2 = e * ((4.0 * s * s / q ** 4) - (2.0 / q ** 2) - (8.0 * s * s / q ** 3))
        return e, d1 / half, d2 / half ** 2


@dataclass(frozen=True)
class WeightedCheck:
    lhs: float
    rhs_interior: float
    rhs_boundary: float
    measured_c: float
    params: dict


def _sphere_moments(m) -> tuple[float, float]:
    """t = tr S and the variance of q = x.Sx over the unit sphere,
    S = (M + M^T)/2: the mean of q is t/3 and its variance
    2 (3 tr S^2 - t^2)/45 = 2 |S - (t/3) I|^2 / 15, taken in the second form,
    which cannot cancel below zero for a nearly isotropic S."""
    if np.shape(m) != (3, 3):
        raise ValueError(f"m must be a constant 3x3 matrix, not {m!r}")
    m = np.asarray(m, dtype=float)
    s = 0.5 * (m + m.T)
    t = float(np.trace(s))
    dev = s - (t / 3.0) * np.eye(3)
    return t, 2.0 * float(np.sum(dev * dev)) / 15.0


def _angular_densities(t: float, var: float, r, dv, d2v):
    """Sphere means of <M grad v, grad v> and (div M grad v)^2 at radius r
    for a radial v with derivatives dv, d2v (multiply by 4 pi for integrals).

    div(M grad v) = A q + B with A = v'' - v'/r and B = v' t / r; its squared
    mean is taken as (A t/3 + B)^2 + A^2 var, a sum of nonnegative terms, as
    the expanded form can cancel below zero.
    """
    a = d2v - dv / r
    b = dv * t / r
    return dv * dv * (t / 3.0), (a * (t / 3.0) + b) ** 2 + a * a * var


def check_inequality_args(beta: float, p: float, shell: tuple = (0.55, 0.95)) -> None:
    """Raise ValueError outside the range of `carleman_inequality_check`."""
    if not (0 < shell[0] < shell[1] <= 1.0):
        raise ValueError("shell must sit inside the unit ball, away from 0")
    if p < 1 or abs(beta) < 1:
        raise ValueError("need p >= 1 and |beta| >= 1")
    if beta >= 0:
        raise ValueError("the weight sweep uses beta < 0 (decay away from 0)")


def carleman_inequality_check(m, v, beta: float, p: float,
                              shell: tuple[float, float] = (0.55, 0.95)) -> WeightedCheck:
    """Measured constant of the central weighted inequality on a shell.

    lhs  = int e^{2 beta r^-p} (p^3 beta^2 r^{-2p-2} |v|^2 + <M grad v, grad v>)
    rhs  = int (1/(p|beta|)) r^{p+2} e^{2 beta r^-p} |div(M grad v)|^2
         + boundary terms e^{2 beta r^-p} (|grad v|^2 + p^2 beta^2 r^{-2p-2}|v|^2).

    M is the constant 3x3 matrix m, of which only the symmetric part enters,
    and v is radial: v.radial(r) gives (v, v', v'') at an array of radii, and
    an optional v.support = (lo, hi) bounds where v is nonzero.  Every
    angular integral then has a closed form (_angular_densities), so the
    quadrature is one-dimensional in r.

    All integrands share the factor e^{2 beta (r^-p - ref)} (ref = the largest
    exponent on the closed shell), so the measured ratio is scale-free.
    Radial panels are spaced in u = r^-p so the weight decays by a bounded
    factor per panel, and panels whose weight sits more than _EXPONENT_FLOOR
    e-folds below the peak are dropped (both sides share the truncation).
    The run is repeated with twice the panels; the two must agree to
    _REFINE_GUARD or the check raises.
    """
    check_inequality_args(beta, p, shell)
    a, b = shell
    t, var = _sphere_moments(m)
    # interior mass lives on supp(v) when the test function declares one;
    # referencing the weight there keeps the shared scale factor meaningful
    support = getattr(v, "support", None)
    r_top = min(b, support[1]) if support else b
    r_bot = max(a, support[0]) if support else a
    if r_top <= r_bot:
        r_top, r_bot = b, a
    ref = 2.0 * beta * r_top ** (-p)

    def weight(r):
        return np.exp(np.maximum(2.0 * beta * r ** (-p) - ref, -700.0))

    def run(panel_mult: int):
        u_lo = r_top ** (-p)
        u_cut = min(r_bot ** (-p), u_lo + _EXPONENT_FLOOR / (2.0 * abs(beta)))
        du = 1.0 / (2.0 * abs(beta) * _PANELS_PER_EFOLD * panel_mult)
        count = max(8, int(math.ceil((u_cut - u_lo) / du)))
        edges = np.linspace(u_lo, u_cut, count + 1) ** (-1.0 / p)
        nodes, gw = gauss_legendre(_GAUSS_ORDER)
        lo, hi = edges[1:], edges[:-1]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        r = (mid[:, None] + half[:, None] * nodes).ravel()
        area = 4.0 * math.pi * (half[:, None] * gw).ravel() * r * r * weight(r)
        val, dv, d2v = v.radial(r)
        mgg, div_sq = _angular_densities(t, var, r, dv, d2v)
        lhs = float(np.sum(area * (p ** 3 * beta ** 2 * r ** (-2 * p - 2) * val * val
                                   + mgg)))
        rhs = float(np.sum(area * (r ** (p + 2) / (p * abs(beta)) * div_sq)))
        return lhs, rhs

    l1, ri1 = run(1)
    l2, ri2 = run(2)
    for x1, x2 in ((l1, l2), (ri1, ri2)):
        scale = max(abs(x2), 1e-300)
        if abs(x1 - x2) / scale > _REFINE_GUARD and scale > 1e-290:
            raise RuntimeError(f"quadrature not converged: {x1} vs {x2}")
    # an end where v and v' vanish adds exactly 0; its weight may overflow
    ends = np.array([a, b])
    val, dv, _ = v.radial(ends)
    live = (val != 0) | (dv != 0)
    ends, val, dv = ends[live], val[live], dv[live]
    bd = float(np.sum(4.0 * math.pi * ends * ends * weight(ends) * (
        dv * dv + p ** 2 * beta ** 2 * ends ** (-2 * p - 2) * val * val)))
    rhs = ri2 + bd
    c = l2 / rhs if rhs > 0 else math.inf
    return WeightedCheck(lhs=l2, rhs_interior=ri2, rhs_boundary=bd,
                         measured_c=c,
                         params={"beta": beta, "p": p, "shell": shell,
                                 "ref_exponent": ref})


@dataclass(frozen=True)
class ExponentTable:
    """Radii, weight exponents, and limits tracking the fold parameter."""

    n: float
    lam: float
    p: float
    tau_log: float
    s_log: float
    r1: float
    r2: float
    r3: float
    rho: float

    @property
    def s_over_tau(self) -> float:
        return math.exp(self.s_log - self.tau_log)


def exponent_bookkeeping(lam: float, n: float, p: float = 8.0) -> ExponentTable:
    """tau_n, s_n, the three radii, and rho(n) for the fold parameter n.

    tau_n = (1/n - lam/n^2)^n and s_n = (1/n + lam/n^2)^n are returned in log
    form (they underflow for large n); s_n/tau_n -> e^{2 lam}.
    """
    if n < 10 * lam:
        raise ValueError("bookkeeping defined for n >= 10 lam")
    tau_log = n * math.log(1.0 / n - lam / (n * n))
    s_log = n * math.log(1.0 / n + lam / (n * n))
    r1 = 1.0 / n
    r2 = r1 + 8.0 * lam / (n * n)
    r3 = 5.0 / (4.0 * n)
    if r2 >= r3:
        # the middle radius escapes the annulus: no admissible weight split
        rho = -math.inf
    else:
        rho = (r1 ** (-p) - r3 ** (-p)) / (r2 ** (-p) - r3 ** (-p))
    return ExponentTable(n=n, lam=lam, p=p, tau_log=tau_log, s_log=s_log,
                         r1=r1, r2=r2, r3=r3, rho=rho)


def minimal_fold_parameter(alpha: float, lam: float, p: float = 8.0) -> int:
    """Smallest integer n >= 10 lam with rho(n) >= (1 + alpha)/2, searched
    up to n = 100000."""
    target = 0.5 * (1.0 + alpha)
    n = int(math.ceil(10 * lam))
    while n <= 100000:
        if exponent_bookkeeping(lam, float(n), p).rho >= target:
            return n
        n += 1
    raise RuntimeError("no admissible fold parameter below the cap")
