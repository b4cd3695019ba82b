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

from ..specfun.vsh import gauss_legendre, sphere_rule

# The weighted-inequality quadrature: a product rule of _QUAD_THETA
# Gauss-Legendre nodes in cos(theta) (128 points on the sphere), and radial
# panels of _GAUSS_ORDER nodes, _PANELS_PER_EFOLD of them per e-fold of the
# weight, dropped beyond _EXPONENT_FLOOR e-folds below its peak.  A panel
# doubling must agree to _REFINE_GUARD.
_QUAD_THETA = 8
_GAUSS_ORDER = 8
_PANELS_PER_EFOLD = 2
_EXPONENT_FLOOR = 80.0
_REFINE_GUARD = 0.01
# Radial nodes per evaluation of the test function.  A block holds 8192
# points; a whole refinement run at once would hold 2560 x 128 and raise
# peak memory, one panel (8 nodes) pays more numpy dispatch per node.
_NODE_BLOCK = 64


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
    """Smooth radial bump supported on (a, b), with analytic derivatives."""

    a: float
    b: float

    @property
    def support(self):
        return (self.a, self.b)

    def _sval(self, r):
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        return (r - mid) / half, half

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=1)
        s, _ = self._sval(r)
        out = np.zeros_like(r)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out

    def _dds(self, s):
        """d/ds and d2/ds2 of exp(-1/(1-s^2)) for |s| < 1."""
        q = 1.0 - s * s
        e = np.exp(-1.0 / q)
        d1 = e * (-2.0 * s / q ** 2)
        d2 = e * ((4.0 * s * s / q ** 4) - (2.0 / q ** 2) - (8.0 * s * s / q ** 3))
        return e, d1, d2

    def gradient(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=1)
        s, half = self._sval(r)
        out = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        if np.any(inside):
            _, d1, _ = self._dds(s[inside])
            out[inside] = (d1 / half)[:, None] * (x[inside] / r[inside, None])
        return out

    def hessian_quadratic(self, x, m):
        """div(M grad v) for constant symmetric M, in closed form."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=1)
        s, half = self._sval(r)
        out = np.zeros_like(r)
        inside = np.abs(s) < 1.0
        if not np.any(inside):
            return out
        _, d1, d2 = self._dds(s[inside])
        xi = x[inside]
        ri = r[inside]
        vp = d1 / half          # dv/dr
        vpp = d2 / half ** 2    # d2v/dr2
        m = np.asarray(m, dtype=float)
        xmx = np.einsum("ij,jk,ik->i", xi, m, xi) / ri ** 2
        trm = np.trace(m)
        out[inside] = vpp * xmx + vp * (trm - xmx) / ri
        return out


@dataclass(frozen=True)
class WeightedCheck:
    lhs: float
    rhs_interior: float
    rhs_boundary: float
    measured_c: float
    params: dict


def carleman_inequality_check(m_field, v, beta: float, p: float,
                              shell: tuple[float, float] = (0.55, 0.95)) -> WeightedCheck:
    """Measured constant of the central weighted inequality on a shell.

    lhs  = int e^{2 beta r^-p} (p^3 beta^2 r^{-2p-2} |v|^2 + <M grad v, grad v>)
    rhs  = int (1/(p|beta|)) r^{p+2} e^{2 beta r^-p} |div(M grad v)|^2
         + boundary terms e^{2 beta r^-p} (|grad v|^2 + p^2 beta^2 r^{-2p-2}|v|^2).

    All integrands share the factor e^{2 beta (r^-p - ref)} (ref = the largest
    exponent on the closed shell), so the measured ratio is scale-free.
    Radial panels are spaced in u = r^-p so the weight decays by a bounded
    factor per panel, and panels whose weight sits more than _EXPONENT_FLOOR
    e-folds below the peak are dropped (both sides share the truncation).
    The run is repeated with twice the panels; the two must agree to
    _REFINE_GUARD or the check raises.

    v is duck-typed: value, gradient and hessian_quadratic(x, M) take a (k, 3)
    array of points.  They are called once per block of _NODE_BLOCK radial
    nodes on the sphere rule; the per-node weights and powers of r stay
    scalars and the node sums accumulate in radial order, so the result is
    bit-identical to a node-by-node evaluation.
    """
    a, b = shell
    if not (0 < a < b <= 1.0):
        raise ValueError("shell must sit inside the unit ball, away from 0")
    if p < 1 or abs(beta) < 1:
        raise ValueError("need p >= 1 and |beta| >= 1")
    if beta >= 0:
        raise ValueError("the weight sweep uses beta < 0 (decay away from 0)")
    # interior mass lives on supp(v) when the test function declares one;
    # referencing the weight there keeps the shared scale factor meaningful
    support = getattr(v, "support", None)
    r_top = min(b, support[1]) if support else b
    r_bot = max(a, support[0]) if support else a
    if r_top <= r_bot:
        r_top, r_bot = b, a
    ref = 2.0 * beta * r_top ** (-p)

    m_const = np.asarray(m_field(np.array([0.0, 0.0, 0.7 * b])), dtype=float) \
        if callable(m_field) else np.asarray(m_field, dtype=float)

    pts, wq, _, _ = sphere_rule(_QUAD_THETA)

    def run(panel_mult: int):
        u_lo = r_top ** (-p)
        u_cut = min(r_bot ** (-p), u_lo + _EXPONENT_FLOOR / (2.0 * abs(beta)))
        du = 1.0 / (2.0 * abs(beta) * _PANELS_PER_EFOLD * panel_mult)
        count = max(8, int(math.ceil((u_cut - u_lo) / du)))
        edges = np.linspace(u_lo, u_cut, count + 1) ** (-1.0 / p)
        nodes, gw = gauss_legendre(_GAUSS_ORDER)
        lo, hi = edges[1:], edges[:-1]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        # per-node scalars stay Python/numpy scalars: their ufunc forms can
        # differ in the last bit
        radii, scale_w, lhs_c, rhs_c = [], [], [], []
        for r_i, w_i in zip((mid[:, None] + half[:, None] * nodes).ravel(),
                            (half[:, None] * gw).ravel()):
            wgt = math.exp(max(2.0 * beta * r_i ** (-p) - ref, -700.0))
            if wgt == 0.0:
                continue
            radii.append(r_i)
            scale_w.append(w_i * r_i * r_i * wgt)
            lhs_c.append(p ** 3 * beta ** 2 * r_i ** (-2 * p - 2))
            rhs_c.append(r_i ** (p + 2) / (p * abs(beta)))
        interior_lhs = 0.0
        interior_rhs = 0.0
        for start in range(0, len(radii), _NODE_BLOCK):
            block = slice(start, start + _NODE_BLOCK)
            rb = np.array(radii[block])
            xs = (rb[:, None, None] * pts).reshape(-1, 3)
            shape = (len(rb), len(pts))
            vals = v.value(xs).reshape(shape)
            grads = v.gradient(xs)
            divmv = v.hessian_quadratic(xs, m_const).reshape(shape)
            mgg = np.einsum("ij,jk,ik->i", grads, m_const, grads).reshape(shape)
            lhs = np.sum(wq * (np.array(lhs_c[block])[:, None] * np.abs(vals) ** 2
                               + mgg), axis=1)
            rhs = np.sum(wq * (np.array(rhs_c[block])[:, None]
                               * np.abs(divmv) ** 2), axis=1)
            for sw, lhs_k, rhs_k in zip(scale_w[block], lhs, rhs):
                interior_lhs += sw * lhs_k
                interior_rhs += sw * rhs_k
        boundary = 0.0
        for r_i in (a, b):
            xs = r_i * pts
            vals = v.value(xs)
            grads = v.gradient(xs)
            wgt = math.exp(max(2.0 * beta * r_i ** (-p) - ref, -700.0))
            boundary += wgt * r_i * r_i * float(np.sum(wq * (
                np.sum(np.abs(grads) ** 2, axis=1)
                + p ** 2 * beta ** 2 * r_i ** (-2 * p - 2) * np.abs(vals) ** 2)))
        return interior_lhs, interior_rhs, boundary

    l1, ri1, bd1 = run(1)
    l2, ri2, bd2 = run(2)
    for x1, x2 in ((l1, l2), (ri1, ri2)):
        scale = max(abs(x2), 1e-300)
        if abs(x1 - x2) / scale > _REFINE_GUARD and scale > 1e-290:
            raise RuntimeError(f"quadrature not converged: {x1} vs {x2}")
    rhs = ri2 + bd2
    c = l2 / rhs if rhs > 0 else math.inf
    return WeightedCheck(lhs=l2, rhs_interior=ri2, rhs_boundary=bd2,
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
    def tau(self) -> float:
        return math.exp(self.tau_log)

    @property
    def s(self) -> float:
        return math.exp(self.s_log)

    @property
    def s_over_tau(self) -> float:
        return math.exp(self.s_log - self.tau_log)


def exponent_bookkeeping(lam: float, n: float, p: float = 8.0) -> ExponentTable:
    """tau_n, s_n, the three radii, and rho(n) for the fold parameter n.

    tau_n = (1/n - lam/n^2)^n and s_n = (1/n + lam/n^2)^n are returned in log
    form as well (they underflow for large n); s_n/tau_n -> e^{2 lam}.
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
