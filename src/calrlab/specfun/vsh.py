"""Vector spherical harmonics, surface-L2 orthonormal, Condon-Shortley phase.

The tangential functions are computed through Q_n^m = Pbar_n^m / sin^m(theta),
which satisfies the same three-term recurrence as Pbar but stays finite at the
poles, so no formula ever divides by sin(theta).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


def _q_seed(m: int) -> float:
    """Q_m^m = (-1)^m * Nbar_mm * (2m-1)!!, a constant in x."""
    log_n = 0.5 * (math.log(2 * m + 1) - math.log(4 * math.pi) - math.lgamma(2 * m + 1))
    log_df = sum(math.log(2 * k - 1) for k in range(1, m + 1))
    return (-1.0) ** m * math.exp(log_n + log_df)


def legendre_q(nmax: int, m: int, x):
    """Q_n^m and dQ_n^m/dx for n = m..nmax, vectorized over x = cos(theta).

    Returns arrays of shape (nmax - m + 1,) + x.shape.
    """
    if m < 0:
        raise ValueError("m must be >= 0 here")
    if nmax < m:
        raise ValueError("nmax < m")
    x = np.asarray(x, dtype=float)
    count = nmax - m + 1
    q = np.zeros((count,) + x.shape)
    dq = np.zeros((count,) + x.shape)
    q[0] = _q_seed(m)
    if count > 1:
        c = math.sqrt(2 * m + 3)
        q[1] = c * x * q[0]
        dq[1] = c * q[0]
    for idx in range(2, count):
        n = m + idx
        a_n = math.sqrt((4 * n * n - 1.0) / (n * n - m * m))
        nm1 = n - 1
        inv_a_prev = math.sqrt((nm1 * nm1 - m * m) / (4.0 * nm1 * nm1 - 1.0))
        q[idx] = a_n * (x * q[idx - 1] - inv_a_prev * q[idx - 2])
        dq[idx] = a_n * (q[idx - 1] + x * dq[idx - 1] - inv_a_prev * dq[idx - 2])
    return q, dq


def pbar_tau_pi(nmax: int, m: int, theta):
    """Normalized Legendre Pbar_n^m, tau = dPbar/dtheta, pi = m Pbar/sin(theta).

    Valid at the poles.  m may be negative; parity (-1)^m is applied.
    Shapes: (nmax - |m| + 1,) + theta.shape.
    """
    ma = abs(m)
    theta = np.asarray(theta, dtype=float)
    x = np.cos(theta)
    s = np.sin(theta)
    q, dq = legendre_q(nmax, ma, x)
    if ma == 0:
        pbar = q
        tau = -s * dq
        pi = np.zeros_like(q)
    else:
        s_m1 = s ** (ma - 1)
        pbar = s_m1 * s * q
        tau = ma * x * s_m1 * q - s_m1 * s * s * dq
        pi = ma * s_m1 * q
    if m < 0:
        sign = (-1.0) ** ma
        pbar = sign * pbar
        tau = sign * tau
        pi = -sign * pi
    return pbar, tau, pi


def sph_harm_y(n: int, m: int, theta, phi):
    """Surface-orthonormal Y_n^m(theta, phi) with Condon-Shortley phase."""
    if abs(m) > n:
        raise ValueError("|m| > n")
    pbar, _, _ = pbar_tau_pi(n, m, theta)
    return pbar[-1] * np.exp(1j * m * np.asarray(phi))


@dataclass(frozen=True)
class VshTriple:
    """The three surface-orthonormal vector fields at one direction."""

    radial: np.ndarray            # Y_n^m(xhat) xhat
    gradient_tangent: np.ndarray  # normalized surface gradient of Y_n^m
    rotated_tangent: np.ndarray   # xhat x gradient_tangent


def _angles(direction):
    d = np.asarray(direction, dtype=float)
    r = float(np.linalg.norm(d))
    if abs(r - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, |d| = {r}")
    theta = math.acos(max(-1.0, min(1.0, d[2])))
    phi = math.atan2(d[1], d[0])
    return theta, phi


def vsh(n: int, m: int, direction) -> VshTriple:
    """Evaluate the orthonormal triple (Y xhat, U, V) at a unit direction.

    U = grad_S Y / sqrt(n(n+1)), V = xhat x U.  At the poles the formulas
    reduce to their analytic limits (phi is taken as 0 there).
    """
    if n < 1:
        raise ValueError("vector harmonics need n >= 1")
    if abs(m) > n:
        raise ValueError("|m| > n")
    theta, phi = _angles(direction)
    pbars, taus, pis = pbar_tau_pi(n, m, theta)
    root = math.sqrt(n * (n + 1.0))
    pbar, tau_s, pi_s = pbars[-1], taus[-1] / root, pis[-1] / root
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    xhat = np.array([st * cp, st * sp, ct])
    theta_hat = np.array([ct * cp, ct * sp, -st])
    phi_hat = np.array([-sp, cp, 0.0])
    eimp = complex(math.cos(m * phi), math.sin(m * phi))
    radial = pbar * eimp * xhat.astype(complex)
    grad = eimp * (tau_s * theta_hat + 1j * pi_s * phi_hat)
    rot = eimp * (-1j * pi_s * theta_hat + tau_s * phi_hat)
    return VshTriple(radial=radial, gradient_tangent=grad, rotated_tangent=rot)


def _mirror(m: int, triple):
    """The triple of (n, -m) from that of (n, m): (-1)^m times its conjugate."""
    s = (-1.0) ** m
    return tuple(s * np.conj(v) for v in triple)


class VshStream:
    """Orthonormal triples on point arrays, one (n, m) at a time.

    `stream(n, m)` is exactly `vsh_table(nmax, theta, phi)[(n, m)]`, which
    is built from it, but only the Legendre table of each |m| is kept: about
    2 KB a point at nmax = 12, against 24 KB for the whole table.
    """

    def __init__(self, nmax: int, theta, phi):
        self.nmax = nmax
        self.theta = np.asarray(theta, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        self.xhat = np.stack([st * cp, st * sp, ct], axis=-1)
        self.theta_hat = np.stack([ct * cp, ct * sp, -st], axis=-1)
        self.phi_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        self._per_m = {}

    def _legendre(self, m: int):
        """pbar_tau_pi(nmax, m, theta) and e^{i m phi}, computed once per m >= 0."""
        if m not in self._per_m:
            self._per_m[m] = (pbar_tau_pi(self.nmax, m, self.theta),
                              np.exp(1j * m * self.phi)[..., None])
        return self._per_m[m]

    def __call__(self, n: int, m: int):
        ma = abs(m)
        (pbar, tau, pi), eimp = self._legendre(ma)
        idx = n - ma
        root = math.sqrt(n * (n + 1.0))
        pb = pbar[idx][..., None]
        ta = (tau[idx] / root)[..., None]
        pp = (pi[idx] / root)[..., None]
        radial = pb * eimp * self.xhat
        grad = eimp * (ta * self.theta_hat + 1j * pp * self.phi_hat)
        rot = eimp * (-1j * pp * self.theta_hat + ta * self.phi_hat)
        triple = (radial, grad, rot)
        return triple if m >= 0 else _mirror(ma, triple)


def vsh_table(nmax: int, theta, phi) -> dict:
    """All orthonormal triples for 1 <= n <= nmax, |m| <= n on point arrays.

    Returns {(n, m): (radial, gradient_tangent, rotated_tangent)} with each
    field of shape theta.shape + (3,).  Much faster than repeated vsh() calls.
    """
    stream = VshStream(nmax, theta, phi)
    out = {}
    for m in range(0, nmax + 1):
        for n in range(max(1, m), nmax + 1):
            out[(n, m)] = stream(n, m)
            if m > 0:
                out[(n, -m)] = _mirror(m, out[(n, m)])
    return out


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared between callers, so they are read-only.
    """
    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def sphere_rule(ntheta: int):
    """Product quadrature on the unit sphere: ntheta Gauss-Legendre nodes in
    cos(theta) times the 2*ntheta-point trapezoid rule in phi.

    Exact for spherical polynomials of degree < 2*ntheta.
    Returns (points (N,3), weights (N,), theta (N,), phi (N,)); the weights
    sum to 4*pi.
    """
    nphi = 2 * ntheta
    xs, ws = gauss_legendre(ntheta)
    theta = np.arccos(xs)
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    wg = np.repeat(ws[:, None], nphi, axis=1) * (2.0 * math.pi / nphi)
    st = np.sin(tg)
    pts = np.stack([st * np.cos(pg), st * np.sin(pg), np.cos(tg)], axis=-1)
    return (pts.reshape(-1, 3), wg.reshape(-1), tg.reshape(-1), pg.reshape(-1))
