"""The transformed coefficient matrices and their structural bounds.

K_n is the determinant-normalized Jacobian of the composed map; conjugating
the pulled-back coefficients by it yields M_n = K_n A_n K_n^t, whose value at
the anchor image collapses to gamma * blockdiag(I_2, n^2 rhat^(2n-2)) because
H whitens the anchor matrix.  The three structural bounds verified here are
what make the weighted estimates uniform in the fold parameter.
The maps take a point (3,) or a stack (..., 3), and each point of a stack
gets the bits of a call on its own: the stacked products make one BLAS
matrix-vector or dot product per point, as the product of one point does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fold import _polar
from .frame import ConformalFrame


def kn_matrix(frame: ConformalFrame, n: float, x) -> np.ndarray:
    """K_n(x) = gamma^(1/2) Ktilde_n(x) H at points of the folded domain."""
    rhat, theta = _polar(x)
    if np.any(rhat == 0.0):
        raise ValueError("K_n singular on the planar axis")
    c = np.cos((n - 1.0) * theta)
    s = np.sin((n - 1.0) * theta)
    ktil = np.zeros(np.shape(rhat) + (3, 3))
    ktil[..., 0, 0], ktil[..., 0, 1] = c, s
    ktil[..., 1, 0], ktil[..., 1, 1] = -s, c
    ktil[..., 2, 2] = n * np.float_power(rhat, n - 1.0)
    return math.sqrt(frame.gamma) * ktil @ frame.h


def pushed_matrix(frame: ConformalFrame, n: float, m_field, x) -> np.ndarray:
    """M_n(x) = K_n(x) M(T_n^{-1} x) K_n(x)^t; `m_field` maps a stack of
    points (..., 3) to its matrices (..., 3, 3)."""
    kn = kn_matrix(frame, n, x)
    a_n = np.asarray(m_field(frame.t_inverse(n, x)), dtype=float)
    return kn @ a_n @ np.swapaxes(kn, -1, -2)


def anchor_block(frame: ConformalFrame, n: float, x) -> np.ndarray:
    """gamma * blockdiag(I_2, n^2 rhat^(2n-2)): the exact anchor value of M_n."""
    rhat, _ = _polar(x)
    out = np.zeros(np.shape(rhat) + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = 1.0
    out[..., 2, 2] = np.float_power(n * np.float_power(rhat, n - 1.0), 2)
    return frame.gamma * out


def _stencil(x: np.ndarray, h: float) -> np.ndarray:
    """x, then x + h e_k, then x - h e_k (k = 0, 1, 2), along a new axis -2."""
    return x[..., None, :] + h * np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])


def _derivatives(ms: np.ndarray, h: float):
    """M(x) and gm[..., k, :, :] = d_k M(x) from M on the stencil of x."""
    return ms[..., 0, :, :], (ms[..., 1:4, :, :] - ms[..., 4:, :, :]) / (2 * h)


def _mv(a, v):
    return (a @ v[..., None])[..., 0]


def _dot(u, v):
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _bquad(m, gm, x, y):
    """<B(x) y, y> from M(x) and its derivatives gm (see `_derivatives`)."""
    my = _mv(m, y)
    mx = _mv(m, x)
    # term 1: directional derivative of w(x) = M(x) x along My
    # (J w)_{ij} = d_j (M x)_i = M_ij + sum_k d_j M_ik x_k
    jw = m + np.einsum("...jik,...k->...ij", gm, x)
    t1 = _dot(y, _mv(jw, my))
    # term 2: div(Mx) = tr M + sum_k (d_k M x)_k
    dk = _dot(np.swapaxes(np.diagonal(gm, axis1=-3, axis2=-2), -1, -2),
              x[..., None, :])
    div_mx = np.trace(m, axis1=-2, axis2=-1) + (dk[..., 0] + dk[..., 1] + dk[..., 2])
    t2 = 0.5 * div_mx * _dot(y, my)
    # term 3: ((Mx).grad M) as a matrix acting on y
    dm_along = np.einsum("...k,...kij->...ij", mx, gm)
    t3 = 0.5 * _dot(y, _mv(dm_along, y))
    return t1 + t2 + t3


def bform(m_field, x, y, h: float = 1e-6):
    """<B(x) y, y> assembled from the three derivative terms.

    B y.y = <[(My).grad](Mx), y> + (1/2) div(Mx) <My, y>
          + (1/2) <[(Mx).grad M] y, y>.
    `m_field` maps (..., 3) to (..., 3, 3); one call on the seven-point
    stencil of x gives M and its central differences of step h.
    """
    x = np.asarray(x, dtype=float)
    m, gm = _derivatives(np.asarray(m_field(_stencil(x, h)), dtype=float), h)
    return _bquad(m, gm, x, np.asarray(y, dtype=float))


@dataclass(frozen=True)
class ClaimBounds:
    """Tightest constants making the three structural bounds hold on samples."""

    lower: float       # claim 0:  <M x, x> >= lower^{-1} |x|^2
    drift: float       # claim 1:  |div(Mx)| + |x|^{-2} |grad(x.Mx).Mx|
    bquad: float       # claim 2:  |<B y, y>| / <M y, y>

    @property
    def overall(self) -> float:
        return max(self.lower, self.drift, self.bquad)


def sample_folded_sector(frame: ConformalFrame, n: float, count: int,
                         rng) -> np.ndarray:
    """Points of the folded sector (rhat in (1/(4n), 2/n), |theta| < pi/(2n)),
    each from one draw of (rhat, theta, x3 offset)."""
    lo = [1.0 / (4.0 * n) * 1.01, -math.pi / (2.0 * n), -1.0 / n]
    hi = [2.0 / n * 0.99, math.pi / (2.0 * n), 1.0 / n]
    rhat, th, dz = rng.uniform(lo, hi, size=(count, 3)).T
    return np.stack([rhat * np.cos(th), rhat * np.sin(th),
                     frame.big_z0[2] + dz], axis=-1)


def sample_transformed_domain(frame: ConformalFrame, n: float, count: int,
                              rng) -> np.ndarray:
    """Points of the shifted folded domain O_n = B_lam cap (T_n - hatZ0).

    Membership: the unshifted point must lie in the folded sector
    (rhat in (1/(4n), 2/n), |theta| < pi/(2n)) and within B_lam of hatZ0,
    lam = 31/(24 n).
    Nonemptiness needs the fold large relative to the ellipticity bound,
    n >= 10 Lambda.
    """
    if n < 10.0 * frame.lam_bound:
        raise ValueError("the shifted domain needs n >= 10 Lambda")
    lam = 31.0 / (24.0 * n)
    hz = frame.hat_z0(n)
    out = []
    tries = 0
    while len(out) < count and tries < 2000 * count:
        tries += 1
        rhat = rng.uniform(1.0 / (4.0 * n), 2.0 / n)
        th = rng.uniform(-math.pi / (2.0 * n), math.pi / (2.0 * n))
        x3 = hz[2] + rng.uniform(-lam, lam)
        x = np.array([rhat * math.cos(th), rhat * math.sin(th), x3])
        y = x - hz
        if np.linalg.norm(y) < lam:
            out.append(y)
    if len(out) < count:
        raise RuntimeError("sampler failed to fill the shifted domain")
    return np.asarray(out)


def verify_structural_claims(frame: ConformalFrame, n: float, m_field,
                             count: int = 120, seed: int = 0) -> ClaimBounds:
    """Measured constants of the three bounds on `count` sampled points of
    the shifted domain, with central differences of step 1e-5 / n^2.

    `m_field` maps (..., 3) to (..., 3, 3).  One `pushed_matrix` call on the
    seven-point stencils of all samples serves all three claims.
    The point of the construction is that these stay bounded as the fold
    parameter grows; the caller sweeps n and checks flatness.
    """
    rng = np.random.default_rng(seed)
    y = sample_transformed_domain(frame, n, count, rng)
    h = 1e-5 / (n * n)
    dirs = rng.standard_normal((6, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = _stencil(y, h)
    ms = pushed_matrix(frame, n, m_field, pts + frame.hat_z0(n))
    m, gm = _derivatives(ms, h)
    quad = _dot(y, _mv(m, y))
    if np.any(quad <= 0):
        return ClaimBounds(lower=math.inf, drift=math.inf, bquad=math.inf)
    yy = _dot(y, y)
    # div(M x) and grad(x . M x) . M x by central differences on the stencil
    mx = _mv(ms, pts)
    dk = np.diagonal(mx[:, 1:4] - mx[:, 4:], axis1=-2, axis2=-1) / (2 * h)
    xmx = _dot(pts, mx)
    grad_q = (xmx[:, 1:4] - xmx[:, 4:]) / (2 * h)
    drift = np.max(np.abs(dk[:, 0] + dk[:, 1] + dk[:, 2])
                   + np.abs(_dot(grad_q, _mv(m, y))) / yy)
    # |<B d, d>| / <M d, d> over the six directions d at every sample
    bq = _bquad(m[:, None], gm[:, None], y[:, None], dirs)
    bquad = np.max(np.abs(bq) / _dot(dirs, _mv(m[:, None], dirs)))
    return ClaimBounds(lower=float(np.max(yy / quad)), drift=drift, bquad=bquad)


def constant_field(matrix):
    """The field equal to `matrix` at every point of a stack (..., 3)."""
    m = np.asarray(matrix, dtype=float)
    return lambda x: np.broadcast_to(m, np.shape(x)[:-1] + (3, 3))


def lipschitz_test_field(lam: float):
    """A fixed anisotropic Lipschitz medium with eigenvalues in [1/lam, lam].

    M(x) = c0 I + c1 * [sin/cos modulation on two symmetric directions];
    the amplitude is chosen so both the eigenvalue window and the gradient
    bound hold with constant lam.  The field maps (..., 3) to (..., 3, 3).
    """
    if lam <= 1:
        raise ValueError("lam must exceed 1 for a nonconstant test field")
    mid = 0.5 * (lam + 1.0 / lam)
    amp = 0.45 * (lam - 1.0 / lam) / 2.0
    amp = min(amp, 0.9 * lam / 2.0)   # keep |grad M| <= lam
    b1 = np.outer([1.0, 0, 0], [1.0, 0, 0]) - np.outer([0, 1.0, 0], [0, 1.0, 0])
    b2 = (np.outer([1.0, 0, 0], [0, 1.0, 0]) + np.outer([0, 1.0, 0], [1.0, 0, 0])) / 2

    def field(x):
        x = np.asarray(x, dtype=float)
        s1 = np.sin(x[..., 0] + 0.5 * x[..., 2])[..., None, None]
        s2 = np.cos(x[..., 1] - 0.3 * x[..., 0])[..., None, None]
        return mid * np.eye(3) + amp * (s1 * b1 + s2 * b2)

    return field
