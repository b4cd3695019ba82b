"""The transformed coefficient matrices and their structural bounds.

K_n is the determinant-normalized Jacobian of the composed map; conjugating
the pulled-back coefficients by it yields M_n = K_n A_n K_n^t, whose value at
the anchor image collapses to gamma * blockdiag(I_2, n^2 rhat^(2n-2)) because
H whitens the anchor matrix.  The three structural bounds verified here are
what make the weighted estimates uniform in the fold parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fold import _polar
from .frame import ConformalFrame


def kn_matrix(frame: ConformalFrame, n: float, x) -> np.ndarray:
    """K_n(x) = gamma^(1/2) Ktilde_n(x) H at a point of the folded domain."""
    x = np.asarray(x, dtype=float)
    rhat, theta = _polar(x)
    if rhat == 0.0:
        raise ValueError("K_n singular on the planar axis")
    c = math.cos((n - 1.0) * theta)
    s = math.sin((n - 1.0) * theta)
    ktil = np.zeros((3, 3))
    ktil[0, 0], ktil[0, 1] = c, s
    ktil[1, 0], ktil[1, 1] = -s, c
    ktil[2, 2] = n * rhat ** (n - 1.0)
    return math.sqrt(frame.gamma) * ktil @ frame.h


def pushed_matrix(frame: ConformalFrame, n: float, m_field, x) -> np.ndarray:
    """M_n(x) = K_n(x) M(T_n^{-1} x) K_n(x)^t."""
    kn = kn_matrix(frame, n, x)
    a_n = np.asarray(m_field(frame.t_inverse(n, x)), dtype=float)
    return kn @ a_n @ kn.T


def anchor_block(frame: ConformalFrame, n: float, x) -> np.ndarray:
    """gamma * blockdiag(I_2, n^2 rhat^(2n-2)): the exact anchor value of M_n."""
    rhat, _ = _polar(np.asarray(x, dtype=float))
    out = np.diag([1.0, 1.0, (n * rhat ** (n - 1.0)) ** 2])
    return frame.gamma * out


def bform(m_field, x, y, h: float = 1e-6) -> float:
    """<B(x) y, y> assembled from the three derivative terms.

    B y.y = <[(My).grad](Mx), y> + (1/2) div(Mx) <My, y>
          + (1/2) <[(Mx).grad M] y, y>.
    Derivatives of the field are central differences with step h.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = np.asarray(m_field(x), dtype=float)
    gm = np.empty((3, 3, 3))       # gm[k] = d_k M
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        gm[k] = (np.asarray(m_field(x + dx), dtype=float)
                 - np.asarray(m_field(x - dx), dtype=float)) / (2 * h)
    my = m @ y
    mx = m @ x
    # term 1: directional derivative of w(x) = M(x) x along My
    # (J w)_{ij} = d_j (M x)_i = M_ij + sum_k d_j M_ik x_k
    jw = m + np.einsum("jik,k->ij", gm, x)
    t1 = y @ (jw @ my)
    # term 2: div(Mx) = tr M + sum_k (d_k M x)_k
    div_mx = np.trace(m) + sum(np.dot(gm[k][k, :], x) for k in range(3))
    t2 = 0.5 * div_mx * float(y @ my)
    # term 3: ((Mx).grad M) as a matrix acting on y
    dm_along = np.einsum("k,kij->ij", mx, gm)
    t3 = 0.5 * float(y @ (dm_along @ y))
    return float(t1) + t2 + t3


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
    """Points of the folded sector (rhat in (1/(4n), 2/n), |theta| < pi/(2n))."""
    pts = []
    for _ in range(count):
        rhat = rng.uniform(1.0 / (4.0 * n) * 1.01, 2.0 / n * 0.99)
        th = rng.uniform(-math.pi / (2.0 * n), math.pi / (2.0 * n))
        x3 = frame.big_z0[2] + rng.uniform(-1.0 / n, 1.0 / n)
        pts.append([rhat * math.cos(th), rhat * math.sin(th), x3])
    return np.asarray(pts)


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

    The point of the construction is that these stay bounded as the fold
    parameter grows; the caller sweeps n and checks flatness.
    """
    rng = np.random.default_rng(seed)
    samples = sample_transformed_domain(frame, n, count, rng)
    hz = frame.hat_z0(n)
    h = 1e-5 / (n * n)

    def m_hat(y):
        return pushed_matrix(frame, n, m_field, np.asarray(y) + hz)

    lower = 0.0
    drift = 0.0
    bquad = 0.0
    dirs = rng.standard_normal((6, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for y in samples:
        m = m_hat(y)
        quad = float(y @ (m @ y))
        if quad <= 0:
            return ClaimBounds(lower=math.inf, drift=math.inf, bquad=math.inf)
        lower = max(lower, float(np.dot(y, y)) / quad)
        # div(M x) and grad(x . M x) . M x by central differences on m_hat
        div_mx = 0.0
        grad_q = np.zeros(3)
        for k in range(3):
            dy = np.zeros(3)
            dy[k] = h
            mp_ = m_hat(y + dy)
            mm_ = m_hat(y - dy)
            yp, ym = y + dy, y - dy
            div_mx += ((mp_ @ yp)[k] - (mm_ @ ym)[k]) / (2 * h)
            grad_q[k] = (float(yp @ (mp_ @ yp)) - float(ym @ (mm_ @ ym))) / (2 * h)
        drift_term = abs(div_mx) + abs(float(grad_q @ (m @ y))) / float(np.dot(y, y))
        drift = max(drift, drift_term)
        for d in dirs:
            quad_d = float(d @ (m @ d))
            b_val = bform(m_hat, y, d, h=h)
            bquad = max(bquad, abs(b_val) / quad_d)
    return ClaimBounds(lower=lower, drift=drift, bquad=bquad)


def constant_field(matrix):
    m = np.asarray(matrix, dtype=float)
    return lambda x: m


def lipschitz_test_field(lam: float):
    """A fixed anisotropic Lipschitz medium with eigenvalues in [1/lam, lam].

    M(x) = c0 I + c1 * [sin/cos modulation on two symmetric directions];
    the amplitude is chosen so both the eigenvalue window and the gradient
    bound hold with constant lam.
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
        s1 = math.sin(x[0] + 0.5 * x[2])
        s2 = math.cos(x[1] - 0.3 * x[0])
        return mid * np.eye(3) + amp * (s1 * b1 + s2 * b2)

    return field
