"""The aligned orthogonal frame behind the folded change of variables.

Given the coefficient matrix at the anchor point, the linear factor
H = Q1 S Q^t whitens it (H M0 H^t = I) while keeping the half-space and the
axis plane invariant: Q diagonalizes M0, S = diag(eigenvalues^{-1/2}), and
the rotation Q1 is pinned by requiring its first row parallel to
S^{-1} Q^t e1 and its first two rows orthogonal to S Q^t (axis plane).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fold import fold_map, fold_map_inverse


@dataclass(frozen=True)
class ConformalFrame:
    q: np.ndarray
    s: np.ndarray
    q1: np.ndarray
    h: np.ndarray
    lams: np.ndarray
    big_z0: np.ndarray        # image (0, 0, Z3) of the anchor (0, 0, z3)
    lam_bound: float          # ellipticity constant Lambda
    gamma: float              # 1/|det H| = sqrt(det M0), positive and finite

    def hat_z0(self, n: float) -> np.ndarray:
        """Shifted center (1/n, 1/n + Lambda pi/(2n^2), Z3)."""
        off = np.array([1.0 / n,
                        1.0 / n + self.lam_bound * math.pi / (2.0 * n * n),
                        0.0])
        return self.big_z0 + off

    def t_inverse(self, n: float, y) -> np.ndarray:
        """T_n^{-1} = H^{-1} o fold^{-1} at a point (3,) or a stack (..., 3)."""
        return np.linalg.solve(self.h, fold_map_inverse(n, y)[..., None])[..., 0]

    def t_jacobian(self, n: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        _, jl = fold_map(n, self.h @ x)
        return jl @ self.h


def build_frame(m0, z3: float = 0.0, lam: float | None = None) -> ConformalFrame:
    """Frame from a symmetric positive-definite 3x3 anchor matrix.

    The rotation completing Q1 beyond its pinned first row is resolved by
    Gram-Schmidt against the standard basis (lexicographic completion) so
    runs are reproducible.  Raises FloatingPointError, a numerical guard,
    when gamma = 1/|det H| is not a positive finite float.
    """
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (3, 3) or np.max(np.abs(m0 - m0.T)) > 1e-12 * max(1, np.max(np.abs(m0))):
        raise ValueError("anchor matrix must be symmetric 3x3")
    lams, q = np.linalg.eigh(m0)
    if lams[0] <= 0:
        raise ValueError("anchor matrix must be positive definite")
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    if lam is None:
        lam = max(lams[-1], 1.0 / lams[0], 1.0)
    s = np.diag(lams ** -0.5)
    s_inv = np.diag(lams ** 0.5)
    # row 1 of Q1: S^{-1} Q^t e1 normalized; rows 1,2 must be orthogonal to
    # the image of the axis plane span{S Q^t e3}
    w1 = s_inv @ q.T @ np.array([1.0, 0.0, 0.0])
    w1 = w1 / np.linalg.norm(w1)
    w3 = s @ q.T @ np.array([0.0, 0.0, 1.0])
    w3 = w3 / np.linalg.norm(w3)
    # lexicographic completion: Gram-Schmidt the first standard vector that
    # survives projection out of span{w1, w3}
    row2 = None
    for e in np.eye(3):
        cand = e - np.dot(e, w1) * w1 - np.dot(e, w3) * w3
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            row2 = cand / nrm
            break
    row3 = np.cross(w1, row2)
    q1 = np.vstack([w1, row2, row3])
    h = q1 @ s @ q.T
    # an anchor of extreme scale whitens to an H whose determinant under- or
    # overflows; every deviation measured through gamma would then be NaN
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        gamma = 1.0 / abs(np.linalg.det(h))
    if not 0.0 < gamma < math.inf:
        raise FloatingPointError(f"singular whitening: gamma = 1/|det H| = {float(gamma)}")
    hz = h @ np.array([0.0, 0.0, z3])     # image of the anchor (0, 0, z3)
    if np.hypot(hz[0], hz[1]) > 1e-10 * max(1.0, abs(z3)):
        raise AssertionError("frame alignment failed: axis image left the axis")
    big = np.array([0.0, 0.0, hz[2]])
    return ConformalFrame(q=q, s=s, q1=q1, h=h, lams=lams, big_z0=big,
                          lam_bound=float(lam), gamma=gamma)
