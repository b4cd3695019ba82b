"""Planar harmonic expansions, circle sup norms, and the three-circle check."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HarmonicExpansion2D:
    """Finite combination of r^{|k|} e^{ik theta} and r^{-|k|} e^{ik theta}.

    `regular` holds the r^{|k|} coefficients, `singular` the r^{-|k|} ones,
    both keyed by the integer frequency k.
    """

    regular: dict = field(default_factory=dict)
    singular: dict = field(default_factory=dict)

    @classmethod
    def holomorphic(cls, coeffs) -> "HarmonicExpansion2D":
        """v(z) = sum_k c_k z^k from a coefficient sequence (k >= 0)."""
        return cls(regular={k: complex(c) for k, c in enumerate(coeffs)
                            if c != 0 or k == 0})

    @property
    def is_holomorphic(self) -> bool:
        return not self.singular and all(k >= 0 for k in self.regular)

    def value(self, r, theta) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
        for k, c in self.regular.items():
            out = out + c * r ** abs(k) * np.exp(1j * k * theta)
        for k, c in self.singular.items():
            out = out + c * r ** (-abs(k)) * np.exp(1j * k * theta)
        return out

    def circle_coeffs(self, radius: float) -> dict:
        """Fourier coefficients of the trace on |z| = radius."""
        out = {}
        for k, c in self.regular.items():
            out[k] = out.get(k, 0.0) + c * radius ** abs(k)
        for k, c in self.singular.items():
            out[k] = out.get(k, 0.0) + c * radius ** (-abs(k))
        return out


# Newton converges quadratically from within half a grid cell of a maximum,
# which is 1/128 of the shortest period or less at the default grid, so a
# handful of steps reach roundoff; a step below _NEWTON_TOL moves the value
# by far less than 1e-16 relative.
_NEWTON_STEPS = 12
_NEWTON_TOL = 1e-12


def _top_candidates(prof, theta, n, how_many=4):
    order = np.argsort(prof)[::-1]
    cands = []
    taken = []
    for idx in order:
        if all(min(abs(idx - t), n - abs(idx - t)) > 3 for t in taken):
            taken.append(idx)
            cands.append(theta[idx])
        if len(cands) >= how_many:
            break
    return np.asarray(cands)


def sup_norm_circle(v: HarmonicExpansion2D, radius: float) -> float:
    """L-infinity norm of v on |z| = radius to ~1e-10 relative.

    The trace on the circle is the trigonometric polynomial
    f(theta) = sum_k a_k e^{ik theta} with a = v.circle_coeffs(radius), for
    holomorphic and general expansions alike.  One FFT samples |f| on a grid
    fine enough to locate the global maximum; safeguarded Newton steps on
    |f|^2, kept inside one grid cell of each of the best candidates, then
    polish them.  The result is the largest value seen on the grid or at a
    refined point.
    """
    coeffs = v.circle_coeffs(radius)
    ks = np.fromiter(coeffs, dtype=float, count=len(coeffs))
    a = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
    kmax = int(np.abs(ks).max(initial=0))
    n = max(512, 64 * (kmax + 1))
    theta = 2.0 * math.pi * np.arange(n) / n
    spectrum = np.zeros(n, dtype=complex)
    # negative k wrap around to n + k
    np.add.at(spectrum, ks.astype(int) % n, a)
    prof = np.abs(np.fft.ifft(spectrum, norm="forward"))
    best = float(prof.max())
    # columns give f, f' and f'' at the points of one exp(1j theta k) matrix
    derivs = np.stack([a, 1j * ks * a, -ks * ks * a], axis=1)
    h = 2.0 * math.pi / n
    th = _top_candidates(prof, theta, n, how_many=3)
    lo, hi = th - h, th + h
    for _ in range(_NEWTON_STEPS):
        f, df, d2f = (np.exp(1j * np.outer(th, ks)) @ derivs).T
        best = max(best, float(np.abs(f).max()))
        g1 = 2.0 * (f.conj() * df).real                     # (|f|^2)'
        g2 = 2.0 * (np.abs(df) ** 2 + (f.conj() * d2f).real)  # (|f|^2)''
        step = np.divide(-g1, g2, out=np.zeros_like(g1), where=g2 < 0.0)
        moved = np.clip(th + step, lo, hi)
        if np.max(np.abs(moved - th)) <= _NEWTON_TOL:
            break
        th = moved
    return best


def _interpolation(norm, r1: float, r2: float, r3: float):
    """(lhs, rhs, alpha, ratio) of the three-radius interpolation of `norm`,
    a function of the radius: lhs = norm(r2), rhs = norm(r1)^alpha
    norm(r3)^(1 - alpha) with alpha = ln(r3/r2)/ln(r3/r1), and ratio =
    lhs/rhs, the constant the field needs.  A zero field (lhs = rhs = 0)
    needs none and reads 0.0; lhs > 0 with rhs = 0 reads inf.
    """
    if not (0 < r1 < r2 < r3):
        raise ValueError("need 0 < r1 < r2 < r3")
    alpha = math.log(r3 / r2) / math.log(r3 / r1)
    lhs = norm(r2)
    rhs = norm(r1) ** alpha * norm(r3) ** (1.0 - alpha)
    ratio = lhs / rhs if rhs > 0 else (math.inf if lhs > 0 else 0.0)
    return lhs, rhs, alpha, ratio


def check_hadamard(v: HarmonicExpansion2D, r1: float, r2: float, r3: float):
    """Three-circle interpolation of sup norms for a holomorphic v.

    Returns (lhs, rhs, alpha, ratio) with alpha = ln(R3/R2)/ln(R3/R1);
    ratio <= 1 for holomorphic input, with equality for monomials.  The
    zero function reads ratio 0.0 (see `_interpolation`).
    """
    if not v.is_holomorphic:
        raise ValueError("the sup-norm interpolation needs a holomorphic input")
    return _interpolation(lambda r: sup_norm_circle(v, r), r1, r2, r3)
