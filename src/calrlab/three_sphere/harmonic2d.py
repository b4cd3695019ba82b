"""Planar harmonic expansions, circle sup norms, and the three-circle check.

`sup_norms_circle` takes the sup norms of many (expansion, radius) rows in
stacks, one per frequency tuple, and every row keeps the bits of a one-row
call, which is `sup_norm_circle`.  Newton starts from each row's three
best grid points, more than 3 cells apart; they lie among the row's 15
largest grid values, so a partition finds them, not a full sort of the
row's 512 or more grid cells.  `check_hadamard` takes a list of items
and makes one stacked call for all of them; `three_sphere_suite` passes it
blocks of 256 polynomials (`scenarios._HADAMARD_BLOCK`), so its stacks, and
its memory, stay bounded whatever its `count`.
"""
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
# Newton starts from this many grid maxima per row, more than 3 cells apart.
_CANDIDATES = 3
# Each pick rules out itself and its 3 neighbours on either side, so the
# last pick lies among the row's 1 + 7 (_CANDIDATES - 1) = 15 largest cells.
_TOP = 1 + 7 * (_CANDIDATES - 1)


def _top_candidates(prof, n):
    """Per row of prof, the indices of the top `_CANDIDATES` values, greedily
    from the row's `_TOP` largest cells in descending order, ties to the
    lower index: a value is taken when it lies more than 3 cells
    (circularly) from every value taken before it."""
    top = np.argpartition(prof, n - _TOP, axis=1)[:, n - _TOP:]
    order = np.take_along_axis(
        top, np.lexsort((top, -np.take_along_axis(prof, top, axis=1))), axis=1)
    rows = np.arange(len(prof))
    free = np.ones(order.shape, dtype=bool)
    taken = []
    for _ in range(_CANDIDATES):
        idx = order[rows, np.argmax(free, axis=1)]
        taken.append(idx)
        gap = order - idx[:, None]
        np.abs(gap, out=gap)
        free &= (gap > 3) & (gap < n - 3)   # circularly more than 3 cells
    return np.stack(taken, axis=1)


def _grid_profile(ks, a, n):
    """|f| of every row on the n-point grid theta_j = 2 pi j / n, by one
    in-place inverse FFT of the rows' spectra."""
    spectrum = np.zeros((len(a), n), dtype=complex)
    # negative k wrap around to n + k
    spectrum[:, ks.astype(int) % n] += a
    return np.abs(np.fft.ifft(spectrum, norm="forward", axis=1, out=spectrum))


def _sup_norms_one_set(ks, a):
    """Sup norms of the trigonometric polynomials sum_k a[i, k] e^{ik theta},
    one per row of a, which share the frequencies ks."""
    kmax = int(np.abs(ks).max(initial=0))
    n = max(512, 64 * (kmax + 1))
    prof = _grid_profile(ks, a, n)
    best = prof.max(axis=1)
    # columns give f, f' and f'' at the points of one exp(1j theta k) matrix
    derivs = np.stack([a, 1j * ks * a, -ks * ks * a], axis=2)
    h = 2.0 * math.pi / n
    th = 2.0 * math.pi * _top_candidates(prof, n) / n
    lo, hi = th - h, th + h
    live = np.arange(len(a))
    for _ in range(_NEWTON_STEPS):
        f, df, d2f = (np.exp(1j * (th[:, :, None] * ks))
                      @ derivs[live]).transpose(2, 0, 1)
        best[live] = np.maximum(best[live], np.abs(f).max(axis=1))
        g1 = 2.0 * (f.conj() * df).real                     # (|f|^2)'
        g2 = 2.0 * (np.abs(df) ** 2 + (f.conj() * d2f).real)  # (|f|^2)''
        step = np.divide(-g1, g2, out=np.zeros_like(g1), where=g2 < 0.0)
        moved = np.clip(th + step, lo, hi)
        # a row whose candidates all moved by _NEWTON_TOL or less is done
        going = np.abs(moved - th).max(axis=1) > _NEWTON_TOL
        live, th, lo, hi = live[going], moved[going], lo[going], hi[going]
        if not live.size:
            break
    return best


def sup_norms_circle(rows) -> list:
    """L-infinity norms of v on |z| = radius, one per (v, radius) row, each
    to ~1e-10 relative.

    The trace on the circle is the trigonometric polynomial
    f(theta) = sum_k a_k e^{ik theta} with a = v.circle_coeffs(radius), for
    holomorphic and general expansions alike.  Rows whose traces have the
    same frequency tuple (in order) form one stack: one in-place FFT samples
    |f| of every row on a grid fine enough to locate its global maximum,
    `_top_candidates` picks each row's best grid points from its 15 largest
    grid values (one partition per stack, no full sort), and safeguarded
    Newton steps on |f|^2, kept inside one grid cell of each candidate, then
    polish them.  A row leaves the stack at the step where all its
    candidates have stopped moving.  A row's norm is the largest value seen
    on its grid or at a refined point.

    Every operation is elementwise or per row (the FFT along rows, the
    partition and sort of each row's 15 largest grid values, one matrix
    product per row), so a row's norm keeps the bits it has when
    computed alone: a one-row call is `sup_norm_circle`.
    """
    stacks = {}                 # frequency tuple -> (row positions, coefficients)
    for pos, (v, radius) in enumerate(rows):
        coeffs = v.circle_coeffs(radius)
        where, values = stacks.setdefault(tuple(coeffs), ([], []))
        where.append(pos)
        values.append(list(coeffs.values()))
    out = np.empty(sum(len(where) for where, _ in stacks.values()))
    for ks, (where, values) in stacks.items():
        out[where] = _sup_norms_one_set(np.array(ks, dtype=float),
                                        np.array(values, dtype=complex))
    return out.tolist()


def sup_norm_circle(v: HarmonicExpansion2D, radius: float) -> float:
    """L-infinity norm of v on |z| = radius: `sup_norms_circle` of one row."""
    return sup_norms_circle([(v, radius)])[0]


def _alpha(r1: float, r2: float, r3: float) -> float:
    """The interpolation exponent ln(r3/r2)/ln(r3/r1) of 0 < r1 < r2 < r3."""
    if not (0 < r1 < r2 < r3):
        raise ValueError("need 0 < r1 < r2 < r3")
    return math.log(r3 / r2) / math.log(r3 / r1)


def _interpolation(n1: float, n2: float, n3: float, alpha: float):
    """(lhs, rhs, alpha, ratio) of the three-radius interpolation of a norm
    with values n1, n2, n3 at radii r1 < r2 < r3 and alpha = `_alpha`:
    lhs = n2, rhs = n1^alpha n3^(1 - alpha), and ratio = lhs/rhs, the
    constant the field needs.  A zero field (lhs = rhs = 0) needs none and
    reads 0.0; lhs > 0 with rhs = 0 reads inf.
    """
    rhs = n1 ** alpha * n3 ** (1.0 - alpha)
    ratio = n2 / rhs if rhs > 0 else (math.inf if n2 > 0 else 0.0)
    return n2, rhs, alpha, ratio


def check_hadamard(items) -> list:
    """Three-circle interpolation of sup norms, one per (v, (r1, r2, r3))
    item with v holomorphic.

    Returns one (lhs, rhs, alpha, ratio) per item, with
    alpha = ln(R3/R2)/ln(R3/R1); ratio <= 1 for holomorphic input, with
    equality for monomials.  The zero function reads ratio 0.0 (see
    `_interpolation`).  Every input is checked before any norm is taken,
    and all 3 x len(items) norms come from one `sup_norms_circle` call.
    """
    items = list(items)
    alphas = []
    for v, radii in items:
        if not v.is_holomorphic:
            raise ValueError("the sup-norm interpolation needs a holomorphic input")
        alphas.append(_alpha(*radii))
    norms = sup_norms_circle((v, r) for v, radii in items for r in radii)
    return [_interpolation(*norms[3 * i:3 * i + 3], alpha)
            for i, alpha in enumerate(alphas)]
