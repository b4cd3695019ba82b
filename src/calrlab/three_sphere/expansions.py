"""Scalar expansions on spherical annuli: Helmholtz and harmonic."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..specfun.bessel import sph_jy
from ..specfun.vsh import gauss_legendre, pbar_tau_pi

HELMHOLTZ = "helmholtz"
HARMONIC = "harmonic"


@dataclass(frozen=True)
class SphericalExpansion:
    """v = sum c_reg f_n(r) Y_n^m + c_sing g_n(r) Y_n^m on an annulus.

    kind "helmholtz": (f, g) = (j_n(omega r), y_n(omega r)), so
    Delta v + omega^2 v = 0 exactly; kind "harmonic": (r^n, r^{-n-1}).
    """

    kind: str
    coeffs: dict                      # (n, m) -> (c_reg, c_sing)
    omega: float = 1.0

    def __post_init__(self):
        if self.kind not in (HELMHOLTZ, HARMONIC):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == HELMHOLTZ and self.omega <= 0:
            raise ValueError("helmholtz expansion needs omega > 0")
        for (n, m) in self.coeffs:
            if n < 0 or abs(m) > n:
                raise ValueError(f"bad mode ({n}, {m})")

    @property
    def n_max(self) -> int:
        return max((n for n, _ in self.coeffs), default=0)

    def radial(self, n: int, r) -> tuple[np.ndarray, np.ndarray]:
        """(f_nm-combined radial factor, its r-derivative) for unit coefficients.

        Returns the pair of basis values (regular, singular) stacked as
        ((f, f'), (g, g')) evaluated on the r array.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.kind == HARMONIC:
            f = r ** n
            df = n * r ** (n - 1) if n > 0 else np.zeros_like(r)
            g = r ** (-n - 1)
            dg = -(n + 1) * r ** (-n - 2)
            return (f, df), (g, dg)
        vals = sph_jy(float(n), self.omega * r)
        f = vals["j"].to_complex().real
        df = self.omega * vals["dj"].to_complex().real
        g = vals["y"].to_complex().real
        dg = self.omega * vals["dy"].to_complex().real
        return (f, df), (g, dg)

    def _terms(self, r):
        """(n, m, radial factor, its r-derivative) of each coefficient on r."""
        cache = {}
        for (n, m), (c_reg, c_sing) in self.coeffs.items():
            if n not in cache:
                cache[n] = self.radial(n, r)
            (f, df), (g, dg) = cache[n]
            yield n, m, c_reg * f + c_sing * g, c_reg * df + c_sing * dg

    def value_and_gradient_many(self, points):
        """Vectorized (values, gradients) over an (N, 3) point array: the
        pointwise reference that `ring_density` is tested against."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        theta = np.arccos(np.clip(pts[:, 2] / r, -1, 1))
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        xhat = np.stack([st * cp, st * sp, ct], axis=-1)
        theta_hat = np.stack([ct * cp, ct * sp, -st], axis=-1)
        phi_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        vals = np.zeros(len(pts), dtype=complex)
        grads = np.zeros((len(pts), 3), dtype=complex)
        leg_cache = {}
        for n, m, fr, dfr in self._terms(r):
            if m not in leg_cache:
                leg_cache[m] = pbar_tau_pi(self.n_max, m, theta)
            pbar, tau, pi_m = leg_cache[m]
            idx = n - abs(m)
            eimp = np.exp(1j * m * phi)
            y = pbar[idx] * eimp
            vals += fr * y
            # grad = f' Y xhat + (f/r) grad_S Y
            gs = eimp[:, None] * (tau[idx][:, None] * theta_hat
                                  + 1j * pi_m[idx][:, None] * phi_hat)
            grads += (dfr * y)[:, None] * xhat + (fr / r)[:, None] * gs
        return vals, grads

    def ring_density(self, radius: float, legendre) -> np.ndarray:
        """Mean over phi of |v|^2 + |grad v|^2 on the circles |x| = radius
        at the polar angles theta of `legendre`, where `legendre(m)` is
        `pbar_tau_pi(N, m, theta)` for some N >= n_max.  The Legendre
        recurrence runs upward in n, so the rows read here do not depend
        on N, and one table serves every expansion of a family.  On the
        circles v, dv/dr, (1/r) dv/dtheta and (1/(r sin theta)) dv/dphi are
        sums A_m e^{i m phi}, so the mean is sum_m |A_m|^2."""
        amps = {}                     # m -> (pbar, tau, pi), the four A_m
        for n, m, fr, dfr in self._terms(radius):
            if m not in amps:
                table = legendre(m)
                amps[m] = (table, np.zeros((4,) + table[0].shape[1:], dtype=complex))
            (pbar, tau, pi_m), a = amps[m]
            idx = n - abs(m)
            a[0] += fr * pbar[idx]
            a[1] += dfr * pbar[idx]
            a[2] += fr / radius * tau[idx]
            a[3] += fr / radius * pi_m[idx]
        return sum(np.sum(np.abs(a) ** 2, axis=0) for _, a in amps.values())

    def annulus_norm_sq(self, a: float, b: float, include_gradient: bool) -> float:
        """Modal squared L2 (or H1 seminorm-augmented) norm on a < r < b, by
        64-point Gauss-Legendre quadrature in r."""
        nodes, weights = gauss_legendre(64)
        rr = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        wr = 0.5 * (b - a) * weights
        total = 0.0
        for n, _, fr, dfr in self._terms(rr):
            dens = np.abs(fr) ** 2
            if include_gradient:
                dens = dens + np.abs(dfr) ** 2 + n * (n + 1) * np.abs(fr / rr) ** 2
            total += float(np.sum(wr * dens * rr * rr))
        return total
