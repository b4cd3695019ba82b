"""Pointwise field evaluation, reflected fields, and the singularity-removing glue."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..media.maps import SmoothMap
from ..media.pushforward import push_forward_tensor
from ..specfun.vsh import sphere_rule, vsh_table
from .modes import TE, h_jump_factor
from .solver import FieldSolution, RegionCoeffs, RegionSpec


def mode_radial_components(reg: RegionSpec, pol: str, coeffs: RegionCoeffs,
                           n: int, r, omega: float):
    """Six radial component functions of the unit radial solve at radii r.

    Returns (E_Y, E_U, E_V, H_Y, H_U, H_V) as plain complex arrays: the
    coefficients of Y xhat, Utilde, Vtilde in the expansion of E and H.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return _radial_components(reg, pol, n, r, omega, *coeffs.radial(r))


def _radial_components(reg: RegionSpec, pol: str, n: int, r: np.ndarray,
                       omega: float, u, du):
    """`mode_radial_components` from u(r) and du/dr at an array of radii."""
    inv_r = 1.0 / r
    curlish = (du + u * inv_r).to_complex()
    uval = u.to_complex()
    root = math.sqrt(n * (n + 1.0))
    zero = np.zeros_like(uval)
    if pol == TE:
        e_y, e_u, e_v = zero, zero, uval
        h_y = 1j * root / (omega * reg.mu_rad) * uval * inv_r
        h_u = 1j / (omega * reg.mu_tan) * curlish
        h_v = zero
    else:
        h_y, h_u, h_v = zero, zero, uval
        e_y = -1j * root / (omega * reg.eps_rad) * uval * inv_r
        e_u = -1j / (omega * reg.eps_tan) * curlish
        e_v = zero
    return e_y, e_u, e_v, h_y, h_u, h_v


def eval_field_many(sol: FieldSolution, points) -> tuple[np.ndarray, np.ndarray]:
    """(E, H) at an (N, 3) array of points, vectorized per region and mode."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    if np.any(r <= 0):
        raise ValueError("evaluation requires |x| > 0")
    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    table = vsh_table(sol.n_max, theta, phi)
    e_out = np.zeros((len(pts), 3), dtype=complex)
    h_out = np.zeros((len(pts), 3), dtype=complex)
    region_of = np.array([sol.region_index(float(ri)) for ri in r])
    for idx in np.unique(region_of):
        sel = region_of == idx
        rsub = r[sel]
        comp_cache = {}
        bases = {}      # modes of equal order and wavenumber share a basis
        for key, amp in sol.amplitudes.items():
            ck = (key.n, key.pol)
            if ck not in comp_cache:
                rsolve = sol.radial[ck]
                coeffs = rsolve.coeffs[idx]
                bk = (coeffs.nu, coeffs.k, coeffs.outgoing)
                if bk not in bases:
                    bases[bk] = coeffs.basis(rsub)
                comp_cache[ck] = _radial_components(
                    rsolve.regions[idx], key.pol, key.n, rsub, sol.omega,
                    *coeffs.combine(bases[bk]))
            e_y, e_u, e_v, h_y, h_u, h_v = comp_cache[ck]
            mult = amp * h_jump_factor(key.pol)
            rad, grad, rot = (v[sel] for v in table[(key.n, key.m)])
            e_out[sel] += mult * (e_y[:, None] * rad + e_u[:, None] * grad
                                  + e_v[:, None] * rot)
            h_out[sel] += mult * (h_y[:, None] * rad + h_u[:, None] * grad
                                  + h_v[:, None] * rot)
    return e_out, h_out


def eval_field(sol: FieldSolution, x) -> tuple[np.ndarray, np.ndarray]:
    """(E, H) at a point; exactly on a breakpoint the inside limit is used."""
    e, h = eval_field_many(sol, np.asarray(x, dtype=float)[None, :])
    return e[0], h[0]


def field_evaluator(sol: FieldSolution):
    return lambda x: eval_field(sol, x)


def reflect_solution(evaluator, mapping: SmoothMap, region=None):
    """Push a field evaluator forward covariantly through a diffeomorphism.

    Returns y -> (grad T^{-t}(x) E(x), grad T^{-t}(x) H(x)) at x = T^{-1}(y).
    `region` is an optional membership predicate for x; violations raise.
    """
    if isinstance(evaluator, FieldSolution):
        evaluator = field_evaluator(evaluator)

    def reflected(y):
        x = mapping.inverse(np.asarray(y, dtype=float))
        if region is not None and not region(x):
            raise ValueError(f"pullback point {x} outside the declared region")
        e, h = evaluator(x)
        jt = mapping.jacobian(x).T
        return np.linalg.solve(jt, e), np.linalg.solve(jt, h)

    return reflected


def fd_curl(evaluator, x, component: int, h: float = 1e-4) -> np.ndarray:
    """Five-point finite-difference curl of field component 0 = E or 1 = H."""
    x = np.asarray(x, dtype=float)

    def f(p):
        return evaluator(p)[component]

    grad = []
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        grad.append((-f(x + 2 * dx) + 8 * f(x + dx)
                     - 8 * f(x - dx) + f(x - 2 * dx)) / (12 * h))
    g = np.array(grad)  # g[k][i] = d_k F_i
    return np.array([g[1][2] - g[2][1], g[2][0] - g[0][2], g[0][1] - g[1][0]])


@dataclass
class GluedReport:
    jump_rel_r2: float
    jump_rel_r3: float
    maxwell_resid_norm: float
    forcing_norm: float
    forcing_rel_deviation: float

    @property
    def resid_over_forcing(self) -> float:
        return self.maxwell_resid_norm / max(self.forcing_norm, 1e-300)


class GluedField:
    """The piecewise field that removes the localized singularity.

    Outside the matched annulus it coincides with the raw solution; in the
    annulus D the difference of the two reflections is subtracted; inside it
    equals the doubly reflected field.
    """

    def __init__(self, sol: FieldSolution, f_map: SmoothMap, g_map: SmoothMap,
                 r1: float, r2: float, r3: float):
        self.sol = sol
        self.omega = sol.omega
        self.f_map = f_map
        self.g_map = g_map
        self.r1, self.r2, self.r3 = r1, r2, r3
        self._base = field_evaluator(sol)

    def _refl1_many(self, ys):
        """First reflection (through F) at an (N, 3) array of points."""
        ys = np.atleast_2d(ys)
        xs = np.array([self.f_map.inverse(y) for y in ys])
        e, h = eval_field_many(self.sol, xs)
        for i, x in enumerate(xs):
            jt = self.f_map.jacobian(x).T
            e[i] = np.linalg.solve(jt, e[i])
            h[i] = np.linalg.solve(jt, h[i])
        return e, h

    def _refl2_many(self, ys):
        """Second reflection (through G after F), valid inside B_{r3}."""
        ys = np.atleast_2d(ys)
        xg = np.array([self.g_map.inverse(y) for y in ys])
        e, h = self._refl1_many(xg)
        for i, x in enumerate(xg):
            jt = self.g_map.jacobian(x).T
            e[i] = np.linalg.solve(jt, e[i])
            h[i] = np.linalg.solve(jt, h[i])
        return e, h

    def eval_many(self, ys) -> tuple[np.ndarray, np.ndarray]:
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        r = np.linalg.norm(ys, axis=1)
        e = np.zeros((len(ys), 3), dtype=complex)
        h = np.zeros((len(ys), 3), dtype=complex)
        outside = r > self.r3
        annulus = (r > self.r2) & ~outside
        core = ~outside & ~annulus
        if np.any(outside):
            e[outside], h[outside] = eval_field_many(self.sol, ys[outside])
        if np.any(annulus):
            e0, h0 = eval_field_many(self.sol, ys[annulus])
            e1, h1 = self._refl1_many(ys[annulus])
            e2, h2 = self._refl2_many(ys[annulus])
            e[annulus] = e0 - e1 + e2
            h[annulus] = h0 - h1 + h2
        if np.any(core):
            e[core], h[core] = self._refl2_many(ys[core])
        return e, h

    def eval(self, y) -> tuple[np.ndarray, np.ndarray]:
        e, h = self.eval_many(np.asarray(y, dtype=float)[None, :])
        return e[0], h[0]

    def _branch_difference(self, radius: float, which: str, quad_order: int):
        """Tangential trace jump of the glued field across a gluing sphere.

        At r2 the jump reduces to the traces of (field - first reflection);
        at r3 to those of (first - second reflection); both vanish exactly in
        the continuum because the reflections fix their spheres pointwise.
        """
        pts, w, _, _ = sphere_rule(quad_order)
        ys = radius * pts
        if which == "r2":
            ea, ha = eval_field_many(self.sol, ys)
            eb, hb = self._refl1_many(ys)
        else:
            ea, ha = self._refl1_many(ys)
            eb, hb = self._refl2_many(ys)
        num = 0.0
        den = 0.0
        for va, vb in ((ea, eb), (ha, hb)):
            proj = np.sum(va * pts, axis=1)[:, None] * pts
            ta = va - proj
            tb = vb - np.sum(vb * pts, axis=1)[:, None] * pts
            num += float(np.sum(w * np.sum(np.abs(ta - tb) ** 2, axis=1)))
            den += float(np.sum(w * np.sum(np.abs(ta) ** 2, axis=1)))
        return math.sqrt(num / max(den, 1e-300))

    def residual_report(self, sample_radii, quad_order: int = 24,
                        points_per_radius: int = 4, h: float = 1e-4,
                        seed: int = 0) -> GluedReport:
        """Jump residuals plus the interior Maxwell residual in D.

        The glued field must satisfy curl E = i omega H + delta omega F_* I H1
        in D (vacuum background there), so the finite-difference residual is
        compared against that predicted forcing.
        """
        jump2 = self._branch_difference(self.r2, "r2", quad_order)
        jump3 = self._branch_difference(self.r3, "r3", quad_order)
        rng = np.random.default_rng(seed)
        samples = []
        for r in sample_radii:
            if not (self.r2 + 4 * h < r < self.r3 - 4 * h):
                continue
            for _ in range(points_per_radius):
                d = rng.standard_normal(3)
                d /= np.linalg.norm(d)
                samples.append(r * d)
        if not samples:
            raise ValueError("no usable sample radii in the gluing annulus")
        ys = np.array(samples)
        n = len(ys)
        # one batch for all stencil points: center + four shifts per axis
        stencil = [ys]
        for k in range(3):
            for sgn in (2.0, 1.0, -1.0, -2.0):
                shifted = ys.copy()
                shifted[:, k] += sgn * h
                stencil.append(shifted)
        e_all, h_all = self.eval_many(np.vstack(stencil))
        e_c, h_c = e_all[:n], h_all[:n]
        curls = np.zeros((n, 3), dtype=complex)

        def block(idx):
            return e_all[idx * n:(idx + 1) * n]

        # five-point derivative d_k E from blocks (+2h, +h, -h, -2h)
        de = [(-block(1 + 4 * k) + 8 * block(2 + 4 * k)
               - 8 * block(3 + 4 * k) + block(4 + 4 * k)) / (12 * h)
              for k in range(3)]
        curls[:, 0] = de[1][:, 2] - de[2][:, 1]
        curls[:, 1] = de[2][:, 0] - de[0][:, 2]
        curls[:, 2] = de[0][:, 1] - de[1][:, 0]
        resid = curls - 1j * self.omega * h_c
        _, h1 = self._refl1_many(ys)
        delta = self.sol.medium.provenance.get("delta", 0.0)
        predicted = np.empty_like(resid)
        for i, y in enumerate(ys):
            fstar = push_forward_tensor(self.f_map, np.eye(3), y)
            predicted[i] = delta * self.omega * (fstar @ h1[i])
        resid_sq = float(np.mean(np.sum(np.abs(resid) ** 2, axis=1)))
        forcing_sq = float(np.mean(np.sum(np.abs(predicted) ** 2, axis=1)))
        dev_sq = float(np.mean(np.sum(np.abs(resid - predicted) ** 2, axis=1)))
        return GluedReport(
            jump_rel_r2=jump2,
            jump_rel_r3=jump3,
            maxwell_resid_norm=math.sqrt(resid_sq),
            forcing_norm=math.sqrt(forcing_sq),
            forcing_rel_deviation=math.sqrt(dev_sq / max(forcing_sq, 1e-300)),
        )


def remove_localized_singularity(sol: FieldSolution, f_map: SmoothMap,
                                 g_map: SmoothMap,
                                 geometry: dict | None = None) -> GluedField:
    """Build the glued field for a doubly complementary solve.

    `geometry` may override the radii; by default they come from the medium's
    constructor provenance.  The degenerate vacuum case (r1=r2=r3 absent)
    is rejected.
    """
    prov = sol.medium.provenance
    geo = geometry if geometry is not None else prov
    try:
        r1, r2, r3 = geo["r1"], geo["r2"], geo["r3"]
    except KeyError as exc:
        raise ValueError("geometry needs radii r1 < r2 < r3") from exc
    if not (0 < r1 < r2 < r3):
        raise ValueError("geometry needs 0 < r1 < r2 < r3")
    if geometry is None:
        bps = {round(b, 12) for b in sol.medium.breakpoints}
        for r in (r1, r2):
            if round(r, 12) not in bps:
                raise ValueError(f"gluing radius {r} is not a medium breakpoint")
    return GluedField(sol, f_map, g_map, r1, r2, r3)
