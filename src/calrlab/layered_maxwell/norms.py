"""Modal norms, far-field flux, and the lossy-layer energy functional.

Vector-harmonic orthonormality collapses every angular integral, so L2 norms
over annuli reduce to 1-D radial quadratures of the six component functions,
and the far-field power to a closed-form sum over outgoing coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..specfun.bessel import log_dfact_minus
from ..specfun.vsh import gauss_legendre
from .modes import TE
from .solver import FieldSolution, RegionCoeffs
from .fields import eval_field, mode_radial_components, _radial_components

_LN10 = math.log(10.0)
# Gauss-Legendre nodes per panel, and the relative agreement of two
# successive panel doublings at which a quadrature stops.
_GAUSS_ORDER = 16
_REL_TOL = 1e-8


def _panel_nodes(a: float, b: float, panels: int, nodes: np.ndarray):
    """Gauss nodes of `panels` equal panels of [a, b], one row per panel,
    and the panels' half-widths."""
    edges = np.linspace(a, b, panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * nodes, half


def adaptive_gauss(fn, a: float, b: float, max_doublings: int = 10) -> float:
    """Panel-doubling Gauss-Legendre quadrature of a vectorized integrand.

    fn gets a 2-d array of nodes, one row per panel, and must treat the rows
    as independent evaluations.  Each estimate makes one call, except that
    the first two, which every quadrature needs, share one.  Raises
    RuntimeError when two successive estimates still differ by more than
    _REL_TOL after max_doublings doublings.
    """
    if b <= a:
        return 0.0
    nodes, weights = gauss_legendre(_GAUSS_ORDER)
    x0, half0 = _panel_nodes(a, b, 1, nodes)
    x1, half1 = _panel_nodes(a, b, 2, nodes)
    first = fn(np.concatenate([x0, x1]))
    prev = None
    panels = 1
    for _ in range(max_doublings + 1):
        if panels == 1:
            half, values = half0, first[:1]
        elif panels == 2:
            half, values = half1, first[1:]
        else:
            x, half = _panel_nodes(a, b, panels, nodes)
            values = fn(x)
        total = 0.0
        for h, row in zip(half, values):
            total += h * float(np.sum(weights * row))
        if prev is not None and abs(total - prev) <= _REL_TOL * max(abs(total), 1e-300):
            return total
        prev = total
        panels *= 2
    raise RuntimeError(f"quadrature on [{a}, {b}] not converged after "
                       f"{max_doublings} doublings")


def _mode_weights(sol: FieldSolution) -> dict:
    """(n, pol) -> sum over m of |amplitude|^2 (the m-degeneracy collapse)."""
    w = {}
    for key, amp in sol.amplitudes.items():
        w[(key.n, key.pol)] = w.get((key.n, key.pol), 0.0) + abs(amp) ** 2
    return w


def _segments(sols, a: float, b: float):
    """[a, b] cut at every region boundary of the given solutions (regions
    are contiguous, so the outer radii are all the boundaries)."""
    cuts = sorted({a, b} | {reg.r_hi for sol in sols for reg in sol.regions
                            if a < reg.r_hi < b})
    return list(zip(cuts[:-1], cuts[1:]))


_UNIT_WEIGHTS = (1.0, 1.0, 1.0, 1.0)


def _modal_density(terms, comp, omega: float):
    """r -> r^2 sum over terms of w times the weighted squared components,
    row by row over a 2-d array of radii.

    `terms` holds one (w, region, pol, n, coefficients) per mode; `comp`
    weighs |E_Y|^2, |E_U|^2 + |E_V|^2, |H_Y|^2 and |H_U|^2 + |H_V|^2.
    """
    ey_w, et_w, hy_w, ht_w = comp

    def density(rows):
        # each row is one independent evaluation (a quadrature panel)
        rows = np.atleast_2d(rows)
        groups = np.repeat(np.arange(rows.shape[0]), rows.shape[1])
        r = rows.reshape(-1)
        out = np.zeros_like(r, dtype=float)
        bases = {}      # modes of equal order and wavenumber share a basis
        for w, reg, pol, n, coeffs in terms:
            bk = (coeffs.nu, coeffs.k, coeffs.outgoing)
            if bk not in bases:
                bases[bk] = coeffs.basis(r, groups)
            e_y, e_u, e_v, h_y, h_u, h_v = _radial_components(
                reg, pol, n, r, omega, *coeffs.combine(bases[bk]))
            e_sq = (ey_w * np.abs(e_y) ** 2
                    + et_w * (np.abs(e_u) ** 2 + np.abs(e_v) ** 2))
            h_sq = (hy_w * np.abs(h_y) ** 2
                    + ht_w * (np.abs(h_u) ** 2 + np.abs(h_v) ** 2))
            out += w * (e_sq + h_sq)
        return (out * r * r).reshape(rows.shape)

    return density


def _region_terms(sol: FieldSolution, weights: dict, idx: int) -> list:
    """One density term per (n, pol) of sol, in region idx."""
    return [(w, sol.regions[idx], pol, n, sol.radial[(n, pol)].coeffs[idx])
            for (n, pol), w in weights.items()]


def l2_norm_annulus(sol: FieldSolution, a: float, b: float) -> float:
    """Exact modal L2 norm of (E, H) over a < |x| < b."""
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    weights = _mode_weights(sol)
    total = 0.0
    for lo, hi in _segments([sol], a, b):
        terms = _region_terms(sol, weights, sol.region_index(0.5 * (lo + hi)))
        density = _modal_density(terms, _UNIT_WEIGHTS, sol.omega)
        total += adaptive_gauss(density, lo, hi)
    return math.sqrt(max(total, 0.0))


def l2_norm_annulus_diff(sol_a: FieldSolution, sol_b: FieldSolution,
                         a: float, b: float) -> float:
    """L2 norm of the difference of two solves over an annulus.

    Valid where both media agree (used in vacuum observation regions);
    the sources must carry identical amplitude tables.
    """
    if set(sol_a.amplitudes) != set(sol_b.amplitudes):
        raise ValueError("difference norm needs identical source tables")
    for key, amp in sol_a.amplitudes.items():
        if abs(amp - sol_b.amplitudes[key]) > 1e-14 * max(1.0, abs(amp)):
            raise ValueError("difference norm needs identical source tables")
    weights = _mode_weights(sol_a)
    total = 0.0
    for lo, hi in _segments([sol_a, sol_b], a, b):
        mid = 0.5 * (lo + hi)
        ia, ib = sol_a.region_index(mid), sol_b.region_index(mid)
        rega, regb = sol_a.regions[ia], sol_b.regions[ib]
        for attr in ("eps_rad", "eps_tan", "mu_rad", "mu_tan"):
            if abs(getattr(rega, attr) - getattr(regb, attr)) > 1e-12:
                raise ValueError("media differ on the comparison annulus")
        terms = []
        for (n, pol), w in weights.items():
            ca = sol_a.radial[(n, pol)].coeffs[ia].as_jy()
            cb = sol_b.radial[(n, pol)].coeffs[ib].as_jy()
            diff = RegionCoeffs(nu=ca.nu, k=ca.k, c_j=ca.c_j - cb.c_j,
                                c_y=ca.c_y - cb.c_y)
            terms.append((w, rega, pol, n, diff))
        density = _modal_density(terms, _UNIT_WEIGHTS, sol_a.omega)
        total += adaptive_gauss(density, lo, hi)
    return math.sqrt(max(total, 0.0))


def farfield_flux(sol: FieldSolution) -> float:
    """Im I(H) = omega * lim_R int_{|x|=R} |H|^2, in closed modal form.

    Each outgoing mode contributes |c_h|^2 / (omega (2n-1)!!)^2 per unit
    squared amplitude; requires a vacuum outermost layer.
    """
    reg = sol.regions[-1]
    if abs(reg.eps_tan - 1) > 1e-12 or abs(reg.mu_tan - 1) > 1e-12:
        raise ValueError("far-field flux requires a vacuum exterior")
    weights = _mode_weights(sol)
    total = 0.0
    for (n, pol), w in weights.items():
        c = sol.radial[(n, pol)].coeffs[-1]
        if not c.outgoing:
            raise ValueError("outermost region is not outgoing")
        log_amp = (c.c_y.log10_abs()[0] - log_dfact_minus(c.nu) / _LN10
                   - math.log10(sol.omega))
        total += w * 10.0 ** (2.0 * log_amp)
    return sol.omega * total


@dataclass
class DataReport:
    """Data(J, delta) and the pieces entering it, plus the energy-identity check."""

    value: float
    pairing_im: float          # Im of i omega int J . conj(E)
    flux_im: float             # Im I(H)
    j_norm_sq: float
    delta: float
    lossy_norm_weighted: float  # omega^2 * int Im-weighted (|E|^2+|H|^2) / delta

    @property
    def energy_ratio(self) -> float:
        """(1/delta)|pairing + flux| over the weighted lossy-layer norm; exact
        closure of the divergence identity makes this 1."""
        num = abs(self.pairing_im + self.flux_im) / self.delta
        return num / max(self.lossy_norm_weighted, 1e-300)


def _source_pairing(sol: FieldSolution) -> complex:
    """int J . conj(E) over the sheet, by modal orthonormality."""
    r_s = sol.source.radius
    idx = sol.region_index(r_s)
    pairing = 0.0 + 0.0j
    for key, amp in sol.amplitudes.items():
        rs = sol.radial[(key.n, key.pol)]
        comps = mode_radial_components(rs.regions[idx], key.pol, rs.coeffs[idx],
                                       key.n, np.array([r_s]), sol.omega)
        e_y, e_u, e_v, _, _, _ = comps
        if key.pol == TE:
            e_comp = amp * 1.0 * e_v[0]        # sheet along Vtilde
        else:
            e_comp = amp * (-1.0) * e_u[0]     # sheet along Utilde
        pairing += r_s * r_s * amp * np.conj(e_comp)
    return complex(pairing)


def _lossy_weighted_norm_sq(sol: FieldSolution, delta: float) -> float:
    """omega^2/delta * int of Im(coef)-weighted squared components over lossy layers."""
    weights = _mode_weights(sol)
    total = 0.0
    for i, reg in enumerate(sol.regions):
        ims = (reg.eps_rad.imag, reg.eps_tan.imag, reg.mu_rad.imag, reg.mu_tan.imag)
        if max(ims) <= 0:
            continue
        if math.isinf(reg.r_hi):
            raise ValueError("lossy exterior is not supported")
        comp = tuple(v / delta for v in ims)
        density = _modal_density(_region_terms(sol, weights, i), comp, sol.omega)
        total += adaptive_gauss(density, reg.r_lo, reg.r_hi)
    return sol.omega ** 2 * total


def data_quantity(sol: FieldSolution, delta: float) -> DataReport:
    """The scalar Data(J, delta) plus its energy-identity diagnostics.

    Data = (1/delta) |Im int i omega J conj(E) + Im I(H)| + ||J||^2, with the
    sheet pairing realized at the source radius.  The measured constant of
    the a-priori bound is ||(E,H)||^2_shell / Data, with the shell norm from
    `l2_norm_annulus`.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    pairing = _source_pairing(sol)
    pairing_im = (1j * sol.omega * pairing).imag
    flux = farfield_flux(sol)
    j_sq = sol.source.l2_norm_sq()
    value = abs(pairing_im + flux) / delta + j_sq
    weighted = _lossy_weighted_norm_sq(sol, delta)
    return DataReport(value=value, pairing_im=pairing_im, flux_im=flux,
                      j_norm_sq=j_sq, delta=delta,
                      lossy_norm_weighted=weighted)


_LEVI = []
for a in range(3):
    m = np.zeros((3, 3))
    for b in range(3):
        for c in range(3):
            perm = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
            m[b, c] = perm.get((a, b, c), 0)
    _LEVI.append(m)


def second_order_residual(sol: FieldSolution, a: int, samples,
                          h: float = 1e-3) -> float:
    """FD residual of the weakly coupled second-order form for component a.

    div(eps grad E_a) + div(d_a eps E + i omega eps LC^a mu H) should vanish;
    LC^a is the Levi-Civita slice.  Samples must sit inside one layer, at
    least 2h from its interfaces.
    """
    if a not in (0, 1, 2):
        raise ValueError("component index must be 0, 1 or 2")
    lc = _LEVI[a]

    def eps_at(x):
        return sol.medium.tensors_at(x)[0]

    def mu_at(x):
        return sol.medium.tensors_at(x)[1]

    def vec_field(x):
        e, hfld = eval_field(sol, x)
        grad_ea = np.zeros(3, dtype=complex)
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = h
            grad_ea[k] = (eval_field(sol, x + dx)[0][a]
                          - eval_field(sol, x - dx)[0][a]) / (2 * h)
        eps = eps_at(x)
        dx = np.zeros(3)
        dx[a] = h
        deps = (eps_at(x + dx) - eps_at(x - dx)) / (2 * h)
        return eps @ grad_ea + deps @ e + 1j * sol.omega * (eps @ lc @ mu_at(x) @ hfld)

    worst = 0.0
    for x in np.atleast_2d(np.asarray(samples, dtype=float)):
        r = float(np.linalg.norm(x))
        idx = sol.region_index(r)
        reg = sol.regions[idx]
        if r - 2 * h < reg.r_lo or (not math.isinf(reg.r_hi) and r + 2 * h > reg.r_hi):
            raise ValueError(f"sample at radius {r} too close to an interface")
        div = 0.0 + 0.0j
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = h
            div += (vec_field(x + dx)[k] - vec_field(x - dx)[k]) / (2 * h)
        worst = max(worst, abs(div))
    return worst
