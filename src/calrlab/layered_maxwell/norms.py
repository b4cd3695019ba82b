"""Modal norms, far-field flux, and the lossy-layer energy functional.

Vector-harmonic orthonormality collapses every angular integral, so L2 norms
over annuli reduce to 1-D radial quadratures of three components per mode,
and the far-field power to a closed-form sum over outgoing coefficients.

Each norm is one `adaptive_gauss` call over all of its intervals (the
staircase segments of an annulus, or the lossy layers): every interval
doubles its panels and tests its convergence on its own, and each level
evaluates the panels of every interval still running in one integrand call.
The modal density weighs the three polarization-free components of the
radial kernel that field evaluation uses (`fields._components`), which
is elementwise, so every row gets the bits of a call on that row alone and
a norm is the same float as the sum of separate one-interval quadratures.
Every per-(region, mode) constant, and with it the choice between eps and
mu that tells TE from TM, comes from the rows of `FieldSolution.table`
(see `solver._mode_constants`); the sheet pairing takes its sign from
`modes.h_jump_factor`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..specfun.bessel import log_dfact_minus
from ..specfun.vsh import gauss_legendre
from .modes import TE, h_jump_factor
from .solver import FieldSolution
from .fields import _components, eval_field

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


def adaptive_gauss(fn, a, b, max_doublings: int = 10) -> float:
    """Panel-doubling Gauss-Legendre quadrature of a vectorized integrand
    over [a, b], or over the intervals [a[i], b[i]] when a and b are
    sequences.

    Every interval doubles its own panels and stops on its own, once two
    successive estimates agree to _REL_TOL.  fn gets a 2-d array of nodes,
    one row per panel, and must treat the rows as independent evaluations.
    Each level makes one call that stacks the rows of every interval still
    running; the first two levels, which every interval needs, share one.
    The result is the sum of the interval totals in interval order, the same
    float as a sum of one-interval calls.  An interval with b <= a adds 0.
    Raises ValueError for a non-finite end, and RuntimeError naming the
    first interval whose last two estimates still differ by more than
    _REL_TOL after max_doublings doublings.
    """
    los = np.atleast_1d(np.asarray(a, dtype=float)).tolist()
    his = np.atleast_1d(np.asarray(b, dtype=float)).tolist()
    if len(los) != len(his):
        raise ValueError("need as many interval starts as ends")
    for lo, hi in zip(los, his):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"quadrature on [{lo}, {hi}] needs finite ends")
    nodes, weights = gauss_legendre(_GAUSS_ORDER)

    def estimates(batch):
        """One fn call over the panels of each (interval, panel count) in
        batch; the estimate of each, in batch order."""
        grids = [_panel_nodes(los[i], his[i], panels, nodes) for i, panels in batch]
        values = iter(fn(np.concatenate([x for x, _ in grids])))
        out = []
        for _, half in grids:
            total = 0.0
            for h in half:
                total += h * float(np.sum(weights * next(values)))
            out.append(total)
        return out

    live = [i for i in range(len(los)) if his[i] > los[i]]
    if not live:
        return 0.0
    first = estimates([(i, panels) for i in live for panels in (1, 2)])
    prev = dict(zip(live, first[0::2]))
    current = first[1::2]
    totals = [0.0] * len(los)
    for level in range(1, max_doublings + 1):
        if level > 1:
            current = estimates([(i, 2 ** level) for i in live])
        running = []
        for i, total in zip(live, current):
            if abs(total - prev[i]) <= _REL_TOL * max(abs(total), 1e-300):
                totals[i] = total
            else:
                prev[i] = total
                running.append(i)
        live = running
        if not live:
            break
    if live:
        raise RuntimeError(f"quadrature on [{los[live[0]]}, {his[live[0]]}] not "
                           f"converged after {max_doublings} doublings")
    result = 0.0
    for total in totals:
        result += total
    return result


def _mode_weights(sol: FieldSolution) -> dict:
    """(n, pol) -> sum over m of |amplitude|^2 (the m-degeneracy collapse)."""
    w = {}
    for key, amp in sol.source.amplitudes.items():
        w[(key.n, key.pol)] = w.get((key.n, key.pol), 0.0) + abs(amp) ** 2
    return w


def _segments(sols, a: float, b: float):
    """[a, b] cut at every region boundary of the given solutions (regions
    are contiguous, so the outer radii are all the boundaries)."""
    cuts = sorted({a, b} | {reg.r_hi for sol in sols for reg in sol.regions
                            if a < reg.r_hi < b})
    return list(zip(cuts[:-1], cuts[1:]))


_UNIT_WEIGHTS = (1.0, 1.0, 1.0, 1.0)


def _check_annulus(a: float, b: float) -> None:
    if not (0 <= a < b and math.isfinite(b)):
        raise ValueError(f"need 0 <= a < b < inf, not a = {a}, b = {b}")


def _modal_density(starts, comps: list, weights: dict, table):
    """r -> r^2 sum over modes of w times the weighted squared components,
    row by row over a 2-d array of radii whose rows lie in several intervals.

    A row belongs to interval i, the last of the sorted `starts` at or below
    its middle node.  comps[i] holds interval i's weights of |E_Y|^2,
    |E_U|^2 + |E_V|^2, |H_Y|^2 and |H_U|^2 + |H_V|^2, and row i of `table`
    (a `ModeTable` of `FieldSolution.table`) the region it lies in, one
    column per (n, pol) of `weights`, which maps (n, pol) to w.  A TE
    mode's (u, radial, tangential) are (E_V, H_Y, H_U), a TM mode's (H_V,
    E_Y, E_U).  The components come from one `fields._components` call over
    all intervals, so each row gets exactly the values of a call on that row
    alone.
    """
    starts = np.asarray(starts, dtype=float)
    # the places in comps[i] of each column's weights of (u, radial, tangential)
    slots = np.array([(1, 2, 3) if pol == TE else (3, 0, 1) for _, pol in weights]).T
    placed = np.array(comps, dtype=float)[:, slots].transpose(1, 0, 2)

    def density(rows):
        rows = np.atleast_2d(rows)
        order = rows.shape[1]
        owner = np.repeat(np.searchsorted(starts, rows[:, order // 2], side="right") - 1,
                          order)
        r = rows.reshape(-1)
        w_u, w_r, w_t = placed[:, owner]
        u, radial, tangential = np.abs(_components(table, owner, r)) ** 2
        cells = w_u * u + (w_r * radial + w_t * tangential)
        out = np.zeros_like(r, dtype=float)
        for col, w in enumerate(weights.values()):
            out += w * cells[:, col]
        return (out * r * r).reshape(rows.shape)

    return density


def l2_norm_annulus(sol: FieldSolution, a: float, b: float) -> float:
    """Exact modal L2 norm of (E, H) over a < |x| < b."""
    _check_annulus(a, b)
    weights = _mode_weights(sol)
    los, his = zip(*_segments([sol], a, b))
    rows = sol.region_indices(0.5 * (np.array(los) + np.array(his)))
    density = _modal_density(los, [_UNIT_WEIGHTS] * len(rows), weights,
                             sol.table(rows, list(weights)))
    return math.sqrt(max(adaptive_gauss(density, los, his), 0.0))


def check_media_agree(medium_a, medium_b, a: float, b: float) -> None:
    """Raise ValueError unless two piecewise-constant media agree, to 1e-12, on a < |x| < b."""
    _check_annulus(a, b)
    cuts = sorted({a, b} | {r for m in (medium_a, medium_b) for r in m.breakpoints if a < r < b})
    for mid in (0.5 * (lo + hi) for lo, hi in zip(cuts[:-1], cuts[1:])):
        la, lb = medium_a.layer_at(mid), medium_b.layer_at(mid)
        if any(abs(x - y) > 1e-12 for x, y in zip(la.eps.at(mid) + la.mu.at(mid),
                                                  lb.eps.at(mid) + lb.mu.at(mid))):
            raise ValueError("media differ on the comparison annulus")


def l2_norm_annulus_diff(sol_a: FieldSolution, sol_b: FieldSolution,
                         a: float, b: float) -> float:
    """L2 norm of the difference of two solves over an annulus.

    Valid where both media agree (`check_media_agree`; used in vacuum
    observation regions); the sources must carry identical amplitude tables.
    """
    check_media_agree(sol_a.medium, sol_b.medium, a, b)
    amps_a, amps_b = sol_a.source.amplitudes, sol_b.source.amplitudes
    if set(amps_a) != set(amps_b) or any(abs(amp - amps_b[key]) > 1e-14 * max(1.0, abs(amp))
                                         for key, amp in amps_a.items()):
        raise ValueError("difference norm needs identical source tables")
    weights = _mode_weights(sol_a)
    los, his = zip(*_segments([sol_a, sol_b], a, b))
    mids = 0.5 * (np.array(los) + np.array(his))
    rows_a, rows_b = sol_a.region_indices(mids), sol_b.region_indices(mids)
    t_a = sol_a.as_jy(rows_a, list(weights))
    t_b = sol_b.as_jy(rows_b, list(weights))
    density = _modal_density(los, [_UNIT_WEIGHTS] * len(rows_a), weights,
                             t_a._replace(c_j=t_a.c_j - t_b.c_j, c_y=t_a.c_y - t_b.c_y))
    return math.sqrt(max(adaptive_gauss(density, los, his), 0.0))


def farfield_flux(sol: FieldSolution) -> float:
    """Im I(H) = omega * lim_R int_{|x|=R} |H|^2, in closed modal form.

    Each outgoing mode contributes |c_h|^2 / (omega (2n-1)!!)^2 per unit
    squared amplitude; `solve` makes the outermost layer vacuum.
    """
    weights = _mode_weights(sol)
    exterior = sol.table([-1], list(weights))
    log_c = exterior.c_y.log10_abs()[0]
    total = 0.0
    for nu, lc, w in zip(exterior.nu[0].tolist(), log_c, weights.values()):
        log_amp = lc - log_dfact_minus(nu) / _LN10 - math.log10(sol.omega)
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
    values = _components(sol.modes, sol.region_indices([r_s]), np.array([r_s]))[:, 0]
    pairing = 0.0 + 0.0j
    for key, amp in sol.source.amplitudes.items():
        u, _, tangential = values[:, sol._columns[(key.n, key.pol)]]
        e_sheet = u if key.pol == TE else tangential    # E_V or E_U, along the sheet
        e_comp = amp * h_jump_factor(key.pol) * e_sheet
        pairing += r_s * r_s * amp * np.conj(e_comp)
    return complex(pairing)


def _lossy_weighted_norm_sq(sol: FieldSolution, delta: float) -> float:
    """omega^2/delta * int of Im(coef)-weighted squared components over lossy layers."""
    weights = _mode_weights(sol)
    rows, comps = [], []
    for i, reg in enumerate(sol.regions):
        ims = (reg.eps_rad.imag, reg.eps_tan.imag, reg.mu_rad.imag, reg.mu_tan.imag)
        if max(ims) <= 0:
            continue
        rows.append(i)
        comps.append(tuple(v / delta for v in ims))
    if not rows:
        return 0.0
    regions = [sol.regions[i] for i in rows]
    los, his = [reg.r_lo for reg in regions], [reg.r_hi for reg in regions]
    density = _modal_density(los, comps, weights, sol.table(rows, list(weights)))
    return sol.omega ** 2 * adaptive_gauss(density, los, his)


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


# Levi-Civita symbol.  Index arrays run per axis: the even permutations
# (a, b, c) = (0, 1, 2), (1, 2, 0), (2, 0, 1) get +1, and the odd ones,
# (a, c, b) of those, get -1.
_LEVI = np.zeros((3, 3, 3))
_LEVI[(0, 1, 2), (1, 2, 0), (2, 0, 1)] = 1.0
_LEVI[(0, 1, 2), (2, 0, 1), (1, 2, 0)] = -1.0


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

    points = np.atleast_2d(np.asarray(samples, dtype=float))
    radii = [float(np.linalg.norm(x)) for x in points]
    worst = 0.0
    for x, r, idx in zip(points, radii, sol.region_indices(radii).tolist()):
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
