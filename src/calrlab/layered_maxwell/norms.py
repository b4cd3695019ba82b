"""Modal norms, far-field flux, and the lossy-layer energy functional.

Vector-harmonic orthonormality collapses every angular integral, so L2 norms
over annuli reduce to 1-D radial quadratures of three components per mode,
and the far-field power to a closed-form sum over outgoing coefficients.

`sweep_norms` takes every norm of a loss sweep from one quadrature: the
annulus norms, the difference norms against a reference, and the
Im(coef)/delta-weighted lossy-layer norm of Data(J, delta), for every
solution.  Each is a slot of one `adaptive_gauss` call over the union of
their intervals (the staircase segments of each annulus, and the lossy
layers; one call per set of pairwise identical or disjoint intervals, so
more than one only where two annuli overlap without matching), and each
level evaluates the panels of every interval still running in one call of
the radial kernel of field evaluation (`fields._components`), over the
solutions' table rows joined along their key columns.  Each slot weighs
those shared squared components by its own weights, every interval doubles
its panels on its own, and each slot keeps the estimate of the level at
which it converged there and sums its interval totals in its own order.
The kernel is elementwise, so every number is the same float as a
quadrature of that one request: `l2_norm_annulus`, `l2_norm_annulus_diff`
and `data_quantity` are the one-request cases.  Every per-(region, mode)
constant, and with it the choice between eps and mu that tells TE from TM,
comes from the rows of `FieldSolution.table` (see
`solver._mode_constants`); the sheet pairing takes its sign from
`modes.h_jump_factor`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..specfun.bessel import log_dfact_minus
from ..specfun.vsh import gauss_legendre
from .modes import TE, h_jump_factor
from .solver import FieldSolution, _join_tables
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


def adaptive_gauss(fn, a, b, max_doublings: int = 10):
    """Panel-doubling Gauss-Legendre quadrature of a vectorized integrand
    over [a, b], or over the intervals [a[i], b[i]] when a and b are
    sequences.

    fn gets a 2-d array of nodes, one row per panel, and must treat the
    rows as independent evaluations.  It returns the integrand at the
    nodes, in their shape, or several integrands (quantities) at once, as
    an array of shape (rows, quantities, nodes).  Every interval doubles its
    own panels; each quantity on it stops once two successive estimates
    agree to _REL_TOL and keeps that estimate, and the interval stops once
    all of its quantities have.  Each level makes one call that stacks the
    rows of every interval still running; the first two levels, which every
    interval needs, share one.  The result is the sum of the interval
    totals in interval order (one sum per quantity, as an array, for
    several), the same float as a sum of one-interval calls; it is 0.0 when
    no interval has b > a, and an interval with b <= a adds 0.  Raises
    ValueError for a non-finite end, and RuntimeError naming the first
    interval with a quantity whose last two estimates still differ by more
    than _REL_TOL after max_doublings doublings.
    """
    los = np.atleast_1d(np.asarray(a, dtype=float)).tolist()
    his = np.atleast_1d(np.asarray(b, dtype=float)).tolist()
    if len(los) != len(his):
        raise ValueError("need as many interval starts as ends")
    for lo, hi in zip(los, his):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"quadrature on [{lo}, {hi}] needs finite ends")
    nodes, weights = gauss_legendre(_GAUSS_ORDER)
    several = False

    def estimates(batch):
        """One fn call over the panels of each (interval, panel count) in
        batch; the estimates of each, one per quantity, in batch order."""
        nonlocal several
        grids = [_panel_nodes(los[i], his[i], panels, nodes) for i, panels in batch]
        values = fn(np.concatenate([x for x, _ in grids]))
        several = values.ndim == 3
        # on a C-ordered product, each (row, quantity) sum runs along one
        # contiguous row and has the bits of a one-row np.sum
        values = np.ascontiguousarray(values).reshape(len(values), -1, len(nodes))
        sums = iter(np.sum(weights * values, axis=-1))
        out = []
        for _, half in grids:
            total = 0.0
            for h in half:
                total += h * next(sums)
            out.append(total)
        return out

    live = [i for i in range(len(los)) if his[i] > los[i]]
    if not live:
        return 0.0
    first = estimates([(i, panels) for i in live for panels in (1, 2)])
    prev = dict(zip(live, first[0::2]))
    current = first[1::2]
    totals = [0.0] * len(los)
    done = {i: np.zeros(len(total), dtype=bool) for i, total in zip(live, current)}
    for level in range(1, max_doublings + 1):
        if level > 1:
            current = estimates([(i, 2 ** level) for i in live])
        running = []
        for i, total in zip(live, current):
            agree = ~done[i] & (np.abs(total - prev[i])
                                <= _REL_TOL * np.maximum(np.abs(total), 1e-300))
            totals[i] = np.where(agree, total, totals[i])
            done[i] |= agree
            if not done[i].all():
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
    return result if several else result[0]


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


def _modal_density(starts, weights: dict, slots, table):
    """r -> r^2 sum over modes of w times the weighted squared components,
    row by row over a 2-d array of radii whose rows lie in several
    intervals, one row of values per slot: shape (rows, slots, nodes).

    A row belongs to interval i, the last of the sorted, disjoint `starts`
    at or below its middle node, and row i of `table` holds the region that
    interval i lies in.  The columns of `table` are groups (`ModeTable`s
    joined by `solver._join_tables`), each with one column per (n, pol) of
    `weights`, which maps (n, pol) to w.  A slot is a (group, comps) pair:
    the group it reads, and per interval its weights of |E_Y|^2,
    |E_U|^2 + |E_V|^2, |H_Y|^2 and |H_U|^2 + |H_V|^2, or None where its
    values are 0.  A TE mode's (u, radial, tangential) are (E_V, H_Y, H_U),
    a TM mode's (H_V, E_Y, E_U).  They come from one elementwise
    `fields._components` call, so each value has the bits of a call on its
    row, group and slot alone.
    """
    starts = np.asarray(starts, dtype=float)
    width = len(weights)
    w = np.array(list(weights.values()), dtype=float)
    columns = np.array([group * width + np.arange(width) for group, _ in slots])
    share = np.array([[c is not None for c in comps] for _, comps in slots]).T
    comps = np.array([[(0.0,) * 4 if c is None else c for c in comps] for _, comps in slots],
                     dtype=float)
    # the places in comps of each column's weights of (u, radial, tangential)
    places = np.array([(1, 2, 3) if pol == TE else (3, 0, 1) for _, pol in weights]).T
    placed = comps[:, :, places].transpose(2, 1, 0, 3)     # (3, interval, slot, column)

    def density(rows):
        rows = np.atleast_2d(rows)
        order = rows.shape[1]
        owner = np.repeat(np.searchsorted(starts, rows[:, order // 2], side="right") - 1,
                          order)
        r = rows.reshape(-1)
        w_u, w_r, w_t = placed[:, owner]
        u, radial, tangential = (np.abs(_components(table, owner, r)) ** 2)[:, :, columns]
        cells = w_u * u + (w_r * radial + w_t * tangential)
        out = np.zeros(cells.shape[:2])
        for col in range(width):
            out += w[col] * cells[..., col]
        out = np.where(share[owner], out * r[:, None] * r[:, None], 0.0)
        return out.reshape(len(rows), order, len(slots)).transpose(0, 2, 1)

    return density


def check_media_agree(medium_a, medium_b, a: float, b: float) -> None:
    """Raise ValueError unless two piecewise-constant media agree, to 1e-12, on a < |x| < b."""
    _check_annulus(a, b)
    cuts = sorted({a, b} | {r for m in (medium_a, medium_b) for r in m.breakpoints if a < r < b})
    for mid in (0.5 * (lo + hi) for lo, hi in zip(cuts[:-1], cuts[1:])):
        la, lb = medium_a.layer_at(mid), medium_b.layer_at(mid)
        if any(abs(x - y) > 1e-12 for x, y in zip(la.eps.at(mid) + la.mu.at(mid),
                                                  lb.eps.at(mid) + lb.mu.at(mid))):
            raise ValueError("media differ on the comparison annulus")


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


@dataclass(frozen=True)
class SweepNorms:
    """One solution's norms from `sweep_norms`."""

    annuli: tuple               # its L2 norm over each of the annuli
    diffs: tuple                # that of its difference from ref over each diff annulus
    data: DataReport | None     # its Data(J, delta) report, None without deltas


class _Quantity(NamedTuple):
    """One integral of `sweep_norms`: the column group it reads (a solution,
    or after them a solution's difference from ref), its ascending disjoint
    intervals, and its component weights on each."""

    group: int
    intervals: list
    comps: list


def _sheet_pairings(sols, keys: list) -> list:
    """int J . conj(E) over the sheet of each solution, by modal
    orthonormality, from one `_components` call over the solutions' rows at
    the source radius joined along their key columns."""
    r_s = sols[0].source.radius
    table = _join_tables([sol.table(sol.region_indices([r_s]), keys) for sol in sols])
    values = _components(table, np.zeros(1, dtype=int), np.array([r_s]))[:, 0]
    column = {key: i for i, key in enumerate(keys)}
    out = []
    for group, sol in enumerate(sols):
        pairing = 0.0 + 0.0j
        for key, amp in sol.source.amplitudes.items():
            u, _, tangential = values[:, group * len(keys) + column[(key.n, key.pol)]]
            e_sheet = u if key.pol == TE else tangential    # E_V or E_U, along the sheet
            e_comp = amp * h_jump_factor(key.pol) * e_sheet
            pairing += r_s * r_s * amp * np.conj(e_comp)
        out.append(complex(pairing))
    return out


def _annulus(group: int, intervals: list) -> _Quantity:
    return _Quantity(group, intervals, [_UNIT_WEIGHTS] * len(intervals))


def _lossy_layers(group: int, sol: FieldSolution, delta: float) -> _Quantity:
    """The lossy layers of a solution, each weighted by Im(coef) / delta."""
    intervals, comps = [], []
    for reg in sol.regions:
        ims = (reg.eps_rad.imag, reg.eps_tan.imag, reg.mu_rad.imag, reg.mu_tan.imag)
        if max(ims) > 0:
            intervals.append((reg.r_lo, reg.r_hi))
            comps.append(tuple(v / delta for v in ims))
    return _Quantity(group, intervals, comps)


def _data_report(sol: FieldSolution, delta: float, pairing: complex,
                 lossy: float) -> DataReport:
    pairing_im = (1j * sol.omega * pairing).imag
    flux = farfield_flux(sol)
    j_sq = sol.source.l2_norm_sq()
    return DataReport(value=abs(pairing_im + flux) / delta + j_sq, pairing_im=pairing_im,
                      flux_im=flux, j_norm_sq=j_sq, delta=delta,
                      lossy_norm_weighted=sol.omega ** 2 * lossy)


def _quadratures(quantities, sols, ref, weights: dict) -> list:
    """The integral of each quantity, from one `adaptive_gauss` call per
    class of quantities whose intervals are pairwise identical or disjoint
    (one class unless two quantities' intervals overlap without matching).
    Each quantity is a slot of its class's `_modal_density`, which reads
    every group the class uses at the class's intervals.
    """
    keys = list(weights)

    def group_table(group, mids):
        if group < len(sols):
            sol = sols[group]
            return sol.table(sol.region_indices(mids), keys)
        sol = sols[group - len(sols)]
        t_a = sol.as_jy(sol.region_indices(mids), keys)
        t_b = ref.as_jy(ref.region_indices(mids), keys)
        return t_a._replace(c_j=t_a.c_j - t_b.c_j, c_y=t_a.c_y - t_b.c_y)

    classes = []
    for q, quantity in enumerate(quantities):
        if not quantity.intervals:
            continue
        for held, members in classes:
            merged = sorted(held.union(quantity.intervals))
            if all(hi <= lo for (_, hi), (lo, _) in zip(merged, merged[1:])):
                held.update(quantity.intervals)
                members.append(q)
                break
        else:
            classes.append((set(quantity.intervals), [q]))
    out = [0.0] * len(quantities)
    for held, members in classes:
        los, his = zip(*sorted(held))
        groups = sorted({quantities[q].group for q in members})
        mids = 0.5 * (np.array(los) + np.array(his))
        slots = []
        for q in members:
            comps = dict(zip(quantities[q].intervals, quantities[q].comps))
            slots.append((groups.index(quantities[q].group),
                          [comps.get(interval) for interval in zip(los, his)]))
        table = _join_tables([group_table(group, mids) for group in groups])
        totals = adaptive_gauss(_modal_density(los, weights, slots, table), los, his)
        for q, total in zip(members, totals):
            out[q] = total
    return out


def sweep_norms(sols, annuli=(), deltas=None, ref=None, diff_annuli=()) -> list:
    """The norms of the solutions of one loss sweep, from one quadrature.

    The solutions share their source.  For each solution, returns a
    `SweepNorms`: its exact modal L2 norm of (E, H) over each annulus
    (a, b) of annuli; that of its difference from the solution ref over
    each annulus of diff_annuli, where its medium and ref's agree
    (`check_media_agree`) and ref carries an identical source table; and,
    with deltas (one loss per solution), its Data(J, delta) report.

    Data = (1/delta) |Im int i omega J conj(E) + Im I(H)| + ||J||^2, with the
    sheet pairing realized at the source radius; its report also holds the
    Im(coef)/delta-weighted norm over the lossy layers.  The measured
    constant of the a-priori bound is ||(E,H)||^2_shell / Data, with the
    shell norm an annulus norm.

    Every integral (each annulus norm, difference norm and lossy-layer
    norm of each solution) is a slot of one quadrature, as the module
    docstring describes, so each number is the same float as a call of that
    one request; the sheet pairings of all solutions take one more
    `fields._components` call.
    """
    sols = list(sols)
    if not sols:
        raise ValueError("need at least one solution")
    if any(sol.source != sols[0].source for sol in sols):
        raise ValueError("the solutions of one sweep must share their source")
    for a, b in annuli:
        _check_annulus(a, b)
    if diff_annuli:
        if ref is None:
            raise ValueError("difference norms need a reference solution")
        for (a, b), sol in itertools.product(diff_annuli, sols):
            check_media_agree(sol.medium, ref.medium, a, b)
        amps_a, amps_b = sols[0].source.amplitudes, ref.source.amplitudes
        if set(amps_a) != set(amps_b) or any(abs(amp - amps_b[key]) > 1e-14 * max(1.0, abs(amp))
                                             for key, amp in amps_a.items()):
            raise ValueError("difference norm needs identical source tables")
    if deltas is not None:
        deltas = list(deltas)
        if len(deltas) != len(sols):
            raise ValueError("need one delta per solution")
        if not all(delta > 0 for delta in deltas):
            raise ValueError("delta must be positive")
    weights = _mode_weights(sols[0])
    quantities = []
    for group, sol in enumerate(sols):
        quantities += [_annulus(group, _segments([sol], a, b)) for a, b in annuli]
        quantities += [_annulus(len(sols) + group, _segments([sol, ref], a, b))
                       for a, b in diff_annuli]
        if deltas is not None:
            quantities.append(_lossy_layers(group, sol, deltas[group]))
    totals = iter(_quadratures(quantities, sols, ref, weights))
    pairings = _sheet_pairings(sols, list(weights)) if deltas is not None else None
    out = []
    for group, sol in enumerate(sols):
        norms = tuple(math.sqrt(max(next(totals), 0.0)) for _ in annuli)
        diffs = tuple(math.sqrt(max(next(totals), 0.0)) for _ in diff_annuli)
        data = (None if deltas is None
                else _data_report(sol, deltas[group], pairings[group], next(totals)))
        out.append(SweepNorms(norms, diffs, data))
    return out


def l2_norm_annulus(sol: FieldSolution, a: float, b: float) -> float:
    """Exact modal L2 norm of (E, H) over a < |x| < b; the one-annulus
    case of `sweep_norms`."""
    return sweep_norms([sol], annuli=[(a, b)])[0].annuli[0]


def l2_norm_annulus_diff(sol_a: FieldSolution, sol_b: FieldSolution,
                         a: float, b: float) -> float:
    """L2 norm of the difference of two solves over an annulus; the
    one-difference case of `sweep_norms`.

    Valid where both media agree (`check_media_agree`; used in vacuum
    observation regions); the sources must carry identical amplitude tables.
    """
    return sweep_norms([sol_a], ref=sol_b, diff_annuli=[(a, b)])[0].diffs[0]


def data_quantity(sol: FieldSolution, delta: float) -> DataReport:
    """The scalar Data(J, delta) plus its energy-identity diagnostics; the
    one-loss case of `sweep_norms`, which defines them."""
    return sweep_norms([sol], deltas=[delta])[0].data


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
