"""Per-mode exact solve of time-harmonic Maxwell in radially layered media.

Each (n, polarization) pair decouples into a 2x2 tangential-trace problem.
The radial functions in a layer with spherical-diagonal constants
(eps_rad, eps_tan, mu_rad, mu_tan) are growth-normalized spherical Bessel
functions of effective order nu(nu+1) = (tan/rad) n(n+1) (taken from mu for
TE and from eps for TM) at wavenumber k = omega sqrt(eps_tan mu_tan),
branch Im k >= 0.  That TE/TM rule is decided in one function,
`_mode_constants`: it fills the solve's one (region x key) `ModeTable`
with every per-(region, key) constant (nu, k, the tangential coefficient,
the component factors and the outgoing flag), which `FieldSolution.modes`
keeps with the coefficients and `FieldSolution.table` hands to the field
and norm kernels.

Coefficients are propagated as scaled projective pairs: a region's state
is one (2, ncols) `ScaledArray` [c_j, c_y], and each region end is one
multiply, add and divide of it against trace and match tables built once
per region pass.  Interfaces are resolved with the exact Wronskian
determinant -(2nu+1)/z^2, so localized resonance (condition numbers like
(r2/r1)^(2n)/delta) costs accuracy, never overflow.  This is the
impedance-safe form of the transfer recursion (Toon & Ackerman, Appl. Opt.
20, 1981).

The radial basis is evaluated in one place, `_basis_values`, which returns
dense tables from one hat_jy call over all orders, inner and outgoing
cells alike (hat_jy also gives hhat); a region pass takes the ends of all
its column groups from one such call.  The Bessel functions are
elementwise in (order, argument), so each cell gets exactly the values of
a call on it alone.  All (n, pol) keys are propagated together as
the columns of (region x key) `ScaledArray` tables, the only stored form of
the coefficients, and the source scaling and the interface residual take
one pass over all interfaces.  Every operation on a coefficient is the
elementwise numpy operation a one-key, one-region-at-a-time solve would do,
so the coefficients keep their exact bits; the residual, a diagnostic, may
differ from such a solve in its last bit.  `_solve_levels` makes the media
of a loss sweep, which share their breakpoints, further columns of one
column group (their tables joined by `_join_tables`), and runs several
groups with their own region counts (the staircase levels of a
Richardson-refined sweep, and its reference medium) as one ragged pass:
the groups' chains step together on padded tables, as many steps as the
longest chain.  `solve` is its one-medium case.  Each medium's solution has exactly the bits of
its own `solve`, residual included.
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Dict, NamedTuple

import numpy as np

from ..media.radial import RadialMedium
from ..specfun.bessel import hat_jy, log_dfact_minus, log_dfact_plus
from ..specfun.scaled import ScaledArray
from .modes import TE, SurfaceCurrentSource

_LN10 = math.log(10.0)
# Relative trace mismatch across an interface above which a solve warns.
_INTERFACE_TOL = 1e-9
# Condition of a mode's source-jump system above which a solve raises
# NearSingularMode.
_COND_GUARD = 1e12


def branch_sqrt(z: complex) -> complex:
    """Square root with Im >= 0; positive reals map to positive reals."""
    w = cmath.sqrt(z)
    if w.imag < 0 or (w.imag == 0 and w.real < 0):
        w = -w
    return w


def effective_order(n: int, rad: complex, tan: complex) -> float:
    """nu solving nu(nu+1) = (tan/rad) n(n+1); isotropic layers give nu = n."""
    ratio = tan / rad
    if abs(ratio.imag) > 1e-10 * abs(ratio):
        raise NotImplementedError(
            "complex effective order (lossy anisotropic layer); "
            "use a multiplicative loss model or a finer staircase")
    t = ratio.real * n * (n + 1)
    if t <= 0:
        raise ValueError("indefinite spherical anisotropy ratio")
    return -0.5 + math.sqrt(0.25 + t)


@dataclass(frozen=True)
class RegionSpec:
    """One radial region of the per-mode problem (source radius split out)."""

    r_lo: float
    r_hi: float
    eps_rad: complex
    eps_tan: complex
    mu_rad: complex
    mu_tan: complex


class ModeTable(NamedTuple):
    """A solve's (region x key) table, or rows of it from `FieldSolution.table`.

    nu, k, coef, rad and tan are those of `_mode_constants`; the radial
    function is c_j jhat_nu(k r) + c_y yhat_nu(k r), or c_y hhat_nu(k r)
    where `outgoing` holds (the outermost region, where c_j is zero).
    """

    nu: np.ndarray
    k: np.ndarray
    coef: np.ndarray
    rad: np.ndarray
    tan: np.ndarray
    c_j: ScaledArray
    c_y: ScaledArray
    outgoing: np.ndarray


def _mode_constants(regions, keys, omega: float) -> ModeTable:
    """The TE/TM rule: every per-(region, key) constant of the radial problem.

    TE takes its order and its tangential coefficient b from mu, with the
    sign +i; TM takes them from eps, with -i.  Returns the `ModeTable` of
    the solve with c_j and c_y None: nu, k, coef, rad, tan and outgoing,
    each of shape (regions, keys), are the effective order, the wavenumber
    omega sqrt(eps_tan mu_tan) (one per region), b (which the Wronskian
    determinant uses), the factors +-i sqrt(n(n+1)) / (omega b_rad) of u/r
    and +-i / (omega b) of u' + u/r that give the radial and tangential
    components (H_Y and H_U for TE, E_Y and E_U for TM), and the flag of
    the outermost row.  Every entry is a Python scalar expression.
    """
    roots = [math.sqrt(n * (n + 1.0)) for n, _ in keys]
    cells = []
    for reg in regions:
        k = omega * branch_sqrt(reg.eps_tan * reg.mu_tan)
        for (n, pol), root in zip(keys, roots):
            b_rad, b, sign = ((reg.mu_rad, reg.mu_tan, 1j) if pol == TE
                              else (reg.eps_rad, reg.eps_tan, -1j))
            cells.append((effective_order(n, b_rad, b), k, b,
                          sign * root / (omega * b_rad), sign / (omega * b)))
    shape = (len(regions), len(keys))
    outgoing = np.zeros(shape, dtype=bool)
    outgoing[-1] = True
    return ModeTable(*(np.array(column).reshape(shape) for column in zip(*cells)),
                     c_j=None, c_y=None, outgoing=outgoing)


def _join_tables(tables) -> ModeTable:
    """`ModeTable`s of one region layout joined along their key columns.

    A `ScaledArray` field joins its mantissas and exponents, and a field
    that is None (c_j and c_y before the solve) stays None.  Joining is a
    copy, so every cell keeps its bits.
    """
    def join(column):
        if column[0] is None:
            return None
        if isinstance(column[0], ScaledArray):
            return ScaledArray(np.concatenate([c.m for c in column], axis=1),
                               np.concatenate([c.e for c in column], axis=1),
                               normalize=False)
        return np.concatenate(column, axis=1)

    return ModeTable._make(join(column) for column in zip(*tables))


class NearSingularMode(RuntimeError):
    pass


@dataclass
class RadialSolve:
    """Diagnostics of the unit-jump radial solve of one (n, pol)."""

    condition: float
    interface_residual: float


@dataclass
class FieldSolution:
    """A solved configuration: medium, source, frequency, coefficient table.

    `modes` is the solve's full `ModeTable`, of shape (regions, keys): one
    column per key of `radial`, in its order.  Row i holds region i's
    radial function c_j jhat_nu(k r) + c_y yhat_nu(k r); in the last row,
    the outgoing one, c_y multiplies hhat and c_j is zero.
    """

    medium: RadialMedium
    source: SurfaceCurrentSource
    omega: float
    regions: tuple
    radial: Dict[tuple, RadialSolve]
    modes: ModeTable

    @functools.cached_property
    def _r_hi(self) -> np.ndarray:
        return np.array([reg.r_hi for reg in self.regions])

    @functools.cached_property
    def _columns(self) -> dict:
        return {key: col for col, key in enumerate(self.radial)}

    def table(self, rows, keys) -> ModeTable:
        """The `ModeTable` of the given regions (negative indices count from
        the last) and (n, pol) keys, each entry of shape
        (len(rows), len(keys))."""
        rows = np.arange(len(self.regions))[np.asarray(rows, dtype=int)]
        ix = np.ix_(rows, [self._columns[key] for key in keys])
        return ModeTable._make(column[ix] for column in self.modes)

    def as_jy(self, rows, keys) -> ModeTable:
        """`table` with the outgoing coefficients rewritten on the (jhat,
        yhat) basis, hhat = yhat + i jhat / ((2nu+1)!!(2nu-1)!!)."""
        t = self.table(rows, keys)
        logd = np.zeros(t.nu.shape)
        logd[t.outgoing] = [(log_dfact_plus(v) + log_dfact_minus(v)) / _LN10
                            for v in t.nu[t.outgoing].tolist()]
        c_j = ScaledArray.where(t.outgoing, (1j * t.c_y).scale10(-logd), t.c_j)
        return t._replace(c_j=c_j, outgoing=np.zeros_like(t.outgoing))

    def region_indices(self, r) -> np.ndarray:
        """Region containing each radius; on a boundary, the inside region wins."""
        idx = np.searchsorted(self._r_hi, r, side="left")
        return np.minimum(idx, len(self.regions) - 1)


def _build_regions(medium: RadialMedium, r_s: float) -> tuple[list, int]:
    """Constant-coefficient regions with the source radius inserted."""
    if not medium.is_piecewise_constant:
        raise ValueError(
            "solve needs a piecewise-constant medium; staircase graded layers first")
    regions = []
    src_idx = None
    for layer in medium.layers:
        er, et = layer.eps.at(layer.r_lo + 1.0)
        mr, mt = layer.mu.at(layer.r_lo + 1.0)
        if layer.r_lo < r_s < layer.r_hi:
            src_idx = len(regions)
            regions.append(RegionSpec(layer.r_lo, r_s, er, et, mr, mt))
            regions.append(RegionSpec(r_s, layer.r_hi, er, et, mr, mt))
        else:
            regions.append(RegionSpec(layer.r_lo, layer.r_hi, er, et, mr, mt))
    if src_idx is None:
        raise ValueError(
            "source radius must lie strictly inside a layer, not on a breakpoint")
    return regions, src_idx


def _state(cj, cy, basis, outgoing=False) -> tuple[ScaledArray, ScaledArray]:
    """Trace pair of the state cj jhat + cy yhat, or cy hhat where `outgoing`
    holds (one flag, or one per element; cj is zero there), from the basis
    traces (e0, h0, e1, h1)."""
    # _solve_radial steps on stacked pair tables; the field kernel (whole
    # (radius x key) tables at once) and _interface_residual keep this
    # elementwise form, as stacking costs them more in copies than it saves
    e0, h0, e1, h1 = basis
    e, h = cy * e1, cy * h1
    if np.all(outgoing):
        return e, h
    # an outgoing element keeps the bare product: adding the zero cj e0
    # would round it to the zero's exponent
    return (ScaledArray.where(outgoing, e, cj * e0 + e),
            ScaledArray.where(outgoing, h, cj * h0 + h))


def _basis_values(nu, z, outgoing) -> tuple:
    """The one Bessel dispatch of the radial basis, over cells of one shape
    with orders nu, arguments z and `outgoing` flags.

    Returns the tables (u0, du0, u1, du1), ScaledArrays of that shape:
    jhat, yhat and their derivatives at each cell's (order, argument), or
    0, 0, hhat and its derivative in an outgoing one.  One hat_jy call takes
    the distinct (order, argument) pairs of all cells, inner and outgoing
    alike, told apart by their bits (so +0.0 and -0.0 stay apart); the
    Bessel functions are elementwise in (order, argument), so each cell gets
    exactly the values of a call on its own order and argument.
    """
    orders, args = nu.ravel(), z.ravel()
    _, first, at = np.unique(
        np.stack([orders, args.real, args.imag], axis=-1).view("V24")[:, 0],
        return_index=True, return_inverse=True)
    vals = hat_jy(orders[first], args[first])
    at = at.reshape(z.shape)
    zero = ScaledArray(0j, 0, normalize=False)

    def table(inner, outer):
        return ScaledArray.where(outgoing, vals[outer][at] if outer else zero, vals[inner][at])

    return table("j", None), table("dj", None), table("y", "h"), table("dy", "dh")


def _end_cells(regions, modes: ModeTable) -> tuple:
    """The radii of every region end, of shape (2, nreg), r_lo then r_hi,
    and the basis cells (nu, z, outgoing) there, each of shape
    (2, nreg, nkeys); the two ends that are not there (r = 0, r = inf) are
    taken at r = 1, unused."""
    radius = np.array([[reg.r_lo for reg in regions],
                       [reg.r_hi for reg in regions]])
    radius[0, 0] = radius[1, -1] = 1.0          # no end there; placeholders
    owner = np.broadcast_to(np.arange(len(regions)), radius.shape)
    return radius, (modes.nu[owner], modes.k[owner] * radius[..., None].astype(complex),
                    modes.outgoing[owner])


def _basis_traces(groups, omega: float) -> list:
    """Basis traces (e0, h0, e1, h1) at every region end for every key, and
    the match determinants there, of each column group of `_solve_radial`.

    Each trace is a ScaledArray of shape (2, nreg, nkeys): [0, i] at r_lo
    and [1, i] at r_hi of region i, one column per (n, pol) key; basis 0 is
    jhat, basis 1 yhat (hhat in the outermost region).  The `_end_cells`
    of every group take their basis values from one `_basis_values` call
    over all of them, concatenated flat.
    """
    ends = [_end_cells(regions, modes) for regions, _, _, modes in groups]
    flat = _basis_values(*(np.concatenate([cells[i].ravel() for _, cells in ends])
                           for i in range(3)))
    cuts = np.cumsum([cells[0].size for _, cells in ends])[:-1]
    parts = zip(*(zip(np.split(v.m, cuts), np.split(v.e, cuts)) for v in flat))
    out = []
    for (_, _, keys, modes), (radius, (nu, _, _)), part in zip(groups, ends, parts):
        u0, du0, u1, du1 = (ScaledArray(m.reshape(nu.shape), e.reshape(nu.shape), normalize=False)
                            for m, e in part)
        k, coef, tan = modes.k, modes.coef, modes.tan
        te = np.array([pol == TE for _, pol in keys])
        inv_r = (1.0 / radius)[..., None]

        def traces(u, du):
            curlish = (du * k + u * inv_r) * tan
            return ScaledArray.where(te, u, curlish), ScaledArray.where(te, curlish, u)

        e0, h0 = traces(u0, du0)
        e1, h1 = traces(u1, du1)
        # exact Wronskian determinant of the basis at each end:
        # -i (2nu+1)/(omega b k r^2), with b the tangential coefficient coef
        rows = [list(zip(*row)) for row in zip(modes.nu.tolist(), k.tolist(), coef.tolist())]
        det = ScaledArray.from_complex(np.array([
            [[-1j * (2.0 * v + 1.0) / (omega * b * kv * r * r) for v, kv, b in rows[i]]
             for i, r in enumerate(row)] for row in radius.tolist()]))
        out.append(((e0, h0, e1, h1), det))
    return out


# Step-table entries as (basis trace, negated), basis traces (e0, h0, e1, h1)
# as `_basis_traces` orders them.  The forward table's [b, t] is trace t
# ([e, h]) of basis b, which maps a pair [c_j, c_y] to its traces; the
# inverse table's [t, b] is what trace t adds to the pair, times the
# Wronskian determinant.
_FORWARD = (((0, False), (1, False)), ((2, False), (3, False)))
_INVERSE = (((3, False), (1, True)), ((2, True), (0, False)))


def _empty(shape) -> ScaledArray:
    return ScaledArray(np.empty(shape, complex), np.empty(shape, np.int64), normalize=False)


def _assign(table: ScaledArray, idx, part: ScaledArray):
    """table[idx] = part."""
    table.m[idx], table.e[idx] = part.m, part.e


def _put_steps(table, cols, basis, side, rows, entries):
    """Write the step-table entries of one end (side 0 r_lo, 1 r_hi) of the
    given regions into columns cols of a (row, 2, 2, key) table."""
    for x, row in enumerate(entries):
        for y, (trace, negated) in enumerate(row):
            part = basis[trace][side, rows]
            _assign(table, np.s_[:, x, y, cols], -part if negated else part)


def _solve_radial(groups, omega):
    """Unit-jump radial solves of ragged column groups, in one region pass.

    Each group is a (regions, src_idx, keys, modes) with its own region
    count; its keys may repeat (one column per key and medium of a batch).
    The coefficients of each column are exactly those of a solve of that
    column alone.  A region's state is one (2, ncols) pair [c_j, c_y] over
    the columns of every group, and each region end is one multiply, add
    and divide on it against padded step tables, so all groups step
    together, as many steps as the longest chain.  Each element takes the
    ufunc sequence of c_j = (e h1 - h e1) / det and c_y = (h e0 - e h0) / det
    with the negations moved onto table entries; IEEE negation is exact and
    sums and products commute, so every coefficient equals that of the
    four-product form exactly.  The source step, the scaling, the condition
    guard and the interface residual then run per group, in group order.
    Returns, per group, the `RadialSolve` of each column, in column order,
    and the (region x key) tables c_j and c_y.
    """
    traces = _basis_traces(groups, omega)
    lasts = [len(regions) - 1 for regions, _, _, _ in groups]
    steps_in = max(src_idx for _, src_idx, _, _ in groups)
    steps_out = max(last - src_idx - 1 for last, (_, src_idx, _, _) in zip(lasts, groups))
    # The padded layout, built once.  Inner step i leaves region i at r_hi
    # for region i + 1 (start-aligned rows); outer step d leaves region
    # last - d at r_lo for region last - d - 1 (end-aligned rows, so d = 0
    # is every group's outgoing step).  Rows past a group's own regions
    # repeat its last ones; cells past its own chain are stepped but never
    # read.
    widths = [len(keys) for _, _, keys, _ in groups]
    stops = np.cumsum(widths)
    spans = [slice(stop - width, stop) for width, stop in zip(widths, stops.tolist())]
    ncols = spans[-1].stop
    # The forward tables have one row more than the chains: a group's
    # source step reads its row there, after its last step.
    f_in, f_out = _empty((steps_in + 1, 2, 2, ncols)), _empty((steps_out + 1, 2, 2, ncols))
    b_in, b_out = _empty((steps_in, 2, 2, ncols)), _empty((steps_out, 2, 2, ncols))
    d_in, d_out = _empty((steps_in, ncols)), _empty((steps_out, ncols))
    for (basis, det), last, cols in zip(traces, lasts, spans):
        inward = np.minimum(np.arange(steps_in + 1), last - 1)
        outward = np.maximum(last - np.arange(steps_out + 1), 1)
        _put_steps(f_in, cols, basis, 1, inward, _FORWARD)
        _put_steps(b_in, cols, basis, 0, inward[:-1] + 1, _INVERSE)
        _assign(d_in, np.s_[:, cols], det[0, inward[:-1] + 1])
        _put_steps(f_out, cols, basis, 0, outward, _FORWARD)
        _put_steps(b_out, cols, basis, 1, outward[:-1] - 1, _INVERSE)
        _assign(d_out, np.s_[:, cols], det[1, outward[:-1] - 1])

    def state(c, fwd, outgoing=False):
        # traces [e, h] of the pair c against forward rows (c_y hhat in the
        # outermost region, where c_j is zero)
        if outgoing:
            return c[1, None] * fwd[1]
        p = c[:, None] * fwd
        return p[0] + p[1]

    def match(t, bwd, det):
        # the pair whose traces at that end are t
        q = t[:, None] * bwd
        return (q[0] + q[1]) / det

    # the states of the inner chains, rows 0..steps_in, then of the outer
    # ones, from the outgoing region inwards
    chain = _empty((2, steps_in + steps_out + 2, ncols))

    def keep(row, c):
        _assign(chain, np.s_[:, row], c)
        return c

    seed = ScaledArray.from_complex(np.array([np.ones(ncols), np.zeros(ncols)]))
    c = keep(0, seed)
    for i in range(steps_in):
        c = keep(1 + i, match(state(c, f_in[i]), b_in[i], d_in[i]))
    c = keep(steps_in + 1, seed[::-1])
    for d in range(steps_out):
        c = keep(steps_in + 2 + d, match(state(c, f_out[d], d == 0), b_out[d], d_out[d]))
    del b_in, d_in, b_out, d_out                  # not live in the per-group work

    solved = []
    for (_, src_idx, keys, _), (basis, _), last, cols in zip(groups, traces, lasts, spans):
        n_out = last - src_idx - 1
        s_m = state(chain[:, src_idx, cols], f_in[src_idx, ..., cols])
        s_p = state(chain[:, steps_in + 1 + n_out, cols], f_out[n_out, ..., cols], n_out == 0)
        e_m, h_m, e_p, h_p = s_m[0], s_m[1], s_p[0], s_p[1]

        # E continuous, H_t jumps by 1:  E+ B - E- A = 0,  H+ B - H- A = 1
        t1 = h_p * e_m
        t2 = h_m * e_p
        det_src = t1 - t2
        conds = []
        for lmag, ldet in zip(np.maximum(t1.log10_abs(), t2.log10_abs()),
                              det_src.log10_abs()):
            mag, det_mag = 10.0 ** lmag, 10.0 ** ldet
            conds.append(math.inf if det_mag == 0 else float(mag / det_mag))
        rows = np.arange(last + 1)[:, None] <= src_idx
        scale = ScaledArray.where(rows, e_p / det_src, e_m / det_src)
        # the group's rows of the chain: its inner states up to the source
        # region, then its outer ones back from there to the outgoing region
        at = np.r_[:src_idx + 1, steps_in + 1 + n_out:steps_in:-1]
        c = chain[:, at, cols] * scale
        c_j, c_y = c[0], c[1]
        resid = _interface_residual(basis, c_j, c_y, src_idx)

        out = []
        for col, (n, pol) in enumerate(keys):
            if conds[col] > _COND_GUARD:
                raise NearSingularMode(
                    f"near-singular mode (n={n}, pol={pol}): condition {conds[col]:.3e}")
            if resid[col] > _INTERFACE_TOL:
                warnings.warn(f"interface residual {resid[col]:.2e} for (n={n}, pol={pol})",
                              RuntimeWarning)
            out.append(RadialSolve(condition=conds[col], interface_residual=float(resid[col])))
        solved.append((out, c_j, c_y))
    return solved


def _interface_residual(basis, c_j, c_y, src_idx) -> np.ndarray:
    """Per key, the relative trace mismatch across every interface (source
    jump included): interface i joins region i at r_hi to region i+1 at r_lo."""
    e_a, h_a = _state(c_j[:-1], c_y[:-1], tuple(b[1, :-1] for b in basis))
    outgoing = np.arange(1, c_j.shape[0])[:, None] == c_j.shape[0] - 1
    e_b, h_b = _state(c_j[1:], c_y[1:], tuple(b[0, 1:] for b in basis), outgoing)
    de = np.abs((e_b - e_a).to_complex())
    dh_s = h_b - h_a
    dh = dh_s.to_complex()
    dh[src_idx] = (dh_s[src_idx] - 1.0).to_complex()
    scale = np.maximum(np.maximum(10.0 ** e_a.log10_abs(), 10.0 ** h_a.log10_abs()), 1e-30)
    return np.fmax.reduce(np.fmax(de, np.abs(dh)) / scale, axis=0, initial=0.0)


def solve(medium: RadialMedium, source: SurfaceCurrentSource,
          omega: float) -> FieldSolution:
    """Solve the radiating transmission problem for a sheet source.

    Sign-changing layers normally carry positive loss; running them lossless
    is allowed only as long as every per-mode system stays away from the
    condition guard `_COND_GUARD`, above which it raises NearSingularMode.
    """
    return _solve_levels([[medium]], source, omega)[0][0]


def _solve_levels(levels, source: SurfaceCurrentSource,
                  omega: float) -> list[list[FieldSolution]]:
    """`solve` of each medium of each level, all levels in one region pass.

    Each level is a list of media that share their region breakpoints, so
    the source lies in the same region of each; its mode tables are joined
    along the key axis into one column group of `_solve_radial`, and levels
    may differ in their region counts.  Each medium's `FieldSolution` gets
    its own columns, with exactly the bits of a solve of that medium alone.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    keys = source.radial_keys()
    nkeys = len(keys)
    groups, built = [], []
    for media in levels:
        regs_src = [_build_regions(medium, source.radius) for medium in media]
        regions, src_idx = regs_src[0]
        ends = [(reg.r_lo, reg.r_hi) for reg in regions]
        for regs, _ in regs_src:
            out = regs[-1]
            if any(abs(c - 1) > 1e-14
                   for c in (out.eps_rad, out.eps_tan, out.mu_rad, out.mu_tan)):
                raise ValueError("outermost layer must be vacuum")
            if [(reg.r_lo, reg.r_hi) for reg in regs] != ends:
                raise ValueError("media solved together need the same region "
                                 "breakpoints, the source radius included")
        tables = [_mode_constants(regs, keys, omega) for regs, _ in regs_src]
        joined = _join_tables(tables)
        groups.append((regions, src_idx, keys * len(media), joined))
        built.append(regs_src)
    solved = []
    for media, regs_src, (_, _, _, joined), (radial, c_j, c_y) in zip(
            levels, built, groups, _solve_radial(groups, omega)):
        joined = joined._replace(c_j=c_j, c_y=c_y)
        solutions = []
        for i, (medium, (regs, _)) in enumerate(zip(media, regs_src)):
            cols = np.arange(i * nkeys, (i + 1) * nkeys)
            solutions.append(FieldSolution(
                medium=medium, source=source, omega=omega, regions=tuple(regs),
                radial=dict(zip(keys, radial[i * nkeys:(i + 1) * nkeys])),
                modes=ModeTable._make(column[:, cols] for column in joined)))
        solved.append(solutions)
    return solved
