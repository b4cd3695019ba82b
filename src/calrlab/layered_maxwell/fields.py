"""Pointwise field evaluation, reflected fields, and the singularity-removing glue.

One kernel, `_components`, evaluates three radial components, u and its
radial and tangential companions, of every (n, pol) mode at radii spread
over several regions into one dense (component x radius x key) array,
whose key columns `_eval_fields` and the norms of
`calrlab.layered_maxwell.norms` index.  It runs `_radial_components` once,
elementwise, over the whole (radius x key) basis tables of
`solver._basis_values`, the dispatch the solver uses for its region ends:
one hat_jy call for inner and outgoing cells alike, elementwise in
(order, argument).
Every step is elementwise, so each radius gets exactly the bits of a call
on it alone.  `_eval_fields` evaluates the solutions of one loss sweep,
which share their source and region ends, at one point set: one kernel
call over their `ModeTable`s joined along the key columns, at the distinct
radii of the points, angular triples on their distinct directions, and a
key loop over the distinct (radius, direction) pairs, each solution on its
own arrays; each point gathers its pair, so it still gets the bits of a
call on it alone with its solution alone.  `eval_field_many` is its
one-solution case.  `residual_reports` answers a whole sweep's gluing
residual reports (both gluing spheres, the finite-difference stencil and
its centres, raw and reflected) from one `_eval_fields` call, and a loss
sweep's norms (`norms.sweep_norms`) evaluate the panels of each quadrature
level in one kernel call.  Every per-(region, mode) constant comes from a
`ModeTable` of the solve, so the TE/TM rule is `solver._mode_constants`
alone; the kernel reads no polarization, and each consumer places the
three components in E and H by it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..media.maps import SmoothMap
from ..media.pushforward import push_forward_tensor
from ..specfun.bessel import hat_jy
from ..specfun.scaled import ScaledArray
from ..specfun.vsh import VshStream, sphere_rule
from .modes import TE, h_jump_factor
from .solver import FieldSolution, ModeTable, _basis_values, _join_tables, _state


def mode_radial_components(sol: FieldSolution, key, i: int, r):
    """Six radial component functions of one (n, pol) key of a solve in
    region i (negative i counts from the last) at radii r.

    Returns (E_Y, E_U, E_V, H_Y, H_U, H_V) as plain complex arrays: the
    coefficients of Y xhat, Utilde, Vtilde in the expansion of E and H.
    This is the one-cell reference of `_components`, with scalar constants
    and one Bessel call on r.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    cell = sol.table([i], [key])
    nu, k = float(cell.nu[0, 0]), complex(cell.k[0, 0])
    outgoing = bool(cell.outgoing[0, 0])
    vals = hat_jy(nu, k * r.astype(complex))
    basis = ((None, None, vals["h"], vals["dh"]) if outgoing
             else (vals["j"], vals["dj"], vals["y"], vals["dy"]))
    u, radial, tangential = _radial_components(
        complex(cell.rad[0, 0]), complex(cell.tan[0, 0]), k, cell.c_j[0], cell.c_y[0],
        basis, outgoing, r)
    zero = np.zeros_like(u)
    if key[1] == TE:
        return zero, zero, u, radial, tangential, zero
    return radial, tangential, zero, zero, zero, u


def _radial_components(rad, tan, k, c_j, c_y, basis, outgoing, r):
    """(u, rad u / r, tan (k du/dz + u / r)) of the radial function
    u = c_j u0 + c_y u1 at radii r, as plain complex arrays, from the cell's
    factors rad and tan (see `solver._mode_constants`), wavenumber k, its
    coefficients, and the basis values (u0, du0, u1, du1) at k r, hhat's in
    u1 where `outgoing` holds.  Every argument is a scalar or broadcasts
    against the others: one cell at many radii, or a (radius x key) table
    with r a column.

    k multiplies du/dz from the right, so it may also be a ScaledArray of
    split wavenumbers; either way the product has the bits of a scalar k.
    """
    u, du = _state(c_j, c_y, basis, outgoing)
    inv_r = 1.0 / r
    curlish = (du * k + u * inv_r).to_complex()
    uval = u.to_complex()
    return uval, rad * uval * inv_r, tan * curlish


def _components(table: ModeTable, owner, r) -> np.ndarray:
    """(u, radial, tangential) of `_radial_components` for every column of
    a `ModeTable` at radii r, with owner the row of each radius: a complex
    array of shape (3, len(r), columns), from one `solver._basis_values`
    call and one elementwise pass over the (radius x key) table.  No value
    is zero by polarization; each consumer places the three in E and H.
    Every product keeps its operand order, so each cell gets exactly the
    values of `mode_radial_components` at its radius alone.
    """
    outgoing = table.outgoing[owner]
    basis = _basis_values(table.nu[owner], table.k[owner] * r[:, None].astype(complex), outgoing)
    return np.stack(_radial_components(
        table.rad[owner], table.tan[owner], ScaledArray.from_complex(table.k)[owner],
        table.c_j[owner], table.c_y[owner], basis, outgoing, r[:, None]))


def _eval_fields(sols, points) -> list:
    """(E, H) of each solution at an (N, 3) array of finite, nonzero points;
    on a breakpoint the inside region is used.  The solutions share their
    source amplitudes and region ends, as the solves of one loss sweep do;
    only their coefficients differ.

    The radial components of every solution come from one `_components`
    kernel over the joined `ModeTable`s at the distinct radii of the points,
    and the angular triples are streamed one (n, m) at a time over their
    distinct directions (theta, phi), told apart by their bits so that
    phi = +0.0 and -0.0 stay apart.  The key loop runs over the distinct
    (radius, direction) pairs, with the solutions inside it, each on its own
    (pairs x 3) arrays; every point then gathers its pair.  A mode's u goes
    along rot into E (TE) or H (TM), and its radial and tangential components
    along rad and grad into the other field.  Every step is elementwise, so
    each point gets exactly the values of a call on it alone with its
    solution alone.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation requires finite points")
    r = np.linalg.norm(pts, axis=1)
    if np.any(r <= 0):
        raise ValueError("evaluation requires |x| > 0")
    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    radii, at_r = np.unique(r, return_inverse=True)
    angles = np.stack([theta, phi], axis=-1)
    _, first, at_d = np.unique(angles.view("V16")[:, 0], return_index=True,
                               return_inverse=True)
    pairs, at_p = np.unique(at_r * len(first) + at_d, return_inverse=True)
    pair_r, pair_d = np.divmod(pairs, len(first))
    sol = sols[0]
    comps = _components(_join_tables([s.modes for s in sols]), sol.region_indices(radii), radii)
    width = sol.modes.nu.shape[1]
    angular = VshStream(sol.source.n_max, theta[first], phi[first])
    out = [(np.zeros((len(pairs), 3), dtype=complex), np.zeros((len(pairs), 3), dtype=complex))
           for _ in sols]
    nm = None
    for key, amp in sol.source.amplitudes.items():
        if (key.n, key.m) != nm:
            nm = (key.n, key.m)
            rad, grad, rot = (v[pair_d] for v in angular(key.n, key.m))
        mult = amp * h_jump_factor(key.pol)
        for i, (s, (e_out, h_out)) in enumerate(zip(sols, out)):
            col = i * width + s._columns[(key.n, key.pol)]
            u, radial, tangential = comps[..., col][:, pair_r, None]
            along_u = mult * (u * rot)
            across = mult * (radial * rad + tangential * grad)
            e_add, h_add = (along_u, across) if key.pol == TE else (across, along_u)
            e_out += e_add
            h_out += h_add
    return [(e[at_p], h[at_p]) for e, h in out]


def eval_field_many(sol: FieldSolution, points) -> tuple[np.ndarray, np.ndarray]:
    """(E, H) at an (N, 3) array of finite, nonzero points; on a
    breakpoint the inside region is used.  The one-solution case of
    `_eval_fields`."""
    return _eval_fields([sol], points)[0]


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


# A gluing residual report's sphere rule for the trace jumps, its random
# directions per sample radius, and the largest finite-difference step.
_JUMP_QUAD_ORDER = 16
_POINTS_PER_RADIUS = 2
_MAX_STEP = 1e-4


@dataclass
class GluedReport:
    jump_rel_r2: float
    jump_rel_r3: float
    maxwell_resid_norm: float
    forcing_norm: float
    forcing_rel_deviation: float


def _trace_jump(pts, w, a, b) -> float:
    """Relative L2 jump between the tangential traces of two (E, H) pairs on
    a sphere, given its unit normals pts and quadrature weights w."""
    num = 0.0
    den = 0.0
    for va, vb in zip(a, b):
        proj = np.sum(va * pts, axis=1)[:, None] * pts
        ta = va - proj
        tb = vb - np.sum(vb * pts, axis=1)[:, None] * pts
        num += float(np.sum(w * np.sum(np.abs(ta - tb) ** 2, axis=1)))
        den += float(np.sum(w * np.sum(np.abs(ta) ** 2, axis=1)))
    return math.sqrt(num / max(den, 1e-300))


class GluedField:
    """The piecewise field that removes the localized singularity.

    Outside the matched annulus it coincides with the raw solution; in the
    annulus D the difference of the two reflections is subtracted; inside it
    equals the doubly reflected field.

    Every evaluation is a list of (branch, points) requests, where a branch
    is the raw solution ("raw"), its reflection through F ("refl1") or
    through G after F ("refl2").  `_fields` answers all of a list with one
    field evaluation, and each request gets the values of an evaluation on
    its points alone.  `residual_reports` takes the glued fields of a whole
    loss sweep and evaluates all of them at once; `residual_report` is its
    one-field case.  The maps must take stacks of points, as those of
    `calrlab.media.maps` do.
    """

    def __init__(self, sol: FieldSolution, f_map: SmoothMap, g_map: SmoothMap,
                 r1: float, r2: float, r3: float):
        self.sol = sol
        self.omega = sol.omega
        self.f_map = f_map
        self.g_map = g_map
        self.r1, self.r2, self.r3 = r1, r2, r3
        # the finite-difference step: an eighth of the narrowest solved
        # region in (r1, r2), and at most _MAX_STEP; a stencil centred on
        # the reflection r2^2/m of a sublayer midpoint m then stays, pulled
        # back through F, inside that sublayer
        self.step = min([_MAX_STEP] + [(reg.r_hi - reg.r_lo) / 8 for reg in sol.regions
                                       if r1 <= reg.r_lo and reg.r_hi <= r2])

    def _pullback(self, branch: str, ys):
        """The points x at which a branch evaluates the solution for points
        ys, and the chain of (map, point) pairs it pulls (E, H) forward
        through, the innermost map first."""
        x = np.atleast_2d(np.asarray(ys, dtype=float))
        chain = []
        for mapping in {"raw": (), "refl1": (self.f_map,),
                        "refl2": (self.g_map, self.f_map)}[branch]:
            x = mapping.inverse(x)
            chain.insert(0, (mapping, x))
        return x, chain

    def _fields(self, requests) -> list:
        """(E, H) of each (branch, points) request, from one field evaluation."""
        return _pushed([self.sol], [self._pullback(branch, ys) for branch, ys in requests])[0]

    def eval_many(self, ys) -> tuple[np.ndarray, np.ndarray]:
        """(E, H) of the glued field at an (N, 3) array of points: the raw
        field outside r3, raw - refl1 + refl2 in D and refl2 inside r2."""
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        r = np.linalg.norm(ys, axis=1)
        core, outside = r <= self.r2, r > self.r3
        annulus = ~core & ~outside
        (e_out, h_out), (e0, h0), (e1, h1), (e2, h2), (e_core, h_core) = self._fields(
            [("raw", ys[outside]), ("raw", ys[annulus]), ("refl1", ys[annulus]),
             ("refl2", ys[annulus]), ("refl2", ys[core])])
        e = np.zeros((len(ys), 3), dtype=complex)
        h = np.zeros((len(ys), 3), dtype=complex)
        e[outside], h[outside] = e_out, h_out
        e[annulus], h[annulus] = e0 - e1 + e2, h0 - h1 + h2
        e[core], h[core] = e_core, h_core
        return e, h

    def residual_report(self, sample_radii, seed: int = 0) -> GluedReport:
        """The one-field case of `residual_reports`."""
        return residual_reports([self], sample_radii, seed)[0]


def _pushed(sols, pulled) -> list:
    """For each solution, (E, H) of each `_pullback` (x, chain): one field
    evaluation of every solution at every x, pulled forward through each
    map's transposed Jacobian, the innermost map first.  Each Jacobian is
    formed once per request and solved against E and H of every solution as
    the columns of one right-hand side."""
    fields = _eval_fields(sols, np.vstack([x for x, _ in pulled]))
    bounds = np.cumsum([len(x) for x, _ in pulled])[:-1]
    out = np.split(np.stack([f for eh in fields for f in eh], axis=-1), bounds)
    for i, (_, chain) in enumerate(pulled):
        for mapping, x in chain:
            out[i] = np.linalg.solve(np.swapaxes(mapping.jacobian(x), -1, -2), out[i])
    return [[(cols[..., 2 * k], cols[..., 2 * k + 1]) for cols in out]
            for k in range(len(sols))]


def _sweep_mismatch(first: GluedField, other: GluedField):
    """The first thing `residual_reports` needs shared that other does not
    share with first, or None."""
    checks = (
        ("source amplitudes", lambda g: list(g.sol.source.amplitudes.items())),
        ("region ends", lambda g: g.sol._r_hi.tolist()),
        ("(r1, r2, r3)", lambda g: (g.r1, g.r2, g.r3)),
        ("F/G maps", lambda g: [(m.label, m.params) for m in (g.f_map, g.g_map)]),
        ("step", lambda g: g.step),
    )
    return next((what for what, of in checks if of(other) != of(first)), None)


def residual_reports(glued_fields, sample_radii, seed: int = 0) -> list:
    """The `GluedReport` of each glued field of one loss sweep at the same
    sample points, from one field evaluation.

    At r2 the tangential trace jump of the glued field reduces to that of
    (field - first reflection); at r3 to that of (first - second
    reflection); both vanish exactly in the continuum because the
    reflections fix their spheres pointwise.  The glued field must satisfy
    curl E = i omega H + delta omega F_* I H1 in D (vacuum background
    there), so the finite-difference residual at _POINTS_PER_RADIUS random
    points per sample radius is compared against that predicted forcing.
    The stencil step is the fields' `step`, which keeps the pulled-back
    stencil off the shell's breakpoints at radii that reflect sublayer
    midpoints.  Every sample radius must lie in (r2 + 4 step, r3 - 4 step),
    so that the whole stencil lies in D, or ValueError names the band; and
    the 13 pulled-back points of each sample's stencil must lie in one
    solved region on each of the three branches, or ValueError names the
    radius and the branch.

    The fields must share source amplitudes, region ends, (r1, r2, r3), the
    F and G maps and `step`, so that every point and every Jacobian is the
    same for all of them; otherwise, or for an empty list, ValueError is
    raised (naming the first mismatch) before any evaluation.  The
    evaluation takes each distinct (radius, direction) pair of the points
    once for all fields, each Jacobian is formed once per request, and each
    report gets exactly the bits of a report on its field alone.
    """
    glued_fields = list(glued_fields)
    if not glued_fields:
        raise ValueError("residual_reports needs at least one glued field")
    first = glued_fields[0]
    for i, other in enumerate(glued_fields[1:], 1):
        what = _sweep_mismatch(first, other)
        if what is not None:
            raise ValueError(f"glued field {i} does not share the {what} of glued field 0")
    h = first.step
    lo, hi = first.r2 + 4 * h, first.r3 - 4 * h
    radii = list(sample_radii)
    if not radii or not all(lo < r < hi for r in radii):
        raise ValueError(f"sample radii {radii} must be a nonempty list in "
                         f"({lo}, {hi}), the gluing annulus less the stencil")
    rng = np.random.default_rng(seed)
    samples = []
    for r in radii:
        for _ in range(_POINTS_PER_RADIUS):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            samples.append(r * d)
    ys = np.array(samples)
    n = len(ys)
    # the stencil: center + four shifts per axis
    stencil = [ys]
    for k in range(3):
        for sgn in (2.0, 1.0, -1.0, -2.0):
            shifted = ys.copy()
            shifted[:, k] += sgn * h
            stencil.append(shifted)
    stencil = np.vstack(stencil)
    pts, w, _, _ = sphere_rule(_JUMP_QUAD_ORDER)
    on_r2, on_r3 = first.r2 * pts, first.r3 * pts
    pulled = [first._pullback(branch, y) for branch, y in (
        ("raw", on_r2), ("refl1", on_r2), ("refl1", on_r3), ("refl2", on_r3),
        ("refl1", ys), ("raw", stencil), ("refl1", stencil), ("refl2", stencil))]
    for branch, (x, _) in zip(("raw", "refl1", "refl2"), pulled[5:]):
        owner = first.sol.region_indices(np.linalg.norm(x, axis=1)).reshape(13, n)
        crossed = np.flatnonzero(np.any(owner != owner[0], axis=0))
        if crossed.size:
            raise ValueError(
                f"the {branch} stencil of sample radius "
                f"{radii[crossed[0] // _POINTS_PER_RADIUS]} crosses a breakpoint "
                f"of the solve at step {h}")
    fstar = push_forward_tensor(first.f_map, np.eye(3), ys)
    reports = []
    for glued, fields in zip(glued_fields, _pushed([g.sol for g in glued_fields], pulled)):
        raw2, refl1_2, refl1_3, refl2_3, (_, h_refl), raw, refl1, refl2 = fields
        jump2 = _trace_jump(pts, w, raw2, refl1_2)
        jump3 = _trace_jump(pts, w, refl1_3, refl2_3)
        e = (raw[0] - refl1[0] + refl2[0]).reshape(13, n, 3)
        h_c = raw[1][:n] - refl1[1][:n] + refl2[1][:n]
        # five-point derivative d_k E from blocks (+2h, +h, -h, -2h)
        de = [(-e[1 + 4 * k] + 8 * e[2 + 4 * k] - 8 * e[3 + 4 * k] + e[4 + 4 * k]) / (12 * h)
              for k in range(3)]
        curls = np.zeros((n, 3), dtype=complex)
        curls[:, 0] = de[1][:, 2] - de[2][:, 1]
        curls[:, 1] = de[2][:, 0] - de[0][:, 2]
        curls[:, 2] = de[0][:, 1] - de[1][:, 0]
        resid = curls - 1j * glued.omega * h_c
        delta = glued.sol.medium.provenance.get("delta", 0.0)
        predicted = delta * glued.omega * (fstar @ h_refl[..., None])[..., 0]
        resid_sq = float(np.mean(np.sum(np.abs(resid) ** 2, axis=1)))
        forcing_sq = float(np.mean(np.sum(np.abs(predicted) ** 2, axis=1)))
        dev_sq = float(np.mean(np.sum(np.abs(resid - predicted) ** 2, axis=1)))
        reports.append(GluedReport(
            jump_rel_r2=jump2,
            jump_rel_r3=jump3,
            maxwell_resid_norm=math.sqrt(resid_sq),
            forcing_norm=math.sqrt(forcing_sq),
            forcing_rel_deviation=math.sqrt(dev_sq / max(forcing_sq, 1e-300)),
        ))
    return reports


def remove_localized_singularity(sol: FieldSolution, f_map: SmoothMap,
                                 g_map: SmoothMap) -> GluedField:
    """Build the glued field for a doubly complementary solve, with the radii
    r1 < r2 < r3 of the medium's constructor provenance; r1 and r2 must be
    breakpoints of the solved medium."""
    prov = sol.medium.provenance
    try:
        r1, r2, r3 = prov["r1"], prov["r2"], prov["r3"]
    except KeyError as exc:
        raise ValueError("geometry needs radii r1 < r2 < r3") from exc
    if not (0 < r1 < r2 < r3):
        raise ValueError("geometry needs 0 < r1 < r2 < r3")
    bps = {round(b, 12) for b in sol.medium.breakpoints}
    for r in (r1, r2):
        if round(r, 12) not in bps:
            raise ValueError(f"gluing radius {r} is not a medium breakpoint")
    return GluedField(sol, f_map, g_map, r1, r2, r3)
