"""Reflections, the fixed-sphere trace identity, and the singularity-removing glue."""
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calrlab.layered_maxwell import (
    GluedField,
    SurfaceCurrentSource,
    eval_field,
    eval_field_many,
    field_evaluator,
    graded_midpoints,
    mode,
    mode_radial_components,
    reflect_solution,
    remove_localized_singularity,
    residual_reports,
    solve,
    staircase,
)
from calrlab.media import dcm_maps, identity_map, kelvin_map, make_dcm_example, vacuum_medium
from calrlab.layered_maxwell.modes import h_jump_factor
from calrlab.specfun import sphere_rule, vsh_table
from layered_cases import eps_ne_mu_solution

import calrlab.layered_maxwell.fields as fields


def _dcm_solution(delta, layers=48, n_hi=2):
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=delta), layers)
    amps = {}
    rng = np.random.default_rng(7)
    for n in range(1, n_hi + 1):
        for m in (-1, 0, 1):
            amps[mode(n, m, "TE")] = complex(rng.standard_normal(), rng.standard_normal())
            amps[mode(n, m, "TM")] = complex(rng.standard_normal(), rng.standard_normal())
    src = SurfaceCurrentSource(radius=5.0, amplitudes=amps)
    return solve(med, src, 1.0), med


def test_reflect_identity_map():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    sol = solve(vacuum_medium(), src, 1.0)
    refl = reflect_solution(sol, identity_map())
    x = np.array([1.0, 0.7, -0.4])
    e0, h0 = eval_field(sol, x)
    e1, h1 = refl(x)
    assert np.allclose(e0, e1) and np.allclose(h0, h1)


def test_reflect_kelvin_direct_substitution():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    sol = solve(vacuum_medium(), src, 1.0)
    k = kelvin_map(2.0)
    refl = reflect_solution(sol, k)
    y = np.array([2.5, 1.0, -0.5])
    x = k.inverse(y)
    e_x, h_x = eval_field(sol, x)
    jt = k.jacobian(x).T
    e_want = np.linalg.solve(jt, e_x)
    h_want = np.linalg.solve(jt, h_x)
    e_got, h_got = refl(y)
    assert np.allclose(e_got, e_want) and np.allclose(h_got, h_want)


def test_fixed_sphere_tangential_trace_identity():
    # F fixes |x| = r2 pointwise with tangential-identity Jacobian, so the
    # reflected field has identical tangential traces there, whatever the medium
    sol, med = _dcm_solution(1e-3)
    f, _ = dcm_maps(med)
    refl = reflect_solution(sol, f)
    pts, w, _, _ = sphere_rule(12)
    worst = 0.0
    for p in pts[::7]:
        y = 2.0 * p
        e0, h0 = eval_field(sol, y)
        e1, h1 = refl(y)
        for a, b in ((e0, e1), (h0, h1)):
            ta = a - np.dot(a, p) * p
            tb = b - np.dot(b, p) * p
            scale = max(np.max(np.abs(ta)), 1e-30)
            worst = max(worst, float(np.max(np.abs(ta - tb)) / scale))
    assert worst < 1e-9


def test_reflection_region_guard():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    sol = solve(vacuum_medium(), src, 1.0)
    refl = reflect_solution(sol, kelvin_map(2.0), region=lambda x: np.linalg.norm(x) < 2.0)
    with pytest.raises(ValueError):
        refl(np.array([1.0, 0, 0]))  # pullback lands outside the declared region


def test_glued_field_vacuum_degenerate():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    sol = solve(vacuum_medium(), src, 1.0)
    glued = GluedField(sol, identity_map(), identity_map(), 1.0, 2.0, 4.0)
    for r in (0.5, 3.0, 4.5):
        y = np.array([r, 0.1, 0.2])
        y *= r / np.linalg.norm(y)
        e0, h0 = eval_field(sol, y)
        (e1,), (h1,) = glued.eval_many(y[None, :])
        assert np.allclose(e0, e1, rtol=1e-12)
        assert np.allclose(h0, h1, rtol=1e-12)


def test_glued_exterior_identical():
    sol, med = _dcm_solution(1e-3)
    f, g = dcm_maps(med)
    glued = remove_localized_singularity(sol, f, g)
    y = np.array([4.3, 1.0, -2.0])
    e0, h0 = eval_field(sol, y)
    (e1,), (h1,) = glued.eval_many(y[None, :])
    assert np.allclose(e0, e1) and np.allclose(h0, h1)


def test_glued_report_jumps_and_forcing():
    delta = 1e-3
    sol, med = _dcm_solution(delta)
    f, g = dcm_maps(med)
    glued = remove_localized_singularity(sol, f, g)
    mids = graded_midpoints(med, 1.0, 2.0)
    radii = sorted(4.0 / m for m in mids if 2.2 < 4.0 / m < 3.8)[::6]
    rep = glued.residual_report(radii)
    assert rep.jump_rel_r2 < 1e-9
    assert rep.jump_rel_r3 < 1e-9
    # the interior Maxwell defect equals the predicted delta-forcing
    assert rep.forcing_rel_deviation < 0.05
    assert rep.maxwell_resid_norm / delta < 10 * max(rep.forcing_norm / delta, 1.0)


def test_glued_residual_scales_with_delta():
    ratios = []
    for delta in (1e-2, 1e-3):
        sol, med = _dcm_solution(delta, layers=48, n_hi=1)
        f, g = dcm_maps(med)
        glued = remove_localized_singularity(sol, f, g)
        mids = graded_midpoints(med, 1.0, 2.0)
        radii = sorted(4.0 / m for m in mids if 2.3 < 4.0 / m < 3.7)[::8]
        rep = glued.residual_report(radii)
        ratios.append(rep.maxwell_resid_norm / delta)
    assert max(ratios) / min(ratios) < 2.0


def _directions(rng, count):
    d = rng.standard_normal((count, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


def test_grouped_evaluation_matches_separate_calls():
    # a stays below |k r| = 8 (ascending series), b goes above it (Miller);
    # both reach the outermost region, and one batch keeps a's bits
    sol, _ = _dcm_solution(1e-3)
    rng = np.random.default_rng(3)
    a = rng.uniform(0.5, 7.5, (40, 1)) * _directions(rng, 40)
    b = rng.uniform(8.5, 12.0, (15, 1)) * _directions(rng, 15)
    e, h = eval_field_many(sol, np.vstack([a, b]))
    (ea, ha), (eb, hb) = eval_field_many(sol, a), eval_field_many(sol, b)
    assert np.array_equal(e, np.vstack([ea, eb]))
    assert np.array_equal(h, np.vstack([ha, hb]))


def test_field_kernel_matches_per_region_assembly():
    # one kernel evaluates every region together; each region must get
    # exactly the field assembled region by region from the public per-mode
    # components.  At omega = 3 the core (|k r| = 3.6) stays on the
    # ascending series while the shell layer (|k r| ~ 9) takes the Miller
    # path, with the same order and basis (hat_jy), so the core's bits hold
    # only if one Bessel call over both regions is elementwise.  The source
    # at 2.4 puts the outgoing exterior (hat_h1) on both sides of |k r| = 8.
    # In the eps != mu medium TE and TM have different orders in the core,
    # so there they share neither end values nor a Bessel basis.
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2), 8)
    amps = {mode(n, m, pol): complex(n + m, 1.0 - m)
            for n in (1, 2, 3) for m in (-1, 0, 1) for pol in ("TE", "TM")}
    sol = solve(med, SurfaceCurrentSource(radius=2.4, amplitudes=amps), 3.0)
    radii = np.array([0.3, 0.7, 1.3, 1.31, 2.2, 2.5, 2.6, 4.0, 6.0])
    rng = np.random.default_rng(11)
    pts = radii[:, None] * _directions(rng, len(radii))
    r = np.linalg.norm(pts, axis=1)
    region_of = sol.region_indices(r)
    assert sol.regions[region_of[0]].r_hi == 1.0
    assert region_of[2] == region_of[3] and sol.regions[region_of[2]].r_lo >= 1.0
    assert region_of[-1] == len(sol.regions) - 1 == region_of[5]
    _assert_kernel_matches_per_region_assembly(sol, pts)
    assert all(v.shape == (0, 3) for v in eval_field_many(sol, np.zeros((0, 3))))
    sol = eps_ne_mu_solution()
    keys = list(sol.radial)
    assert sol.modes.nu[0, keys.index((1, "TE"))] != sol.modes.nu[0, keys.index((1, "TM"))]
    radii = np.array([0.2, 0.6, 0.95, 1.0, 1.5, 1.9, 2.5, 3.0, 3.5, 6.0])
    pts = radii[:, None] * _directions(rng, len(radii))
    _assert_kernel_matches_per_region_assembly(sol, pts)


def _assert_kernel_matches_per_region_assembly(sol, pts):
    """One evaluation against the field assembled from
    `mode_radial_components` region by region, bit for bit."""
    r = np.linalg.norm(pts, axis=1)
    region_of = sol.region_indices(r)
    e, h = eval_field_many(sol, pts)
    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
    table = vsh_table(sol.source.n_max, theta, np.arctan2(pts[:, 1], pts[:, 0]))
    e_ref = np.zeros((len(pts), 3), dtype=complex)
    h_ref = np.zeros((len(pts), 3), dtype=complex)
    for key, amp in sol.source.amplitudes.items():
        mult = amp * h_jump_factor(key.pol)
        for idx in np.unique(region_of):
            sel = region_of == idx
            e_y, e_u, e_v, h_y, h_u, h_v = mode_radial_components(
                sol, (key.n, key.pol), idx, r[sel])
            rad, grad, rot = (v[sel] for v in table[(key.n, key.m)])
            e_ref[sel] += mult * (e_y[:, None] * rad + e_u[:, None] * grad
                                  + e_v[:, None] * rot)
            h_ref[sel] += mult * (h_y[:, None] * rad + h_u[:, None] * grad
                                  + h_v[:, None] * rot)
    assert np.array_equal(e, e_ref) and np.array_equal(h, h_ref)


def test_breakpoint_lookup_takes_inside_region():
    sol, _ = _dcm_solution(1e-3, layers=8)
    rs = [r for reg in sol.regions[:-1]
          for r in (np.nextafter(reg.r_hi, 0.0), reg.r_hi, np.nextafter(reg.r_hi, np.inf))]
    want = [next(i for i, reg in enumerate(sol.regions) if r <= reg.r_hi) for r in rs]
    assert sol.region_indices(np.array(rs)).tolist() == want
    assert [int(sol.region_indices(r)) for r in rs] == want
    # a point on the z axis has |x| equal to its coordinate, bit for bit
    for r in rs:
        e, h = eval_field_many(sol, [[0.0, 0.0, r]])
        e1, h1 = eval_field_many(sol, [[0.0, 0.0, r], [0.0, 0.0, r]])
        assert np.array_equal(e1, [e[0], e[0]]) and np.array_equal(h1, [h[0], h[0]])


@pytest.mark.parametrize("point", [[math.nan, 0.0, 1.0], [math.inf, 0.0, 1.0]])
def test_field_evaluation_rejects_a_non_finite_point(point):
    # a ValueError naming the cause, raised before any arithmetic warns
    src = SurfaceCurrentSource(radius=2.0, amplitudes={mode(1, 0, "TE"): 1.0})
    sol = solve(vacuum_medium(), src, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            eval_field_many(sol, [[0.0, 0.0, 1.0], point])


def test_glued_eval_many_matches_single_point_reflections():
    sol, med = _dcm_solution(1e-3)
    f, g = dcm_maps(med)
    glued = remove_localized_singularity(sol, f, g)
    refl1 = reflect_solution(sol, f)
    refl2 = reflect_solution(refl1, g)
    rng = np.random.default_rng(5)
    radii = np.concatenate([rng.uniform(1.2, 1.9, 4), rng.uniform(2.1, 3.9, 6),
                            rng.uniform(4.1, 6.0, 4)])
    ys = radii[:, None] * _directions(rng, len(radii))
    e, h = glued.eval_many(ys)
    for y, r, ey, hy in zip(ys, radii, e, h):
        if r > glued.r3:
            want = eval_field(sol, y)
        elif r > glued.r2:
            want = [a - b + c for a, b, c in zip(eval_field(sol, y), refl1(y), refl2(y))]
        else:
            want = refl2(y)
        for got, ref in zip((ey, hy), want):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_field_evaluation_memory_at_glue_high_order_size(monkeypatch):
    # the one field evaluation of a two-loss sweep's residual reports at the
    # size of the glue_high_order benchmark workload: 2128 points x 24 keys
    # x 19 regions, for both losses.  Its tracemalloc peak read 10.2 MB with
    # the per-set kernel that the dense basis tables replaced, for one loss
    import tracemalloc

    from calrlab.layered_maxwell.refine import solve_staircased
    from calrlab.scenarios import mixed_mode_source
    sols = solve_staircased([make_dcm_example(1.0, 2.0, 2.0, d) for d in (1e-2, 1e-3)],
                            mixed_mode_source(5.0, 12, 19), 1.0, layers=16,
                            richardson=False)
    glued = [remove_localized_singularity(sol, *dcm_maps(sol.medium)) for sol in sols]
    radii = sorted(4.0 / m for m in graded_midpoints(sols[0].medium, 1.0, 2.0)
                   if 2.2 < 4.0 / m < 0.95 * glued[0].r3)[::12]
    peaks = []
    calls = {"_components": 0, "VshStream": 0}
    eval_fields, components, stream = fields._eval_fields, fields._components, fields.VshStream

    def measured(sols, points):
        tracemalloc.start()
        try:
            return eval_fields(sols, points)
        finally:
            peaks.append((len(sols), len(points), tracemalloc.get_traced_memory()[1]))
            tracemalloc.stop()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fields, "_eval_fields", measured)
    monkeypatch.setattr(fields, "_components", counted("_components", components))
    monkeypatch.setattr(fields, "VshStream", counted("VshStream", stream))
    residual_reports(glued, radii, seed=19)
    assert all(len(sol.radial) == 24 and len(sol.regions) == 19 for sol in sols)
    assert [(k, n) for k, n, _ in peaks] == [(2, 2128)]
    assert calls == {"_components": 1, "VshStream": 1}
    assert peaks[0][2] < 1.5 * 10.2e6


def _closure_glued(glued, ys):
    """The glued-field requests at ys and their assembly, as first written:
    a closure over the three-part split."""
    r = np.linalg.norm(ys, axis=1)
    outside = r > glued.r3
    annulus = (r > glued.r2) & ~outside
    core = ~outside & ~annulus
    parts = [(sel, branches) for sel, branches in (
        (outside, ("raw",)), (annulus, ("raw", "refl1", "refl2")),
        (core, ("refl2",))) if np.any(sel)]
    requests = [(b, ys[sel]) for sel, branches in parts for b in branches]

    def assemble(results):
        e = np.zeros((len(ys), 3), dtype=complex)
        h = np.zeros((len(ys), 3), dtype=complex)
        it = iter(results)
        for sel, branches in parts:
            if len(branches) == 1:
                e[sel], h[sel] = next(it)
            else:
                (e0, h0), (e1, h1), (e2, h2) = next(it), next(it), next(it)
                e[sel] = e0 - e1 + e2
                h[sel] = h0 - h1 + h2
        return e, h

    return requests, assemble


def _closure_fields(glued, requests):
    """(E, H) of each (branch, points) request as first written: one
    `eval_field_many` call, then, per request and per map, E and H each
    solved alone against the transposed Jacobian."""
    pulled = [glued._pullback(branch, ys) for branch, ys in requests]
    e_all, h_all = eval_field_many(glued.sol, np.vstack([x for x, _ in pulled]))
    bounds = np.cumsum([len(x) for x, _ in pulled])[:-1]
    out = []
    for (_, chain), e, h in zip(pulled, np.split(e_all, bounds), np.split(h_all, bounds)):
        for mapping, x in chain:
            jt = np.swapaxes(mapping.jacobian(x), -1, -2)
            e = np.linalg.solve(jt, e[..., None])[..., 0]
            h = np.linalg.solve(jt, h[..., None])[..., 0]
        out.append((e, h))
    return out


def _closure_residual_report(glued, sample_radii, seed):
    """`GluedField.residual_report` as first written, at its one used
    setting: 16 nodes, 2 points per radius, h = 1e-4, the closure's
    assembly and a per-point push-forward of the forcing."""
    from calrlab.layered_maxwell.fields import GluedReport, _trace_jump
    from calrlab.media import push_forward_tensor
    h = 1e-4
    rng = np.random.default_rng(seed)
    samples = []
    for r in sample_radii:
        if not (glued.r2 + 4 * h < r < glued.r3 - 4 * h):
            continue
        for _ in range(2):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            samples.append(r * d)
    ys = np.array(samples)
    n = len(ys)
    stencil = [ys]
    for k in range(3):
        for sgn in (2.0, 1.0, -1.0, -2.0):
            shifted = ys.copy()
            shifted[:, k] += sgn * h
            stencil.append(shifted)
    requests, assemble = _closure_glued(glued, np.vstack(stencil))
    pts, w, _, _ = sphere_rule(16)
    on_r2, on_r3 = glued.r2 * pts, glued.r3 * pts
    raw2, refl1_2, refl1_3, refl2_3, (_, h1), *rest = _closure_fields(glued, [
        ("raw", on_r2), ("refl1", on_r2), ("refl1", on_r3), ("refl2", on_r3),
        ("refl1", ys)] + requests)
    e_all, h_all = assemble(rest)
    h_c = h_all[:n]
    curls = np.zeros((n, 3), dtype=complex)

    def block(idx):
        return e_all[idx * n:(idx + 1) * n]

    de = [(-block(1 + 4 * k) + 8 * block(2 + 4 * k)
           - 8 * block(3 + 4 * k) + block(4 + 4 * k)) / (12 * h) for k in range(3)]
    curls[:, 0] = de[1][:, 2] - de[2][:, 1]
    curls[:, 1] = de[2][:, 0] - de[0][:, 2]
    curls[:, 2] = de[0][:, 1] - de[1][:, 0]
    resid = curls - 1j * glued.omega * h_c
    delta = glued.sol.medium.provenance.get("delta", 0.0)
    predicted = np.empty_like(resid)
    for i, y in enumerate(ys):
        fstar = push_forward_tensor(glued.f_map, np.eye(3), y)
        predicted[i] = delta * glued.omega * (fstar @ h1[i])
    resid_sq = float(np.mean(np.sum(np.abs(resid) ** 2, axis=1)))
    forcing_sq = float(np.mean(np.sum(np.abs(predicted) ** 2, axis=1)))
    dev_sq = float(np.mean(np.sum(np.abs(resid - predicted) ** 2, axis=1)))
    return GluedReport(
        jump_rel_r2=_trace_jump(pts, w, raw2, refl1_2),
        jump_rel_r3=_trace_jump(pts, w, refl1_3, refl2_3),
        maxwell_resid_norm=math.sqrt(resid_sq),
        forcing_norm=math.sqrt(forcing_sq),
        forcing_rel_deviation=math.sqrt(dev_sq / max(forcing_sq, 1e-300)),
    )


def _gluing_demo_fields(params):
    """The glued field and sample radii of each loss of a `gluing_demo` run
    at params (over the scenario's defaults), built as the scenario does."""
    from calrlab.scenarios import SCENARIOS, Sweep, _dcm, _gluing_radii
    p = {**SCENARIOS["gluing_demo"].defaults, **params}
    for sol in Sweep(_dcm, richardson=False).solves(p)[0]:
        glued = remove_localized_singularity(sol, *dcm_maps(sol.medium))
        yield glued, _gluing_radii(p, sol.medium), p["seed"]


@pytest.mark.parametrize("params", [{"n_src": 12, "layers": 16, "deltas": [1e-2, 1e-3]}, {}],
                         ids=["glue_high_order", "gluing_demo_defaults"])
def test_glued_report_and_eval_many_match_first_written_bodies_bitwise(params):
    # the sweep's reports, each field's own report and eval_many against the
    # closure-assembled bodies they replaced, whose push-forward solves E
    # and H of one field one column at a time: at these configs the step
    # from the solve is the old fixed 1e-4, so every field must agree with ==
    rng = np.random.default_rng(23)
    sweep = list(_gluing_demo_fields(params))
    _, radii, seed = sweep[0]
    assert all(r == radii and s == seed for _, r, s in sweep)
    reports = residual_reports([glued for glued, _, _ in sweep], radii, seed=seed)
    assert len(reports) == len(sweep) > 1
    for (glued, radii, seed), report in zip(sweep, reports):
        assert glued.step == 1e-4
        want = _closure_residual_report(glued, radii, seed)
        assert report == want
        assert glued.residual_report(radii, seed=seed) == want
        # points in the core, the annulus D and outside r3, interleaved, and
        # points in D alone; tobytes tells -0.0 from +0.0
        r = np.concatenate([rng.uniform(1.1, 1.9, 5), rng.uniform(2.1, 3.9, 7),
                            rng.uniform(4.1, 6.0, 5), [2.0, 4.0]])
        for r in (rng.permutation(r), rng.uniform(2.1, 3.9, 4)):
            ys = r[:, None] * _directions(rng, len(r))
            requests, assemble = _closure_glued(glued, ys)
            want = assemble(_closure_fields(glued, requests))
            got = glued.eval_many(ys)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("r1, r2", [(0.05, 0.1), (0.01, 0.02)])
def test_gluing_demo_thin_shell_step_follows_the_solve(tmp_path, r1, r2):
    # the shell's 192 layers are 2.6e-4 and 5.2e-5 wide, so a fixed step of
    # 1e-4 pulled back through F crossed their breakpoints: forcing_rel_dev
    # read 4.1e2 to 1.0e6 and resid_over_delta_bounded failed
    from calrlab.scenarios import run_scenario
    res = run_scenario("gluing_demo", {"r1": r1, "r2": r2, "n_src": 1}, tmp_path)
    assert all(passed for _, passed, _ in res["assertions"])
    rows = (tmp_path / "gluing_demo.csv").read_text().splitlines()
    assert rows[0].split(",")[-1] == "forcing_rel_dev"
    assert max(float(row.split(",")[-1]) for row in rows[1:]) < 1e-4


def test_glued_report_rejects_a_radius_outside_the_stencil_band():
    sol, med = _dcm_solution(1e-3)
    glued = remove_localized_singularity(sol, *dcm_maps(med))
    band = rf"\({glued.r2 + 4 * glued.step}, {glued.r3 - 4 * glued.step}\)"
    for radii in ([2.5, glued.r2 + 2 * glued.step], [3.0, 4.5], []):
        with pytest.raises(ValueError, match=band):
            glued.residual_report(radii)


def _shared_radius_and_direction_points(sol):
    """Sphere-rule points at two radii (every direction twice), both poles,
    phi = +0.0 and -0.0, and a breakpoint radius, interleaved."""
    pts, _, _, _ = sphere_rule(4)
    bp = sol.regions[2].r_hi
    special = np.array([[0.0, 0.0, 2.5], [0.0, 0.0, -2.5], [1.5, 0.0, 0.7],
                        [1.5, -0.0, 0.7], [-1.5, 0.0, 0.7], [-1.5, -0.0, 0.7],
                        [0.0, 0.0, bp], [bp, -0.0, 0.0], [0.0, -0.0, -bp]])
    return np.random.default_rng(29).permutation(np.vstack([2.5 * pts, 3.5 * pts, special]))


def test_shared_radii_and_directions_keep_each_points_bits():
    # the kernel runs on the distinct radii and the angular triples on the
    # distinct directions; each point must still get the bytes of a call on
    # it alone, -0.0 and +0.0 included
    sol, _ = _dcm_solution(1e-3, layers=8)
    ys = _shared_radius_and_direction_points(sol)
    assert np.any(np.signbit(ys[:, 1]) & (ys[:, 1] == 0.0))
    e, h = eval_field_many(sol, ys)
    for y, ey, hy in zip(ys, e, h):
        (e1,), (h1,) = eval_field_many(sol, y[None, :])
        assert ey.tobytes() == e1.tobytes() and hy.tobytes() == h1.tobytes()


def test_field_evaluation_works_on_distinct_radii_and_directions(monkeypatch):
    sol, _ = _dcm_solution(1e-3, layers=8)
    ys = _shared_radius_and_direction_points(sol)
    seen = {}
    components, stream = fields._components, fields.VshStream

    def spy_components(table, owner, r):
        seen["r"] = r
        return components(table, owner, r)

    def spy_stream(nmax, theta, phi):
        seen["angles"] = np.stack([theta, phi], axis=-1)
        return stream(nmax, theta, phi)

    monkeypatch.setattr(fields, "_components", spy_components)
    monkeypatch.setattr(fields, "VshStream", spy_stream)
    eval_field_many(sol, ys)
    r = np.linalg.norm(ys, axis=1)
    assert sorted(seen["r"].tolist()) == sorted(set(r.tolist()))
    angles = np.stack([np.arccos(np.clip(ys[:, 2] / r, -1.0, 1.0)),
                       np.arctan2(ys[:, 1], ys[:, 0])], axis=-1)
    want = {a.tobytes() for a in angles}
    assert len(seen["angles"]) == len(want) < len(ys)
    assert {a.tobytes() for a in seen["angles"]} == want
    # phi = +0.0 and -0.0 are two directions, though equal as numbers
    assert len({tuple(a) for a in angles.tolist()}) < len(want)


def test_glued_report_rejects_a_stencil_across_a_breakpoint():
    # a sample radius whose reflection through F lies within the step of a
    # shell breakpoint puts its pulled-back stencil on both sides of it
    sol, med = _dcm_solution(1e-3)
    glued = remove_localized_singularity(sol, *dcm_maps(med))
    b = next(reg.r_hi for reg in sol.regions if 1.2 < reg.r_hi < 1.8)
    r = glued.r2 ** 2 / b + glued.step / 4
    with pytest.raises(ValueError, match=re.escape(f"refl1 stencil of sample radius {r} crosses")):
        glued.residual_report([2.5, r])


@functools.lru_cache(maxsize=None)
def _sweep_solutions(deltas, layers, n_src, seed):
    """The solves of one `gluing_demo`-style loss sweep (r1 1, r2 2, p 2,
    omega 1, r_s 5, no Richardson), cached across examples."""
    from calrlab.layered_maxwell.refine import solve_staircased
    from calrlab.scenarios import mixed_mode_source
    return tuple(solve_staircased([make_dcm_example(1.0, 2.0, 2.0, d) for d in deltas],
                                  mixed_mode_source(5.0, n_src, seed), 1.0, layers=layers,
                                  richardson=False))


def _polar(pts):
    """(r, theta, phi) of each point, as field evaluation computes them."""
    r = np.linalg.norm(pts, axis=1)
    return np.stack([r, np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0)),
                     np.arctan2(pts[:, 1], pts[:, 0])], axis=-1)


def _polar_twin(rng):
    """Two points whose (r, theta, phi) bits agree while their x bits differ."""
    for _ in range(1000):
        a = rng.uniform(0.5, 6.0) * _directions(rng, 1)[0]
        b = a.copy()
        b[0] = np.nextafter(a[0], np.inf)
        if _polar(a[None]).tobytes() == _polar(b[None]).tobytes():
            return a, b
    raise AssertionError("no twin found")


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
# gluing_demo's defaults: three losses of a 192-layer shell, n_src 2, seed 19
@example(deltas=(1e-2, 1e-3, 1e-4), layers=192, n_src=2, seed=19, count=30)
@example(deltas=(1e-3,), layers=8, n_src=1, seed=0, count=1)
@given(deltas=st.lists(st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5]), min_size=1, max_size=3,
                       unique=True).map(tuple),
       layers=st.sampled_from([4, 8, 16]), n_src=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), count=st.integers(1, 40))
def test_sweep_evaluation_matches_each_solutions_own_bitwise(deltas, layers, n_src, seed,
                                                              count):
    # one evaluation of a loss sweep, over the joined mode tables and the
    # distinct (radius, direction) pairs, must give each solution the bytes
    # of its own evaluation; the points repeat, include a pair with the same
    # (r, theta, phi) bits but other (x, y, z) bits, phi = +0.0 and -0.0 on
    # both sides of the z axis, and a breakpoint radius on the axis
    sols = _sweep_solutions(deltas, layers, n_src, 19 if seed == 19 else 7)
    rng = np.random.default_rng(seed)
    bp = sols[0].regions[len(sols[0].regions) // 2].r_hi
    radii = rng.uniform(0.3, 7.0, count)
    pts = radii[:, None] * _directions(rng, count)
    twin = _polar_twin(rng)
    special = np.array([[1.5, 0.0, 0.7], [1.5, -0.0, 0.7], [-1.5, 0.0, 0.7],
                        [-1.5, -0.0, 0.7], [0.0, 0.0, bp], [0.0, -0.0, -bp], *twin])
    pts = np.vstack([pts, pts[rng.integers(0, count, 3)], special])
    pts = pts[rng.permutation(len(pts))]
    polar = _polar(pts)
    assert len({row.tobytes() for row in polar}) < len({row.tobytes() for row in pts})
    got = fields._eval_fields(list(sols), pts)
    assert len(got) == len(sols)
    for sol, (e, h) in zip(sols, got):
        e1, h1 = eval_field_many(sol, pts)
        assert e.tobytes() == e1.tobytes() and h.tobytes() == h1.tobytes()


def test_residual_reports_reject_an_empty_list(monkeypatch):
    monkeypatch.setattr(fields, "_eval_fields", _no_evaluation)
    with pytest.raises(ValueError, match="at least one glued field"):
        residual_reports([], [2.5])


def _no_evaluation(*args):
    raise AssertionError("evaluated before the check")


def _mismatched(case, glued):
    """A glued field that differs from glued in the named shared input only
    (and in what follows from it)."""
    from dataclasses import replace
    if case == "source amplitudes":
        sol, med = _dcm_solution(1e-2, n_hi=1)
        return remove_localized_singularity(sol, *dcm_maps(med))
    if case == "region ends":
        sol, med = _dcm_solution(1e-2, layers=24)
        return remove_localized_singularity(sol, *dcm_maps(med))
    if case == "(r1, r2, r3)":
        return GluedField(glued.sol, glued.f_map, glued.g_map, glued.r1, glued.r2, 4.5)
    if case == "F/G maps":
        return GluedField(glued.sol, glued.f_map, replace(glued.g_map, params={"r2": 5.0}),
                          glued.r1, glued.r2, glued.r3)
    other = GluedField(glued.sol, glued.f_map, glued.g_map, glued.r1, glued.r2, glued.r3)
    other.step = glued.step / 2
    return other


@pytest.mark.parametrize("case", ["source amplitudes", "region ends", "(r1, r2, r3)",
                                  "F/G maps", "step"])
def test_residual_reports_reject_fields_of_another_sweep(monkeypatch, case):
    sol, med = _dcm_solution(1e-3)
    glued = remove_localized_singularity(sol, *dcm_maps(med))
    other = _mismatched(case, glued)
    monkeypatch.setattr(fields, "_eval_fields", _no_evaluation)
    with pytest.raises(ValueError, match=re.escape(f"glued field 2 does not share the {case}")):
        residual_reports([glued, glued, other], [2.5])
