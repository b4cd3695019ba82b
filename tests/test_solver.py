"""Per-mode solver against closed forms, Maxwell residuals, and energy identities."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calrlab.layered_maxwell import (
    SurfaceCurrentSource,
    data_quantity,
    eval_field,
    fd_curl,
    field_evaluator,
    l2_norm_annulus,
    mode,
    mode_radial_components,
    solve,
    staircase,
)
from calrlab.layered_maxwell.solver import ModeTable
from calrlab.media import (
    Layer,
    LayerCoeff,
    RadialMedium,
    make_cm_cloak,
    make_dcm_example,
    make_superlens,
    vacuum_medium,
)
from layered_cases import eps_ne_mu_medium, eps_ne_mu_solution

mp.mp.dps = 40


def _hat_j(n, t):
    t = mp.mpf(t)
    df = mp.mpf(1)
    for k in range(1, n + 1):
        df *= 2 * k + 1
    return complex(df * mp.sqrt(mp.pi / (2 * t)) * mp.besselj(n + mp.mpf(1) / 2, t))


def _hat_h(n, t):
    """i h1_n(t) / (2n-1)!! (the package's outgoing normalization)."""
    t = mp.mpf(t)
    df = mp.mpf(1)
    for k in range(1, n + 1):
        df *= 2 * k - 1
    h1 = mp.sqrt(mp.pi / (2 * t)) * (mp.besselj(n + mp.mpf(1) / 2, t)
                                     + 1j * mp.bessely(n + mp.mpf(1) / 2, t))
    return complex(1j * h1 / df)


def test_vacuum_single_mode_closed_form():
    # hand-solved 2x2 system: with t = omega R_s,
    #   interior  u(r) = A jhat_n(omega r), A = i t^2 hhat_n(t) / (2n+1)
    #   exterior  u(r) = B hhat_n(omega r), B = i t^2 jhat_n(t) / (2n+1)
    # for a unit tangential-H jump; the Wronskian -(2n+1)/t^2 closes it.
    omega, r_s, n = 1.0, 5.0, 1
    src = SurfaceCurrentSource(radius=r_s, amplitudes={mode(n, 0, "TE"): 1.0})
    sol = solve(vacuum_medium(), src, omega)
    rs = sol.radial[(n, "TE")]
    t = omega * r_s
    a_expect = 1j * t * t * _hat_h(n, t) / (2 * n + 1)
    b_expect = 1j * t * t * _hat_j(n, t) / (2 * n + 1)
    inner = sol.table([0], [(n, "TE")])
    outer = sol.table([-1], [(n, "TE")])
    assert inner.c_j.to_complex()[0, 0] == pytest.approx(a_expect, rel=1e-12)
    assert abs(inner.c_y.to_complex()[0, 0]) < 1e-25
    assert outer.outgoing[0, 0]
    assert outer.c_y.to_complex()[0, 0] == pytest.approx(b_expect, rel=1e-12)
    assert rs.interface_residual < 1e-12


def test_field_values_match_closed_form():
    omega, r_s, n = 1.0, 5.0, 1
    src = SurfaceCurrentSource(radius=r_s, amplitudes={mode(n, 0, "TE"): 1.0})
    sol = solve(vacuum_medium(), src, omega)
    t = omega * r_s
    a_coef = 1j * t * t * _hat_h(n, t) / (2 * n + 1)
    rng = np.random.default_rng(0)
    from calrlab.specfun import vsh
    for _ in range(10):
        x = rng.standard_normal(3)
        x *= rng.uniform(0.5, 4.5) / np.linalg.norm(x)
        r = float(np.linalg.norm(x))
        e, h = eval_field(sol, x)
        g = a_coef * _hat_j(n, omega * r)
        trip = vsh(n, 0, x / r)
        # TE: E = G Vtilde;  H = (i/omega)(sqrt(n(n+1)) G/r Y xhat + (rG)'/r U)
        assert np.allclose(e, g * trip.rotated_tangent, rtol=1e-10, atol=1e-12)
        dg = a_coef * omega * complex(
            (2 * n + 1) * _hat_j(n - 1, omega * r) if n >= 1 else 0) \
            - a_coef * (n + 1) / r * _hat_j(n, omega * r)
        h_expected = (1j / omega) * (math.sqrt(n * (n + 1)) * g / r * trip.radial
                                     + (dg + g / r) * trip.gradient_tangent)
        assert np.allclose(h, h_expected, rtol=1e-9, atol=1e-12)


def test_zero_amplitude_mode_gives_zero_field():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 0.0,
                                                       mode(2, 1, "TM"): 0.0})
    sol = solve(vacuum_medium(), src, 1.0)
    e, h = eval_field(sol, np.array([1.0, 0.5, -0.3]))
    assert np.allclose(e, 0) and np.allclose(h, 0)


def test_linearity_in_source():
    amps = {mode(1, 0, "TE"): 0.7 - 0.2j, mode(2, 1, "TM"): 1.1j}
    c = 2.5 - 1.5j
    med = make_dcm_example(1.0, 2.0, p=2.0, delta=1e-3)
    med = staircase(med, 12)
    s1 = solve(med, SurfaceCurrentSource(5.0, amps), 1.0)
    s2 = solve(med, SurfaceCurrentSource(
        5.0, {k: c * v for k, v in amps.items()}), 1.0)
    x = np.array([1.4, -2.2, 0.8])
    e1, h1 = eval_field(s1, x)
    e2, h2 = eval_field(s2, x)
    assert np.allclose(e2, c * e1, rtol=1e-12)
    assert np.allclose(h2, c * h1, rtol=1e-12)


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_maxwell_residual_vacuum_fd(pol):
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(2, 1, pol): 1.0})
    sol = solve(vacuum_medium(), src, 1.0)
    ev = field_evaluator(sol)
    rng = np.random.default_rng(1)
    for _ in range(4):
        x = rng.standard_normal(3)
        x *= rng.uniform(1.0, 4.0) / np.linalg.norm(x)
        e, h = ev(x)
        curl_e = fd_curl(ev, x, 0, h=1e-4)
        curl_h = fd_curl(ev, x, 1, h=1e-4)
        scale = max(np.max(np.abs(e)), np.max(np.abs(h)))
        assert np.max(np.abs(curl_e - 1j * h)) < 1e-6 * scale
        assert np.max(np.abs(curl_h + 1j * e)) < 1e-6 * scale


def test_maxwell_residual_in_dcm_layers():
    # checks the conventions inside the negative shell and the dense core
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2), 64)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 1, "TE"): 1.0,
                                                       mode(2, 0, "TM"): 0.5})
    omega = 1.0
    sol = solve(med, src, omega)
    ev = field_evaluator(sol)
    # pick points at staircase midpoints (medium equals the profile there)
    for r in (0.55, 1.2507812500, 1.7492187500, 3.0):
        x = np.array([0.31, -0.42, 0.85])
        x = x / np.linalg.norm(x) * r
        eps, mu = med.tensors_at(x)
        e, h = ev(x)
        curl_e = fd_curl(ev, x, 0, h=2e-4)
        curl_h = fd_curl(ev, x, 1, h=2e-4)
        scale = max(np.max(np.abs(e)), np.max(np.abs(h)), 1e-30)
        assert np.max(np.abs(curl_e - 1j * omega * (mu @ h))) < 2e-5 * scale
        assert np.max(np.abs(curl_h + 1j * omega * (eps @ e))) < 2e-5 * scale


def test_maxwell_residual_and_energy_identity_with_eps_ne_mu():
    # eps differs from mu in the anisotropic core, whose TE and TM orders
    # are fractional and different, and in the lossy layer; a solve that
    # took a TE constant from eps or a TM constant from mu anywhere fails
    # the curl equations or the energy identity
    sol = eps_ne_mu_solution()
    ev = field_evaluator(sol)
    for r in (0.6, 1.5, 2.5, 4.0):
        x = np.array([0.31, -0.42, 0.85])
        x = x / np.linalg.norm(x) * r
        eps, mu = sol.medium.tensors_at(x)
        e, h = ev(x)
        scale = max(np.max(np.abs(e)), np.max(np.abs(h)))
        curl_e = fd_curl(ev, x, 0, h=2e-4)
        curl_h = fd_curl(ev, x, 1, h=2e-4)
        assert np.max(np.abs(curl_e - 1j * sol.omega * (mu @ h))) < 1e-9 * scale
        assert np.max(np.abs(curl_h + 1j * sol.omega * (eps @ e))) < 1e-9 * scale
    assert data_quantity(sol, 0.1).energy_ratio == pytest.approx(1.0, rel=0.0, abs=1e-10)


def test_te_tm_impedance_duality_on_matched_medium():
    # for eps = mu media the per-mode impedances satisfy Z_TE * Z_TM = -1
    # for the same boundary-condition structure, at every radius
    # (tangential traces: E_V and H_U for TE, E_U and H_V for TM)
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-3), 8)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(2, 0, "TE"): 1.0,
                                                       mode(2, 0, "TM"): 1.0})
    sol = solve(med, src, 1.0)
    for r in (0.8, 5.5):
        idx = int(sol.region_indices(r))
        _, _, e1, _, h1, _ = mode_radial_components(sol, (2, "TE"), idx, r)
        _, e2, _, _, _, h2 = mode_radial_components(sol, (2, "TM"), idx, r)
        z_te = e1[0] / h1[0]
        z_tm = e2[0] / h2[0]
        assert z_te * z_tm == pytest.approx(-1.0, rel=1e-9)


def test_m_degeneracy_and_conjugation():
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2), 8)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(3, 2, "TE"): 1.0,
                                                       mode(3, -2, "TE"): 1.0})
    sol = solve(med, src, 1.0)
    # radial data is shared across m (solved once per (n, pol))
    assert (3, "TE") in sol.radial
    # Y_n^{-m} = (-1)^m conj(Y_n^m) makes the equal-amplitude +-m combination
    # invariant under the mirror y -> -y, so the TE field (axial through
    # xhat x grad) obeys E(Mx) = -M E(x) and H(Mx) = +M H(x), M = diag(1,-1,1)
    x = np.array([0.9, 0.4, 1.2])
    xm = np.array([0.9, -0.4, 1.2])
    e1, h1 = eval_field(sol, x)
    e2, h2 = eval_field(sol, xm)
    mirror = np.diag([1.0, -1.0, 1.0])
    assert np.allclose(e2, -mirror @ e1, rtol=1e-10)
    assert np.allclose(h2, mirror @ h1, rtol=1e-10)


def test_breakpoint_evaluation_uses_inside_limit():
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2), 4)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TM"): 1.0})
    sol = solve(med, src, 1.0)
    x_on = np.array([1.0, 0.0, 0.0])
    x_in = np.array([1.0 - 1e-9, 0.0, 0.0])
    e_on, _ = eval_field(sol, x_on)
    e_in, _ = eval_field(sol, x_in)
    assert np.allclose(e_on, e_in, rtol=1e-6)


def test_source_on_breakpoint_rejected():
    med = make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2)
    src = SurfaceCurrentSource(radius=2.0, amplitudes={mode(1, 0, "TE"): 1.0})
    with pytest.raises(ValueError):
        solve(staircase(med, 4), src, 1.0)


@pytest.mark.parametrize("which", ["eps", "mu"])
def test_outermost_layer_with_radial_coefficient_not_vacuum_rejected(which):
    # only the radial entry of the exterior differs from 1: its TM (or TE)
    # order is not n, so farfield_flux's vacuum closed form would not hold
    vacuum = LayerCoeff.iso(1.0 + 0.0j)
    exterior = {"eps": vacuum, "mu": vacuum, which: LayerCoeff(2.0 + 0.0j, 1.0 + 0.0j)}
    med = RadialMedium(layers=(
        Layer(0.0, 1.0, LayerCoeff.iso(2.0 + 0.0j), vacuum),
        Layer(1.0, math.inf, exterior["eps"], exterior["mu"])))
    src = SurfaceCurrentSource(radius=3.0, amplitudes={mode(1, 0, "TM"): 1.0,
                                                       mode(1, 0, "TE"): 1.0})
    with pytest.raises(ValueError, match="^outermost layer must be vacuum$"):
        solve(med, src, 1.0)


def test_staircase_constant_layers_untouched():
    med = vacuum_medium()
    assert staircase(med, 16).breakpoints == med.breakpoints
    dcm = make_dcm_example(1.0, 2.0, p=2.0, delta=0.0)
    st = staircase(dcm, 1)
    # one sublayer: the shell becomes its midpoint isotropic value
    eps, _ = st.tensors_at(np.array([1.7, 0, 0]))
    want = -(2.0 ** 2) / 1.5 ** 2
    assert np.allclose(eps, want * np.eye(3), atol=1e-12)


def test_exterior_mode_coefficients_linear_in_delta():
    # each exterior mode coefficient deviates from the vacuum solve by O(delta)
    amps = {mode(1, 0, "TE"): 1.0, mode(2, 1, "TM"): 1.0, mode(3, -2, "TE"): 0.5}
    src = SurfaceCurrentSource(radius=5.0, amplitudes=amps)
    vac = solve(vacuum_medium(), src, 1.0)
    devs = {}
    for delta in (1e-3, 1e-4):
        med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=delta), 256)
        sol = solve(med, src, 1.0)
        for key in sol.radial:
            a = sol.table([-1], [key]).c_y.to_complex()[0, 0]
            b = vac.table([-1], [key]).c_y.to_complex()[0, 0]
            devs.setdefault(key, []).append(abs(a - b))
    for key, (d3, d4) in devs.items():
        assert 5.0 < d3 / d4 < 20.0, f"mode {key}: {d3} vs {d4}"


def test_near_singular_guard_raise_path(monkeypatch):
    from calrlab.layered_maxwell import NearSingularMode
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-3), 4)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    assert max(rs.condition for rs in solve(med, src, 1.0).radial.values()) > 1e-2
    monkeypatch.setattr("calrlab.layered_maxwell.solver._COND_GUARD", 1e-2)
    with pytest.raises(NearSingularMode):
        solve(med, src, 1.0)


def _guard_case():
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-3), 8)
    amps = {mode(n, 0, pol): 1.0 for n in (1, 2, 3) for pol in ("TE", "TM")}
    return med, SurfaceCurrentSource(radius=5.0, amplitudes=amps)


def test_near_singular_guard_names_first_key_of_batch(monkeypatch):
    # all keys are solved together; the guard still reports the first key,
    # in radial_keys() order, whose condition exceeds it
    from calrlab.layered_maxwell import NearSingularMode
    med, src = _guard_case()
    conds = {k: rs.condition for k, rs in solve(med, src, 1.0).radial.items()}
    keys = src.radial_keys()
    guard = sorted(conds.values())[len(conds) // 2]
    over = [k for k in keys if conds[k] > guard]
    assert over and over[0] != keys[0]
    monkeypatch.setattr("calrlab.layered_maxwell.solver._COND_GUARD", guard)
    n, pol = over[0]
    message = f"near-singular mode (n={n}, pol={pol}): condition {conds[(n, pol)]:.3e}"
    with pytest.raises(NearSingularMode) as caught:
        solve(med, src, 1.0)
    assert str(caught.value) == message


def test_interface_residual_flags_perturbed_coefficients():
    from calrlab.layered_maxwell.solver import (
        _INTERFACE_TOL, _basis_traces, _build_regions, _interface_residual, _mode_constants)
    med, src = _guard_case()
    sol = solve(med, src, 1.0)
    keys = src.radial_keys()
    regions, src_idx = _build_regions(med, 5.0)
    basis, _ = _basis_traces(regions, keys, _mode_constants(regions, keys, 1.0), 1.0)
    assert list(sol.radial) == keys
    c_j, c_y = sol.modes.c_j.copy(), sol.modes.c_y.copy()
    clean = _interface_residual(basis, c_j, c_y, src_idx)
    assert np.all(clean < 1e-12)
    assert [sol.radial[k].interface_residual for k in keys] == clean.tolist()
    c_j.m[3, 2] *= 1.0 + 1e-6
    resid = _interface_residual(basis, c_j, c_y, src_idx)
    assert resid[2] > _INTERFACE_TOL
    assert np.array_equal(np.delete(resid, 2), np.delete(clean, 2))


def test_dcm_fine_pass_raises_no_solver_warning():
    # the staircase + Richardson solves of the benchmark's region-bound
    # workload trip neither the condition guard nor the residual check
    import warnings
    from calrlab.layered_maxwell.refine import solve_staircased
    from calrlab.scenarios import mixed_mode_source
    src = mixed_mode_source(5.0, 1, 7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_staircased([make_dcm_example(1.0, 2.0, 2.0, delta) for delta in (1e-2, 1e-3)],
                         src, 1.0, layers=96)
    assert not caught


def test_te_and_tm_of_a_matched_medium_share_their_end_values(monkeypatch):
    # eps = mu gives TE and TM the same (nu, k) in every region, so adding
    # TM to a TE solve adds no Bessel argument, and leaves the TE column's bits
    calls = _counting(monkeypatch)
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-3), 8)

    def solve_counting(pols):
        amps = {mode(n, 0, pol): 1.0 for n in (1, 2, 3) for pol in pols}
        before = dict(calls)
        sol = solve(med, SurfaceCurrentSource(radius=5.0, amplitudes=amps), 1.0)
        return sol, {name: calls[name] - before[name] for name in calls}

    te, te_calls = solve_counting(("TE",))
    both, both_calls = solve_counting(("TE", "TM"))
    assert te_calls["hat_jy"] > 0 and both_calls == te_calls
    te_keys = list(te.radial)
    rows = range(len(te.regions))
    for a, b in zip(te.table(rows, te_keys), both.table(rows, te_keys)):
        if hasattr(a, "m"):
            assert np.array_equal(a.m, b.m) and np.array_equal(a.e, b.e)
        else:
            assert np.array_equal(a, b)
    assert all(both.radial[key] == te.radial[key] for key in te_keys)


def _counting(monkeypatch):
    """Count the solver module's hat_jy and hat_h1 calls and arguments."""
    import calrlab.layered_maxwell.solver as solver
    calls = {"hat_jy": 0, "hat_h1": 0, "hat_jy.args": 0, "hat_h1.args": 0}

    def counted(name, fn):
        def wrapper(nu, z):
            calls[name] += 1
            calls[name + ".args"] += np.size(z)
            return fn(nu, z)
        return wrapper

    for name in ("hat_jy", "hat_h1"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    return calls


@pytest.mark.parametrize("case", ["eps_ne_mu", "p3_lossless_16_layers"])
def test_basis_traces_match_one_call_per_region(case):
    # every finite region end gets exactly the traces built from one hat_jy
    # call (hat_h1 in the outermost region) on that region's ends alone
    from calrlab.layered_maxwell.solver import _basis_traces, _build_regions, _mode_constants
    from calrlab.specfun import hat_h1, hat_jy
    if case == "eps_ne_mu":
        medium, r_s, ns = eps_ne_mu_medium(), 3.0, (1, 2)
    else:
        medium, r_s, ns = staircase(make_dcm_example(1.0, 2.0, 3.0, 0.0), 16), 9.0, range(1, 13)
    keys = [(n, pol) for n in ns for pol in ("TE", "TM")]
    regions, _ = _build_regions(medium, r_s)
    modes = _mode_constants(regions, keys, 1.0)
    traces, _ = _basis_traces(regions, keys, modes, 1.0)
    last = len(regions) - 1
    for i, reg in enumerate(regions):
        sides = [s for s, r in enumerate((reg.r_lo, reg.r_hi)) if 0 < r < math.inf]
        radii = np.array([(reg.r_lo, reg.r_hi)[s] for s in sides])
        for col, (_, pol) in enumerate(keys):
            nu, k, tan = float(modes.nu[i, col]), complex(modes.k[i, col]), modes.tan[i, col]
            if i == last:
                vals = hat_h1(nu, k * radii)
                bases = [(1, vals["h"], vals["dh"])]
                assert not np.any(traces[0][sides, i, col].to_complex())
            else:
                vals = hat_jy(nu, k * radii)
                bases = [(0, vals["j"], vals["dj"]), (1, vals["y"], vals["dy"])]
            for b, u, du in bases:
                curlish = (du * k + u * (1.0 / radii)) * tan
                want = (u, curlish) if pol == "TE" else (curlish, u)
                for got, w in zip(traces[2 * b:2 * b + 2], want):
                    assert np.array_equal(got[sides, i, col].m, w.m), (i, col, b)
                    assert np.array_equal(got[sides, i, col].e, w.e), (i, col, b)


def test_eps_ne_mu_solve_makes_one_bessel_call_per_basis(monkeypatch):
    # TE and TM differ in the core only: one hat_jy call takes the core's
    # four fractional orders and the shell's and inner vacuum's orders 1
    # and 2, which both keys share, and one hat_h1 call the outside
    calls = _counting(monkeypatch)
    sol = eps_ne_mu_solution.__wrapped__()
    # per n: the core's 2 orders (TE, TM) at its one radius (its r_hi and
    # the placeholder of its r_lo = 0 are both 1), order n at the 4 ends of
    # the shell and the inner vacuum, and outside at the sheet and the
    # placeholder of its unbounded end
    assert calls == {"hat_jy": 1, "hat_h1": 1, "hat_jy.args": 2 * (2 + 4), "hat_h1.args": 2 * 2}
    cached = eps_ne_mu_solution()
    for a, b in ((sol.modes.c_j, cached.modes.c_j), (sol.modes.c_y, cached.modes.c_y)):
        assert np.array_equal(a.m, b.m) and np.array_equal(a.e, b.e)


def _graded_family(name):
    """Three losses of one graded structure: the DCM, the superlens or the cloak."""
    build = {"dcm": lambda d: make_dcm_example(1.0, 2.0, 2.0, d),
             "superlens": lambda d: make_superlens(0.5, 4.0, (2.0 + 0j, 2.0 + 0j), d, r1=1.0)[0],
             "cloak": lambda d: make_cm_cloak(1.0, 2.0, None, d)}[name]
    return [build(d) for d in (1e-2, 1e-3, 1e-4)]


def _eps_ne_mu_lossless_family():
    """Lossless shells of other eps != mu on `eps_ne_mu_medium`'s breakpoints."""
    core, shell, vac = eps_ne_mu_medium().layers
    return [RadialMedium(layers=(core, Layer(shell.r_lo, shell.r_hi, LayerCoeff.iso(e),
                                             LayerCoeff.iso(m)), vac))
            for e, m in ((2.0, 1.3), (3.0, 0.8), (1.5, 2.5))]


def _mixed_source(radius):
    amps = {mode(n, m, pol): complex(n, m) for n in (1, 2, 3) for m in (0, 1)
            for pol in ("TE", "TM")}
    return SurfaceCurrentSource(radius=radius, amplitudes=amps)


def _assert_same_solution(got, want):
    assert got.regions == want.regions
    assert list(got.radial) == list(want.radial)
    for key, rs in want.radial.items():
        assert got.radial[key].condition == rs.condition, key
        assert got.radial[key].interface_residual == rs.interface_residual, key
    for name, a, b in zip(ModeTable._fields, got.modes, want.modes):
        if hasattr(a, "m"):
            assert np.array_equal(a.m, b.m) and np.array_equal(a.e, b.e), name
        else:
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("family", ["dcm", "superlens", "cloak", "eps_ne_mu_lossless"])
def test_batched_media_match_one_solve_per_medium(family):
    # every medium of a loss sweep is a set of columns of one region pass,
    # with exactly the bits of its own solve
    from calrlab.layered_maxwell.solver import _solve_levels
    if family == "eps_ne_mu_lossless":
        media, src = _eps_ne_mu_lossless_family(), _mixed_source(3.0)
    else:
        media, src = [staircase(m, 8) for m in _graded_family(family)], _mixed_source(5.0)
    batched = _solve_levels([media], src, 1.0)[0]
    assert len(batched) == len(media)
    for got, medium in zip(batched, media):
        assert got.medium is medium
        _assert_same_solution(got, solve(medium, src, 1.0))


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("family", ["dcm", "superlens", "cloak"])
def test_batched_solve_staircased_matches_per_medium_refinement(family, richardson):
    from calrlab.layered_maxwell.refine import richardson_exterior, solve_staircased
    media, src = _graded_family(family), _mixed_source(5.0)
    batched = solve_staircased(media, src, 1.0, layers=4, richardson=richardson)
    for got, medium in zip(batched, media):
        if richardson:
            lo = solve(staircase(medium, 4), src, 1.0)
            want = richardson_exterior(lo, solve(staircase(medium, 8), src, 1.0))
        else:
            want = solve(staircase(medium, 4), src, 1.0)
        assert got.medium.layers == want.medium.layers
        _assert_same_solution(got, want)


def test_batched_media_need_the_same_region_breakpoints():
    from calrlab.layered_maxwell.solver import _solve_levels
    src = _mixed_source(3.0)
    dcm = make_dcm_example(1.0, 2.0, 2.0, 1e-2)
    with pytest.raises(ValueError, match="same region breakpoints"):
        _solve_levels([[staircase(dcm, 4), staircase(dcm, 8)]], src, 1.0)
    # as many regions, but the sheet at r = 3 splits the third layer of one
    # and the second of the other
    core, shell, vac = eps_ne_mu_medium().layers
    wide = RadialMedium(layers=(core, Layer(1.0, 4.0, shell.eps, shell.mu),
                                Layer(4.0, math.inf, vac.eps, vac.mu)))
    with pytest.raises(ValueError, match="same region breakpoints"):
        _solve_levels([[eps_ne_mu_medium(), wide]], src, 1.0)


def test_richardson_delta_sweep_makes_one_region_pass_for_both_levels(monkeypatch):
    # four losses with Richardson: one region pass whose column groups are
    # the two refinement levels, four losses each, plus the reference solve
    import calrlab.layered_maxwell.solver as solver
    from calrlab.scenarios import Sweep
    calls = []
    inner = solver._solve_radial

    def counted(groups, omega):
        calls.append([(len(regions), len(keys)) for regions, _, keys, _ in groups])
        return inner(groups, omega)

    monkeypatch.setattr(solver, "_solve_radial", counted)
    bessel = _counting(monkeypatch)
    p = {"r_s": 5.0, "n_src": 1, "seed": 7, "omega": 1.0, "layers": 4,
         "deltas": [1e-2, 1e-3, 1e-4, 1e-5]}
    sols, vac = Sweep(lambda p, d: make_dcm_example(1.0, 2.0, 2.0, d),
                      reference=lambda p: vacuum_medium()).solves(p)
    assert len(sols) == len(p["deltas"]) and vac is not None
    assert len(calls) == 2
    # each group takes its region ends from one hat_jy and one hat_h1 call
    assert bessel["hat_jy"] == bessel["hat_h1"] == 1 + 2
    (ref,), levels = calls
    # the core, the shell at 2 * 4 and at 4 sublayers, the vacuum split at
    # the source
    assert levels == [(1 + 8 + 2, 4 * ref[1]), (1 + 4 + 2, 4 * ref[1])]


def _high_order_fields(sol, n, r, omega, r_s):
    """Worst relative error of E and H of the TE (n, 0) vacuum solve at 6
    points of radius r against the mpmath closed forms."""
    from calrlab.specfun import vsh
    t = omega * r_s
    if r < r_s:
        c = 1j * t * t * _hat_h(n, t) / (2 * n + 1)
        g = c * _hat_j(n, omega * r)
        dg = c * omega * ((2 * n + 1) * _hat_j(n - 1, omega * r)
                          - (n + 1) / (omega * r) * _hat_j(n, omega * r))
    else:
        c = 1j * t * t * _hat_j(n, t) / (2 * n + 1)
        g = c * _hat_h(n, omega * r)
        dg = c * omega * (_hat_h(n - 1, omega * r) / (2 * n - 1)
                          - (n + 1) / (omega * r) * _hat_h(n, omega * r))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(6):
        x = rng.standard_normal(3)
        x *= r / np.linalg.norm(x)
        trip = vsh(n, 0, x / r)
        want = (g * trip.rotated_tangent,
                (1j / omega) * (math.sqrt(n * (n + 1)) * g / r * trip.radial
                                + (dg + g / r) * trip.gradient_tangent))
        for got, w in zip(eval_field(sol, x), want):
            worst = max(worst, np.max(np.abs(got - w)) / np.max(np.abs(w)))
    return worst


def test_high_order_vacuum_fields_match_closed_form():
    # n = 300: the solve's coefficients leave double range, the fields
    # on either side of the sheet do not
    omega, r_s, n = 1.0, 5.0, 300
    sol = solve(vacuum_medium(), SurfaceCurrentSource(
        radius=r_s, amplitudes={mode(n, 0, "TE"): 1.0}), omega)
    for r in (4.5, 5.5):
        assert _high_order_fields(sol, n, r, omega, r_s) < 1e-10, r


def test_high_order_dcm_norms_are_pinned():
    # the n = 300 DCM solve spans 10^-320 .. 10^143 in its coefficients;
    # its shell and exterior norms are pinned to the values of the
    # four-product region recursion
    med = staircase(make_dcm_example(1.0, 2.0, 2.0, 1e-3), 32)
    src = SurfaceCurrentSource(radius=3.0, amplitudes={
        mode(300, 0, "TE"): 1.0, mode(300, 0, "TM"): 1.0})
    sol = solve(med, src, 1.0)
    mags = np.concatenate([sol.modes.c_j.log10_abs().ravel(),
                           sol.modes.c_y.log10_abs().ravel()])
    mags = mags[np.isfinite(mags)]
    assert mags.min() < -308 and mags.max() > 100
    for (a, b), want in (((1.0, 2.0), 2.9285608678439897e-50),
                         ((4.0, 6.0), 4.318188988503713e-37)):
        got = l2_norm_annulus(sol, a, b)
        assert math.isfinite(got) and abs(got / want - 1.0) < 1e-8, (a, b, got)


def _four_product_state(cj, cy, basis, outgoing=False):
    e0, h0, e1, h1 = basis
    if outgoing:
        return cy * e1, cy * h1
    return cj * e0 + cy * e1, cj * h0 + cy * h1


def _four_product_solve(regions, src_idx, keys, modes, omega):
    """The region recursion on one (c_j, c_y) tuple of ScaledArrays per
    region, with four products and explicit subtractions per match.
    Returns the conditions, the interface residuals, c_j and c_y."""
    from calrlab.layered_maxwell.solver import _basis_traces, _interface_residual
    from calrlab.specfun.scaled import ScaledArray
    last = len(regions) - 1
    basis, det = _basis_traces(regions, keys, modes, omega)

    def at(side, i):
        return tuple(b[side, i] for b in basis)

    def match(side, i, e_t, h_t):
        e1, h1, e2, h2 = at(side, i)
        d = det[side, i]
        return (e_t * h2 - h_t * e2) / d, (h_t * e1 - e_t * h1) / d

    one = ScaledArray.from_complex(np.ones(len(keys), dtype=complex))
    zero = ScaledArray.from_complex(np.zeros(len(keys), dtype=complex))
    inner = [(one, zero)]
    for i in range(src_idx):
        inner.append(match(0, i + 1, *_four_product_state(*inner[-1], at(1, i))))
    outer = [(zero, one)]
    for i in range(last, src_idx + 1, -1):
        outer.append(match(1, i - 1, *_four_product_state(*outer[-1], at(0, i), i == last)))
    outer.reverse()
    e_m, h_m = _four_product_state(*inner[-1], at(1, src_idx))
    e_p, h_p = _four_product_state(*outer[0], at(0, src_idx + 1), src_idx + 1 == last)
    t1, t2 = h_p * e_m, h_m * e_p
    det_src = t1 - t2
    conds = []
    for lmag, ldet in zip(np.maximum(t1.log10_abs(), t2.log10_abs()), det_src.log10_abs()):
        mag, det_mag = 10.0 ** lmag, 10.0 ** ldet
        conds.append(math.inf if det_mag == 0 else float(mag / det_mag))
    rows = np.arange(last + 1)[:, None] <= src_idx
    scale = ScaledArray.where(rows, e_p / det_src, e_m / det_src)
    c_j = ScaledArray.stack([c for c, _ in inner + outer]) * scale
    c_y = ScaledArray.stack([c for _, c in inner + outer]) * scale
    return conds, _interface_residual(basis, c_j, c_y, src_idx).tolist(), c_j, c_y


def _reference_chain_cases():
    """(levels, source) of region passes; each level is one column group."""
    from calrlab.scenarios import mixed_mode_source
    deltas = (1e-2, 1e-3, 1e-4, 1e-5)
    # the Richardson pass of a four-loss sweep: groups of 99 and 51 regions
    yield ([[staircase(make_dcm_example(1.0, 2.0, 2.0, d), n) for d in deltas]
            for n in (96, 48)], mixed_mode_source(5.0, 6, 7))
    dcm = [make_dcm_example(1.0, 2.0, 2.0, d) for d in (1e-2, 1e-3)]
    yield [[staircase(m, 16) for m in dcm]], mixed_mode_source(5.0, 12, 19)
    for family in ("superlens", "cloak"):
        yield [[staircase(m, 8) for m in _graded_family(family)]], _mixed_source(5.0)
    # the sheet in the core (empty inner chain), in the shell, and in the
    # vacuum next to the exterior region (outgoing source state)
    for r_s in (0.5, 1.5, 3.0):
        yield [[eps_ne_mu_medium()]], _mixed_source(r_s)
    # one ragged pass with all three: at r = 3 the sheet lies in the vacuum
    # next to the exterior of eps_ne_mu_medium and of a staircased DCM, in
    # the core of a (0, 4) core, and in the shell of a (1, 4) shell
    core, shell, vac = eps_ne_mu_medium().layers
    big_core = RadialMedium(layers=(Layer(0.0, 4.0, core.eps, core.mu),
                                    Layer(4.0, math.inf, vac.eps, vac.mu)))
    wide = RadialMedium(layers=(core, Layer(1.0, 4.0, shell.eps, shell.mu),
                                Layer(4.0, math.inf, vac.eps, vac.mu)))
    yield ([[eps_ne_mu_medium()], [staircase(dcm[0], 8)], [big_core], [wide]],
           _mixed_source(3.0))


def test_stacked_region_steps_match_the_four_product_recursion(monkeypatch):
    # the (2, ncols) pair steps of a ragged pass give every coefficient,
    # condition and residual of each group's one-pair-per-region recursion
    # bit for bit
    import calrlab.layered_maxwell.solver as solver
    from calrlab.layered_maxwell.solver import _solve_levels
    inner = solver._solve_radial
    seen = []

    def checked(groups, omega):
        got = inner(groups, omega)
        seen.append([(src_idx, len(regions) - 1, solved,
                      _four_product_solve(regions, src_idx, keys, modes, omega))
                     for (regions, src_idx, keys, modes), solved in zip(groups, got)])
        return got

    monkeypatch.setattr(solver, "_solve_radial", checked)
    for levels, src in _reference_chain_cases():
        _solve_levels(levels, src, 1.0)
    for src_idx, last, (radial, c_j, c_y), (conds, resid, want_j, want_y) in (
            group for groups in seen for group in groups):
        assert [rs.condition for rs in radial] == conds
        assert [rs.interface_residual for rs in radial] == resid
        for got, want in ((c_j, want_j), (c_y, want_y)):
            assert np.array_equal(got.m, want.m) and np.array_equal(got.e, want.e)
    ends = {(src_idx == 0, src_idx + 1 == last) for src_idx, last, _, _ in seen[-1]}
    assert ends == {(True, False), (False, False), (False, True)}
    # the first pass is the Richardson pair: four losses of twelve keys each
    assert [(last, solved[1].shape) for _, last, solved, _ in seen[0]] == [
        (98, (99, 4 * 12)), (50, (51, 4 * 12))]


# (r1, r2) of a DCM that puts a sheet at r = 3 in its core, in its shell
# (off every breakpoint of a staircase at up to 12 layers), or in the
# vacuum next to the outgoing region
_SHEET_AT = {"core": (3.5, 4.0), "shell": (2.1, 4.0), "outgoing": (1.0, 2.0)}


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
# every inner chain empty
@example(groups=[("core", 3, 1)])
# the core group's outer chain is longer than the others', and not first
@example(groups=[("outgoing", 2, 1), ("core", 12, 2), ("shell", 1, 1)])
@given(groups=st.lists(st.tuples(st.sampled_from(sorted(_SHEET_AT)), st.integers(1, 12),
                                 st.integers(1, 2)), min_size=1, max_size=3))
def test_ragged_groups_equal_their_own_solves(groups):
    # one region pass over groups of other region counts and source
    # regions gives each medium exactly the bits of its own solve
    from calrlab.layered_maxwell.solver import _solve_levels
    src = _mixed_source(3.0)
    levels = [[staircase(make_dcm_example(*_SHEET_AT[sheet], 2.0, delta), layers)
               for delta in (1e-2, 1e-3)[:losses]] for sheet, layers, losses in groups]
    solved = _solve_levels(levels, src, 1.0)
    assert [len(sols) for sols in solved] == [len(media) for media in levels]
    for media, sols in zip(levels, solved):
        for medium, got in zip(media, sols):
            assert got.medium is medium
            _assert_same_solution(got, solve(medium, src, 1.0))


def test_basis_values_are_one_call_per_basis(monkeypatch):
    # one hat_jy call over the bit-distinct (order, argument) pairs of the
    # cells that are not outgoing and one hat_h1 call over those of the
    # outgoing cells, and each cell gets exactly the values of a
    # one-element call on its own order and argument.  The table has TE
    # and TM columns with equal arguments, an outgoing row, a lossless layer
    # with eps and mu both negative (eps mu = 1 - 0j, and k = omega (1 - 0j)
    # = 1 + 0j shares the vacuum arguments' bits), two layers whose
    # k = +-0.0 + 1j give arguments equal in value with different bits, and
    # an anisotropic layer where TM alone has a fractional order.
    import calrlab.layered_maxwell.solver as solver
    from calrlab.layered_maxwell.solver import RegionSpec, _basis_values, _mode_constants
    from calrlab.specfun.bessel import hat_h1, hat_jy
    regions = [RegionSpec(0.0, 1.0, 1.0, 1.0, 1.0, 1.0),
               RegionSpec(1.0, 2.0, -2.0 + 0j, -2.0 + 0j, -0.5 + 0j, -0.5 + 0j),
               RegionSpec(2.0, 3.0, complex(-1.0, -0.0), complex(-1.0, -0.0), 1.0, 1.0),
               RegionSpec(3.0, 4.0, -1.0 + 0j, -1.0 + 0j, 1.0, 1.0),
               RegionSpec(4.0, 5.0, 2.0, 1.0, 1.0, 1.0),
               RegionSpec(5.0, math.inf, 1.0, 1.0, 1.0, 1.0)]
    keys = [(1, "TE"), (1, "TM"), (2, "TM")]
    modes = _mode_constants(regions, keys, 1.0)
    assert math.copysign(1.0, (regions[1].eps_tan * regions[1].mu_tan).imag) == -1.0
    assert modes.k[1, 0].tobytes() == modes.k[0, 0].tobytes()
    assert math.copysign(1.0, modes.k[2, 0].real) == -1.0 == -math.copysign(1.0, modes.k[3, 0].real)
    assert modes.nu[4, 0] == 1.0 != modes.nu[4, 1]
    owner = np.array([0, 1, 2, 3, 4, 5, 0, 1, 4, 5])
    r = np.array([0.5] * 6 + [1.7, 1.7, 2.2, 0.3])
    calls = []

    def counted(fn):
        def call(nu, z):
            calls.append((fn is hat_h1, np.asarray(nu), z))
            return fn(nu, z)
        return call

    monkeypatch.setattr(solver, "hat_jy", counted(hat_jy))
    monkeypatch.setattr(solver, "hat_h1", counted(hat_h1))
    tables = _basis_values(modes.nu, modes.k, modes.outgoing, owner, r)
    cells = {False: set(), True: set()}
    for i, row in enumerate(owner):
        for col in range(len(keys)):
            nu, out = float(modes.nu[row, col]), bool(modes.outgoing[row, col])
            z = modes.k[row, col:col + 1] * r[i:i + 1].astype(complex)
            cells[out].add((nu, z.tobytes()))
            one = hat_h1(nu, z) if out else hat_jy(nu, z)
            want = ((None, None, one["h"], one["dh"]) if out
                    else (one["j"], one["dj"], one["y"], one["dy"]))
            for table, v in zip(tables, want):
                got = table[i, col]
                if v is None:
                    assert got.m == 0 and got.e == 0
                else:
                    assert got.m.tobytes() == v.m.tobytes() and got.e == v.e[0]
    # order 1 at 0.5, 1.7, 2.2 and +-0.0 + 0.5j
    assert len({z for nu, z in cells[False] if nu == 1.0}) == 5
    assert sorted(out for out, _, _ in calls) == [False, True]
    for out, nu, z in calls:
        pairs = {(v, z[i:i + 1].tobytes()) for i, v in enumerate(nu.tolist())}
        assert nu.shape == z.shape and len(pairs) == len(z) and pairs == cells[out]


def test_each_basis_table_takes_one_bessel_call_per_basis(monkeypatch):
    # the solve's region ends, a field evaluation and an annulus norm each
    # build their basis tables from one `_basis_values` call, which makes at
    # most one hat_jy and one hat_h1 call over all twelve orders
    import calrlab.layered_maxwell.fields as fields
    import calrlab.layered_maxwell.solver as solver
    from calrlab.layered_maxwell import eval_field_many
    calls = _counting(monkeypatch)
    per_table = []

    def spied(fn):
        def call(*args):
            before = dict(calls)
            out = fn(*args)
            per_table.append((calls["hat_jy"] - before["hat_jy"],
                              calls["hat_h1"] - before["hat_h1"]))
            return out
        return call

    for module in (solver, fields):
        monkeypatch.setattr(module, "_basis_values", spied(module._basis_values))
    amps = {mode(n, 1, pol): 1.0 for n in range(1, 13) for pol in ("TE", "TM")}
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2), 8)
    sol = solve(med, SurfaceCurrentSource(radius=5.0, amplitudes=amps), 1.0)
    eval_field_many(sol, [[0.0, 0.3, 0.4], [1.2, 0.0, 0.9], [0.0, 0.0, 6.0]])
    l2_norm_annulus(sol, 2.0, 3.0)
    assert len(per_table) >= 3 and per_table[:2] == [(1, 1), (1, 1)]
    assert all(jy <= 1 and h1 <= 1 for jy, h1 in per_table)
