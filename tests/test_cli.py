"""CLI round trip: config validation, exit codes, deterministic output.

The command-line contract is checked here, through `cli.main`: every
rejected config, every exit code and the same-bytes rerun of every
scenario.  Every RuntimeWarning is an error, by the pytest config.
"""
import json
import math
from pathlib import Path

import pytest

import calrlab.scenarios as scenarios
from calrlab.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from calrlab.scenarios import SCENARIOS, scenario_params


def _write_config(tmp_path, name, scenario, params, out):
    cfg = {"scenario": scenario, "out": str(out), "params": params}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("dcm_convergence", "superlens", "carleman_suite"):
        assert name in out


def test_validate_config_paths(tmp_path):
    good = _write_config(tmp_path, "good.json", "maxwell_3sphere_suite",
                         {"count": 5}, tmp_path / "out")
    assert main(["validate-config", str(good)]) == EXIT_OK
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "nonsense"}))
    assert main(["validate-config", str(bad)]) == EXIT_CONFIG
    worse = tmp_path / "worse.json"
    worse.write_text("{not json")
    assert main(["validate-config", str(worse)]) == EXIT_CONFIG
    neg = _write_config(tmp_path, "neg.json", "dcm_convergence",
                        {"deltas": [1e-2, -1e-3]}, tmp_path / "out")
    assert main(["validate-config", str(neg)]) == EXIT_CONFIG


def test_run_assertion_failure_exit_code(tmp_path):
    cfg = _write_config(tmp_path, "fail.json", "maxwell_3sphere_suite",
                        {"count": 10, "n_max": 6, "stability": 1e-3},
                        tmp_path / "outf")
    assert main(["run", str(cfg)]) == EXIT_ASSERTION


@pytest.mark.parametrize("out", [5, "file", "file/sub"],
                         ids=["not-a-string", "existing-file", "under-a-file"])
def test_bad_out_exit_config(tmp_path, capsys, monkeypatch, out):
    # an out that is not a path, or that names an existing file or a path
    # under one, is rejected before any work, with a message that names it
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("keep")
    monkeypatch.setattr("calrlab.cli.run_scenario", pytest.fail)
    cfg = tmp_path / "out.json"
    cfg.write_text(json.dumps({"scenario": "cm_cloak", "out": out}))
    assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert Path("file").read_text() == "keep"
    assert capsys.readouterr().err.count("'out'") == 2


def test_run_config_error_exit_code(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == EXIT_CONFIG


def _assert_rejected(tmp_path, capsys, monkeypatch, cases):
    """Both commands reject each (scenario, params, stderr fragment) case
    before any work: no run or solve starts, no output directory is made,
    and each command prints the fragment after "config error: "."""
    for target in ("calrlab.cli.run_scenario", "calrlab.scenarios.solve_staircased"):
        monkeypatch.setattr(target, pytest.fail)
    out = tmp_path / "out"
    for scenario, params, fragment in cases:
        cfg = _write_config(tmp_path, "rejected.json", scenario, params, out)
        # JSON NaN and Infinity parse as floats of the right type; a case
        # sends one exactly when it expects the finiteness rule
        text = cfg.read_text()
        assert ("NaN" in text or "Infinity" in text) == ("must be finite" in fragment)
        assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("config error: ") == 2 and err.count(fragment) == 2


def _rejects(table):
    """The test of `_assert_rejected` on a list of cases, or the test
    parametrized over the rows of {row id: list of cases}."""
    if isinstance(table, list):
        def test(tmp_path, capsys, monkeypatch):
            _assert_rejected(tmp_path, capsys, monkeypatch, table)
        return test

    @pytest.mark.parametrize("cases", list(table.values()), ids=list(table))
    def test(tmp_path, capsys, monkeypatch, cases):
        _assert_rejected(tmp_path, capsys, monkeypatch, cases)
    return test


# The configs that the params rules reject, each test under the id it has
# always had; a case is (scenario, params, stderr fragment).
test_scenario_that_is_not_a_string_exit_config = _rejects({
    "list": [(["cm_cloak"], {}, "config needs a 'scenario' among")],
    "object": [({"a": 1}, {}, "config needs a 'scenario' among")]})
# one loss value is rejected before the reversed radii are checked
test_run_bad_scenario_params_exit_config = _rejects([
    ("dcm_convergence", {"r1": 2.0, "r2": 1.0, "deltas": [1e-2]}, "'deltas' needs at least two")])
test_non_list_deltas_exit_config = _rejects([
    ("dcm_convergence", {"deltas": "abc"}, "param 'deltas' must have the type")])
test_unknown_param_key_exit_config = _rejects([
    ("maxwell_3sphere_suite", {"cont": 5}, "unknown param 'cont'")])
test_param_of_another_type_than_its_default_exit_config = _rejects([
    ("maxwell_3sphere_suite", {"count": "x"}, "param 'count' must have the type"),
    ("maxwell_3sphere_suite", {"count": 5.5}, "param 'count' must have the type"),
    ("dcm_convergence", {"annulus": 5}, "param 'annulus' must have the type"),
    ("dcm_convergence", {"deltas": [1e-2, "1e-3"]}, "param 'deltas' must have the type")])
# every loss sweep fits a slope or compares results across deltas, which
# one loss value, or one repeated, makes rank-deficient or vacuous
test_single_delta_sweep_exit_config = _rejects({
    scenario: [(scenario, {"deltas": deltas, "n_src": 1, "layers": 8},
                "'deltas' needs at least two") for deltas in ([1e-2], [1e-2, 1e-2])]
    for scenario in ("dcm_convergence", "blowup_scan", "superlens", "cm_cloak", "gluing_demo")})
# radii out of order, a source on a layer breakpoint (r1 + 1/192 is one of
# the 2 x 96-layer Richardson level only), a comparison annulus that reaches
# where the medium and its reference differ, or a gluing shell too thin for
# any residual sample radius
test_bad_sweep_geometry_exit_config_before_any_solve = _rejects({
    "cloak-radii-reversed": [("cm_cloak", {"r2": 2.0, "r3": 1.0}, "r3 > r2")],
    "core-beyond-shell": [("dcm_convergence", {"r1": 3.0}, "r2 > r1")],
    "source-on-breakpoint": [("dcm_convergence", {"r_s": 2.0}, "'r_s'")],
    "annulus-over-the-shell": [("dcm_convergence", {"annulus": [0.5, 6.0]}, "'annulus'")],
    "gluing-shell-too-thin": [
        ("gluing_demo", {"r1": 1.0, "r2": 1.1, "n_src": 1, "layers": 8}, "'r1'")],
    "superlens-annulus-over-the-shell": [("superlens", {"annulus": [1.0, 6.0]}, "'annulus'")],
    "cloak-annulus-over-the-complement": [("cm_cloak", {"annulus": [0.9, 5.0]}, "'annulus'")],
    "blowup-source-on-breakpoint": [("blowup_scan", {"r_s": 1.5}, "'r_s'")],
    "source-on-a-richardson-only-breakpoint": [
        ("dcm_convergence", {"r_s": 1.0052083333333333}, "'r_s'")]})
# a positive loss on a p != 2 shell gives a complex effective order
test_lossy_dcm_with_p_other_than_2_exit_config = _rejects([
    (scenario, {"p": 3.0, "n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]}, "'p' must be 2")
    for scenario in ("dcm_convergence", "blowup_scan")])
# the weighted inequality needs beta <= -1 and p >= 1, and the claims' test
# field needs lam > 1
test_carleman_suite_bad_sweep_exit_config = _rejects([
    ("carleman_suite", {"betas": [32.0, 64.0]}, "'betas' entry 32.0"),
    ("carleman_suite", {"betas": [-32.0, -0.5]}, "'betas' entry -0.5"),
    ("carleman_suite", {"ps": [8.0, 0.5]}, "'ps' entry 0.5"),
    ("carleman_suite", {"claims_lam": 1.0}, "'claims_lam' 1.0")])
# wrong length, too few radii, radii not positive or not strictly
# increasing, an empty sweep, or an excision that keeps no node of the
# partial-data rule
test_bad_list_param_exit_config = _rejects({
    "annulus-short": [("dcm_convergence", {"annulus": [4.0]}, "'annulus'")],
    "annulus-repeated": [("dcm_convergence", {"annulus": [4.0, 4.0]}, "'annulus'")],
    "annulus-negative": [("dcm_convergence", {"annulus": [-1.0, 6.0]}, "'annulus'")],
    "slope_window-long": [
        ("dcm_convergence", {"slope_window": [0.85, 1.0, 1.15]}, "'slope_window'")],
    "exterior-short": [("blowup_scan", {"exterior": [4.0]}, "'exterior'")],
    "object-short": [("superlens", {"object": [2.0]}, "'object'")],
    "radius_grid-one": [("three_sphere_suite", {"radius_grid": [1.0]}, "'radius_grid'")],
    "radius_grid-two": [("three_sphere_suite", {"radius_grid": [1.0, 2.0]}, "'radius_grid'")],
    "radius_grid-unsorted": [
        ("three_sphere_suite", {"radius_grid": [1.0, 2.0, 1.5]}, "'radius_grid'")],
    "radius_grid-zero": [
        ("three_sphere_suite", {"radius_grid": [0.0, 1.0, 2.0]}, "'radius_grid'")],
    "alpha_excisions-empty": [
        ("three_sphere_suite", {"alpha_excisions": []}, "'alpha_excisions'")],
    "alpha_excisions-covering": [
        ("three_sphere_suite", {"alpha_excisions": [1.5]}, "'alpha_excisions'")],
    "alpha_excisions-covering-second": [
        ("three_sphere_suite", {"alpha_excisions": [0.2, 3.0]}, "'alpha_excisions'")],
    "radii-short": [("maxwell_3sphere_suite", {"radii": [1.0, 2.0]}, "'radii'")],
    "ps-empty": [("carleman_suite", {"ps": []}, "'ps'")],
    "betas-empty": [("carleman_suite", {"betas": []}, "'betas'")]})
# a count of zero passes assertions over zero samples, and a zero frequency
# or degree fails deep in the run
test_non_positive_scalar_param_exit_config = _rejects({
    "n_src-0": [("blowup_scan", {"n_src": 0}, "param 'n_src' must be")],
    "layers-0": [("gluing_demo", {"layers": 0}, "param 'layers' must be")],
    "omega-0": [("dcm_convergence", {"omega": 0.0}, "param 'omega' must be")],
    "count-0": [("three_sphere_suite", {"count": 0}, "param 'count' must be")],
    "max_degree-0": [("three_sphere_suite", {"max_degree": 0}, "param 'max_degree' must be")],
    "frame_count-0": [("carleman_suite", {"frame_count": 0}, "param 'frame_count' must be")],
    "stability-negative": [
        ("maxwell_3sphere_suite", {"stability": -1.0}, "param 'stability' must be")],
    "seed-negative": [("superlens", {"seed": -1}, "param 'seed' must be")]})
test_non_finite_param_exit_config = _rejects({
    "scalar-nan": [("blowup_scan", {"r_s": math.nan}, "param 'r_s' must be finite")],
    "scalar-inf": [("blowup_scan", {"omega": math.inf}, "param 'omega' must be finite")],
    "list-inf": [("blowup_scan", {"deltas": [1e-2, math.inf]}, "param 'deltas' must be finite")],
    "annulus-inf": [("dcm_convergence", {"annulus": [4.0, math.inf], "n_src": 1, "layers": 8,
                                         "deltas": [1e-2, 1e-3]},
                     "param 'annulus' must be finite")],
    "list-minus-inf": [
        ("superlens", {"object": [2.0, -math.inf, 2.0, 0.0]}, "param 'object' must be finite")]})


@pytest.mark.parametrize("scenario, params, csv", [
    ("blowup_scan", {"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]}, "blowup_scan.csv"),
    ("gluing_demo", {"n_src": 2, "layers": 16, "deltas": [1e-2, 1e-3]}, "gluing_demo.csv"),
    ("dcm_convergence", {"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]},
     "dcm_convergence.csv"),
    ("superlens", {"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-5]}, "superlens.csv"),
    ("cm_cloak", {"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]}, "cm_cloak.csv"),
    ("carleman_suite", {"ps": [8.0], "betas": [-32.0, -64.0], "frame_count": 2,
                        "claims_samples": 5}, "carleman_inequality.csv"),
    # 600 polynomials span three check_hadamard blocks of 256 and put many
    # rows on one frequency set
    ("three_sphere_suite", {"count": 600}, "three_sphere_suite.csv"),
    ("maxwell_3sphere_suite", {}, "maxwell_3sphere_suite.csv"),
    ("maxwell_3sphere_suite", {"count": 30, "n_max": 8}, "maxwell_3sphere_suite.csv"),
    # one field evaluation serves the whole loss sweep, on the distinct
    # (radius, direction) pairs of the reports' points
    ("gluing_demo", {"n_src": 12, "layers": 16, "deltas": [1e-2, 1e-3]}, "gluing_demo.csv"),
], ids=["blowup_scan", "gluing_demo", "dcm_convergence", "superlens", "cm_cloak",
        "carleman_suite", "three_sphere_suite", "maxwell_3sphere_suite",
        "writes-reports-and-is-deterministic", "gluing-twelve-orders"])
def test_run_reruns_to_the_same_bytes(tmp_path, scenario, params, csv):
    # a rerun of one config writes the same directory, byte for byte (the
    # manifests too: no timestamp), and no file of it is empty, the
    # scenario's documented report first
    outs = [tmp_path / f"run{i}" for i in (1, 2)]
    for i, out in enumerate(outs):
        cfg = _write_config(tmp_path, f"run{i}.json", scenario, params, out)
        assert main(["run", str(cfg)]) == EXIT_OK
    first, second = ({f.name: f.read_bytes() for f in out.iterdir()} for out in outs)
    assert first[csv]
    assert first == second and all(first.values())
    manifest = json.loads(first[f"{scenario}.manifest.json"])
    assert manifest["package"] == "calrlab" and len(manifest["config_hash"]) == 16
    if scenario == "three_sphere_suite":
        rows = first["three_sphere_suite.csv"].decode().splitlines()
        assert sum(row.startswith("empirical_alpha,") for row in rows) == 3


@pytest.mark.parametrize("scenario, sweep, count", [
    ("dcm_convergence", "_DCM_CONVERGENCE", 3), ("blowup_scan", "_BLOWUP_SCAN", 1),
    ("superlens", "_SUPERLENS", 3), ("cm_cloak", "_CM_CLOAK", 3),
    ("gluing_demo", "_GLUING_DEMO", 1)])
def test_sweep_check_returns_the_media_the_run_solves(tmp_path, monkeypatch, scenario, sweep,
                                                      count):
    # the media the check runs the solver's rules on have the breakpoints
    # of every medium the run hands to the solver: each staircase level (two
    # with Richardson, one without) and the reference, if any
    import calrlab.layered_maxwell.refine as refine
    import calrlab.layered_maxwell.solver as solver
    solved = []
    inner = solver._solve_levels

    def recorded(levels, source, omega):
        solved.extend(tuple(medium.breakpoints) for media in levels for medium in media)
        return inner(levels, source, omega)

    monkeypatch.setattr(solver, "_solve_levels", recorded)
    monkeypatch.setattr(refine, "_solve_levels", recorded)
    p = scenario_params(scenario, {"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]})
    checked = getattr(scenarios, sweep).check(p)
    assert solved == []
    scenarios.run_scenario(scenario, p, tmp_path)
    assert len(checked) == count
    assert {tuple(medium.breakpoints) for medium in checked} == set(solved)


@pytest.mark.parametrize("command, scenario, params, code, prefix", [
    ("validate-config", "dcm_convergence", {"r1": 1e-200, "r2": 1e200}, EXIT_CONFIG,
     "config error: checking the params raised OverflowError"),
    ("run", "dcm_convergence", {"r1": 1e-200, "r2": 1e200}, EXIT_CONFIG,
     "config error: checking the params raised OverflowError"),
    ("run", "dcm_convergence", {"omega": 1e-200, "n_src": 1, "layers": 8,
                                "deltas": [1e-2, 1e-3]}, EXIT_NUMERICAL,
     "numerical guard: ZeroDivisionError"),
    ("run", "three_sphere_suite", {"max_degree": 2000, "count": 2, "alpha_excisions": [0.1]},
     EXIT_NUMERICAL, "numerical guard: OverflowError"),
    ("run", "carleman_suite", {"ps": [1e300]}, EXIT_NUMERICAL, "numerical guard: OverflowError"),
    ("run", "carleman_suite", {"betas": [-1e300, -64.0]}, EXIT_NUMERICAL,
     "numerical guard: OverflowError"),
    ("run", "carleman_suite", {"bookkeeping_lams": [1e300]}, EXIT_NUMERICAL,
     "numerical guard: OverflowError"),
    ("run", "carleman_suite", {"frame_lam": 1e300, "frame_count": 2, "claims_samples": 5},
     EXIT_NUMERICAL, "numerical guard: FloatingPointError('singular whitening"),
], ids=["validate-overflow", "run-overflow-in-check", "wronskian-zero-division",
        "circle-coeffs-overflow", "ps-overflow", "betas-overflow", "bookkeeping-overflow",
        "singular-frame"])
def test_arithmetic_error_exits_with_a_documented_code(tmp_path, capsys, command, scenario,
                                                       params, code, prefix):
    # an ArithmeticError while checking the params is a config error, and
    # one in the run a tripped numerical guard; neither writes output
    cfg = _write_config(tmp_path, "arith.json", scenario, params, tmp_path / "outa")
    assert main([command, str(cfg)]) == code
    assert not (tmp_path / "outa").exists()
    assert capsys.readouterr().err.startswith(prefix)


def test_nan_deviation_fails_its_assertion(tmp_path, capsys, monkeypatch):
    # the second anchor deviation is NaN; the maximum over all of them must
    # keep the NaN, so the assertion fails instead of reading a finite value
    pushed = scenarios.pushed_matrix
    factors = iter([1.0, math.nan])
    monkeypatch.setattr(scenarios, "pushed_matrix",
                        lambda *args: pushed(*args) * next(factors, 1.0))
    cfg = _write_config(tmp_path, "nan.json", "carleman_suite",
                        {"frame_count": 2, "claims_samples": 5}, tmp_path / "outnan")
    assert main(["run", str(cfg)]) == EXIT_ASSERTION
    assert "[FAIL] anchor_exactness: max deviation=nan" in capsys.readouterr().out


def test_carleman_boundary_term_at_large_beta_stays_finite(tmp_path):
    # at p = 16 the weight at the shell's outer end overflows for beta =
    # -256; the bump vanishes there, so that end adds nothing and the
    # measured constants stay finite, with no overflow warning
    cfg = _write_config(tmp_path, "beta.json", "carleman_suite",
                        {"betas": [-128.0, -256.0]}, tmp_path / "outbeta")
    assert main(["run", str(cfg)]) == EXIT_OK
    text = (tmp_path / "outbeta" / "carleman_inequality.csv").read_text()
    rows = [row.split(",") for row in text.splitlines()]
    assert len(rows) == 9 and "inf" not in text
    # every numeric field, not only the measured constant, is finite
    numeric = [i for i, name in enumerate(rows[0]) if name != "medium"]
    assert all(math.isfinite(float(row[i])) for row in rows[1:] for i in numeric)


@pytest.mark.parametrize("frame_lam", [1e100, 1e154, 1e200])
def test_anchor_exactness_holds_at_large_frame_lam(tmp_path, capsys, frame_lam):
    # gamma, and with it the pushed matrix and the anchor block, grows with
    # frame_lam; an exact frame deviates by roundoff relative to the block
    cfg = _write_config(tmp_path, "lam.json", "carleman_suite",
                        {"frame_lam": frame_lam, "frame_count": 5, "claims_samples": 5},
                        tmp_path / "outlam")
    assert main(["run", str(cfg)]) == EXIT_OK
    assert "[PASS] anchor_exactness: max deviation=" in capsys.readouterr().out


def test_gluing_a_4096_layer_shell_keeps_the_forcing_deviation_small(tmp_path):
    # the residual report's finite-difference step comes from the solve: a
    # fixed step of 1e-4 crossed these 2.4e-4-wide sublayers, and the run
    # failed resid_over_delta_bounded with forcing_rel_dev up to 92
    out = tmp_path / "gluing_4096_layers"
    cfg = _write_config(tmp_path, "glue4096.json", "gluing_demo",
                        {"layers": 4096, "n_src": 1, "deltas": [1e-2, 1e-3]}, out)
    assert main(["run", str(cfg)]) == EXIT_OK
    rows = [row.split(",") for row in (out / "gluing_demo.csv").read_text().splitlines()]
    assert rows[0][5] == "forcing_rel_dev" and len(rows) == 3
    assert all(float(row[5]) < 1e-4 for row in rows[1:])


def test_tripped_guard_exit_numerical(tmp_path, capsys, monkeypatch):
    # a near-singular mode raises; the run exits 4 and writes nothing
    monkeypatch.setattr("calrlab.layered_maxwell.solver._COND_GUARD", 1e-2)
    cfg = _write_config(tmp_path, "guard.json", "cm_cloak",
                        {"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]},
                        tmp_path / "outg")
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    assert not (tmp_path / "outg").exists()
    assert "numerical guard: near-singular mode" in capsys.readouterr().err


def test_escalated_residual_warning_exit_numerical(tmp_path, capsys, monkeypatch):
    # with warnings turned into errors, as the test config does, an
    # interface-residual warning is a tripped guard: the run exits 4, names
    # the mode and writes nothing
    monkeypatch.setattr("calrlab.layered_maxwell.solver._INTERFACE_TOL", 0.0)
    cfg = _write_config(tmp_path, "resid.json", "cm_cloak",
                        {"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]},
                        tmp_path / "outr")
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    assert not (tmp_path / "outr").exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: interface residual ")
    assert "for (n=1, pol=TE)" in err


def test_seed_zero_is_a_valid_param():
    assert scenario_params("superlens", {"seed": 0})["seed"] == 0


def test_every_scenario_default_passes_its_checks(tmp_path, monkeypatch):
    # through the library and through `validate-config` on a config that
    # names only the scenario
    monkeypatch.chdir(tmp_path)
    for name, sc in SCENARIOS.items():
        assert scenario_params(name, dict(sc.defaults)) == sc.defaults
        Path("config.json").write_text(json.dumps({"scenario": name}))
        assert main(["validate-config", "config.json"]) == EXIT_OK
