"""CLI round trip: config validation, exit codes, deterministic output."""
import json
import math
from pathlib import Path

import pytest

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


def test_run_writes_reports_and_is_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg1 = _write_config(tmp_path, "c1.json", "maxwell_3sphere_suite",
                         {"count": 30, "n_max": 8}, out1)
    cfg2 = _write_config(tmp_path, "c2.json", "maxwell_3sphere_suite",
                         {"count": 30, "n_max": 8}, out2)
    assert main(["run", str(cfg1)]) == EXIT_OK
    assert main(["run", str(cfg2)]) == EXIT_OK
    csv1 = (out1 / "maxwell_3sphere_suite.csv").read_bytes()
    csv2 = (out2 / "maxwell_3sphere_suite.csv").read_bytes()
    assert csv1 == csv2                      # bit-identical for equal config+seed
    raw1 = (out1 / "maxwell_3sphere_suite.manifest.json").read_bytes()
    raw2 = (out2 / "maxwell_3sphere_suite.manifest.json").read_bytes()
    assert raw1 == raw2                      # manifests too: no timestamp
    manifest = json.loads(raw1)
    assert manifest["package"] == "calrlab"
    assert "config_hash" in manifest and len(manifest["config_hash"]) == 16


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


@pytest.mark.parametrize("scenario", [["cm_cloak"], {"a": 1}], ids=["list", "object"])
def test_scenario_that_is_not_a_string_exit_config(tmp_path, capsys, monkeypatch, scenario):
    monkeypatch.setattr("calrlab.cli.run_scenario", pytest.fail)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": scenario, "out": str(tmp_path / "out")}))
    assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("config needs a 'scenario' among") == 2


def test_run_config_error_exit_code(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == EXIT_CONFIG


def test_run_bad_scenario_params_exit_config(tmp_path):
    cfg = _write_config(tmp_path, "badparam.json", "dcm_convergence",
                        {"r1": 2.0, "r2": 1.0, "deltas": [1e-2]},
                        tmp_path / "outp")
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def test_non_list_deltas_exit_config(tmp_path):
    cfg = _write_config(tmp_path, "deltas.json", "dcm_convergence",
                        {"deltas": "abc"}, tmp_path / "outd")
    assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def test_unknown_param_key_exit_config(tmp_path):
    cfg = _write_config(tmp_path, "typo.json", "maxwell_3sphere_suite",
                        {"cont": 5}, tmp_path / "outk")
    assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "outk").exists()


def test_param_of_another_type_than_its_default_exit_config(tmp_path):
    for i, (scenario, params) in enumerate(
            [("maxwell_3sphere_suite", {"count": "x"}),
             ("maxwell_3sphere_suite", {"count": 5.5}),
             ("dcm_convergence", {"annulus": 5}),
             ("dcm_convergence", {"deltas": [1e-2, "1e-3"]})]):
        cfg = _write_config(tmp_path, f"type{i}.json", scenario, params,
                            tmp_path / "outt")
        assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
        assert main(["run", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("scenario", ["dcm_convergence", "blowup_scan", "superlens",
                                      "cm_cloak", "gluing_demo"])
def test_single_delta_sweep_exit_config(tmp_path, capsys, scenario):
    # every loss sweep fits a slope or compares results across deltas, which
    # one loss value, or one repeated, makes rank-deficient or vacuous
    for i, deltas in enumerate(([1e-2], [1e-2, 1e-2])):
        cfg = _write_config(tmp_path, f"one_delta{i}.json", scenario,
                            {"deltas": deltas, "n_src": 1, "layers": 8},
                            tmp_path / "out1")
        assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
        assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "out1").exists()
    assert capsys.readouterr().err.count("'deltas' needs at least two") == 4


@pytest.mark.parametrize("scenario, params, named", [
    ("cm_cloak", {"r2": 2.0, "r3": 1.0}, "r3 > r2"),
    ("dcm_convergence", {"r1": 3.0}, "r2 > r1"),
    ("dcm_convergence", {"r_s": 2.0}, "'r_s'"),
    ("dcm_convergence", {"annulus": [0.5, 6.0]}, "'annulus'"),
    ("gluing_demo", {"r1": 1.0, "r2": 1.1, "n_src": 1, "layers": 8}, "'r1'"),
    ("superlens", {"annulus": [1.0, 6.0]}, "'annulus'"),
    ("cm_cloak", {"annulus": [0.9, 5.0]}, "'annulus'"),
    ("blowup_scan", {"r_s": 1.5}, "'r_s'"),
    ("dcm_convergence", {"r_s": 1.0052083333333333}, "'r_s'"),
], ids=["cloak-radii-reversed", "core-beyond-shell", "source-on-breakpoint",
        "annulus-over-the-shell", "gluing-shell-too-thin", "superlens-annulus-over-the-shell",
        "cloak-annulus-over-the-complement", "blowup-source-on-breakpoint",
        "source-on-a-richardson-only-breakpoint"])
def test_bad_sweep_geometry_exit_config_before_any_solve(tmp_path, capsys, monkeypatch,
                                                         scenario, params, named):
    # radii out of order, a source on a layer breakpoint (r1 + 1/192 is one
    # of the 2 x 96-layer Richardson level only), a comparison annulus that
    # reaches where the medium and its reference differ, or a gluing shell
    # too thin for any residual sample radius: both commands reject the
    # config before a solve, write nothing, and name the param
    monkeypatch.setattr("calrlab.scenarios.solve", pytest.fail)
    monkeypatch.setattr("calrlab.scenarios.solve_staircased", pytest.fail)
    cfg = _write_config(tmp_path, "geometry.json", scenario, params, tmp_path / "outg")
    assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "outg").exists()
    err = capsys.readouterr().err
    assert err.count("config error: ") == 2
    assert err.count(named) == 2


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
    import calrlab.scenarios as scenarios
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
], ids=["validate-overflow", "run-overflow-in-check", "wronskian-zero-division",
        "circle-coeffs-overflow", "ps-overflow", "betas-overflow", "bookkeeping-overflow"])
def test_arithmetic_error_exits_with_a_documented_code(tmp_path, capsys, command, scenario,
                                                       params, code, prefix):
    # an ArithmeticError while checking the params is a config error, and
    # one in the run a tripped numerical guard; neither writes output
    cfg = _write_config(tmp_path, "arith.json", scenario, params, tmp_path / "outa")
    assert main([command, str(cfg)]) == code
    assert not (tmp_path / "outa").exists()
    assert capsys.readouterr().err.startswith(prefix)


def test_nan_deviation_fails_its_assertion(tmp_path, capsys):
    # at frame_lam 1e300 every anchor deviation is NaN; the running maximum
    # must keep the NaN, so the assertion fails instead of reading 0.0
    import warnings
    cfg = _write_config(tmp_path, "nan.json", "carleman_suite",
                        {"frame_lam": 1e300, "frame_count": 2, "claims_samples": 5},
                        tmp_path / "outnan")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["run", str(cfg)]) == EXIT_ASSERTION
    assert "[FAIL] anchor_exactness: max deviation=nan" in capsys.readouterr().out


def test_carleman_boundary_term_at_large_beta_stays_finite(tmp_path):
    # at p = 16 the weight at the shell's outer end overflows for beta =
    # -256; the bump vanishes there, so that end adds nothing and the
    # measured constants stay finite, with no overflow warning
    import warnings
    cfg = _write_config(tmp_path, "beta.json", "carleman_suite",
                        {"betas": [-128.0, -256.0]}, tmp_path / "outbeta")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg)]) == EXIT_OK
    text = (tmp_path / "outbeta" / "carleman_inequality.csv").read_text()
    rows = [row.split(",") for row in text.splitlines()]
    assert len(rows) == 9 and "inf" not in text
    # every numeric field, not only the measured constant, is finite
    numeric = [i for i, name in enumerate(rows[0]) if name != "medium"]
    assert all(math.isfinite(float(row[i])) for row in rows[1:] for i in numeric)


def _run_warning_free(cfg) -> int:
    """`cli.main(["run", cfg])` with every RuntimeWarning an error."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(["run", str(cfg)])


def test_gluing_a_4096_layer_shell_keeps_the_forcing_deviation_small(tmp_path):
    # the residual report's finite-difference step comes from the solve: a
    # fixed step of 1e-4 crossed these 2.4e-4-wide sublayers, and the run
    # failed resid_over_delta_bounded with forcing_rel_dev up to 92
    out = tmp_path / "gluing_4096_layers"
    cfg = _write_config(tmp_path, "glue4096.json", "gluing_demo",
                        {"layers": 4096, "n_src": 1, "deltas": [1e-2, 1e-3]}, out)
    assert _run_warning_free(cfg) == EXIT_OK
    rows = [row.split(",") for row in (out / "gluing_demo.csv").read_text().splitlines()]
    assert rows[0][5] == "forcing_rel_dev" and len(rows) == 3
    assert all(float(row[5]) < 1e-4 for row in rows[1:])


def test_gluing_twelve_orders_reruns_to_the_same_bytes(tmp_path):
    # one field evaluation serves the whole loss sweep, on the distinct
    # (radius, direction) pairs of the reports' points; a rerun must write
    # the same directory, byte for byte
    outs = [tmp_path / f"glue_orders_{i}" for i in (1, 2)]
    for i, out in enumerate(outs, 1):
        cfg = _write_config(tmp_path, f"orders_{i}.json", "gluing_demo",
                            {"n_src": 12, "layers": 16, "deltas": [1e-2, 1e-3]}, out)
        assert _run_warning_free(cfg) == EXIT_OK
        assert (out / "gluing_demo.csv").stat().st_size > 0
    first, second = ({f.name: f.read_bytes() for f in out.iterdir()} for out in outs)
    assert first == second


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
    # with warnings turned into errors, an interface-residual warning is a
    # tripped guard: the run exits 4, names the mode and writes nothing
    import warnings
    monkeypatch.setattr("calrlab.layered_maxwell.solver._INTERFACE_TOL", 0.0)
    cfg = _write_config(tmp_path, "resid.json", "cm_cloak",
                        {"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]},
                        tmp_path / "outr")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg)]) == EXIT_NUMERICAL
    assert not (tmp_path / "outr").exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: interface residual ")
    assert "for (n=1, pol=TE)" in err


def test_lossy_dcm_with_p_other_than_2_exit_config(tmp_path):
    # a positive loss on a p != 2 shell gives a complex effective order
    for i, scenario in enumerate(("dcm_convergence", "blowup_scan")):
        cfg = _write_config(tmp_path, f"p3_{i}.json", scenario,
                            {"p": 3.0, "n_src": 1, "layers": 8,
                             "deltas": [1e-2, 1e-3]}, tmp_path / "outp3")
        assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
        assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "outp3").exists()


def test_carleman_suite_bad_sweep_exit_config(tmp_path):
    # the weighted inequality needs beta <= -1 and p >= 1, and the claims'
    # test field needs lam > 1; reject before the frame and claims stages run
    for i, params in enumerate([{"betas": [32.0, 64.0]},
                                {"betas": [-32.0, -0.5]},
                                {"ps": [8.0, 0.5]},
                                {"claims_lam": 1.0}]):
        cfg = _write_config(tmp_path, f"sweep{i}.json", "carleman_suite",
                            params, tmp_path / "outc")
        assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
        assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "outc").exists()


@pytest.mark.parametrize("scenario, params", [
    ("dcm_convergence", {"annulus": [4.0]}),
    ("dcm_convergence", {"annulus": [4.0, 4.0]}),
    ("dcm_convergence", {"annulus": [-1.0, 6.0]}),
    ("dcm_convergence", {"slope_window": [0.85, 1.0, 1.15]}),
    ("blowup_scan", {"exterior": [4.0]}),
    ("superlens", {"object": [2.0]}),
    ("three_sphere_suite", {"radius_grid": [1.0]}),
    ("three_sphere_suite", {"radius_grid": [1.0, 2.0]}),
    ("three_sphere_suite", {"radius_grid": [1.0, 2.0, 1.5]}),
    ("three_sphere_suite", {"radius_grid": [0.0, 1.0, 2.0]}),
    ("three_sphere_suite", {"alpha_excisions": []}),
    ("three_sphere_suite", {"alpha_excisions": [1.5]}),
    ("three_sphere_suite", {"alpha_excisions": [0.2, 3.0]}),
    ("maxwell_3sphere_suite", {"radii": [1.0, 2.0]}),
    ("carleman_suite", {"ps": []}),
    ("carleman_suite", {"betas": []}),
], ids=["annulus-short", "annulus-repeated", "annulus-negative",
        "slope_window-long", "exterior-short", "object-short",
        "radius_grid-one", "radius_grid-two", "radius_grid-unsorted",
        "radius_grid-zero", "alpha_excisions-empty",
        "alpha_excisions-covering", "alpha_excisions-covering-second",
        "radii-short", "ps-empty", "betas-empty"])
def test_bad_list_param_exit_config(tmp_path, capsys, scenario, params):
    # wrong length, too few radii, radii not positive or not strictly
    # increasing, an empty sweep, or an excision that keeps no node of the
    # partial-data rule: rejected before any work, so no output directory,
    # with a message that names the param
    cfg = _write_config(tmp_path, "list.json", scenario, params,
                        tmp_path / "outl")
    assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "outl").exists()
    (key,) = params
    assert capsys.readouterr().err.count(f"'{key}'") == 2


@pytest.mark.parametrize("scenario, params", [
    ("blowup_scan", {"n_src": 0}), ("gluing_demo", {"layers": 0}),
    ("dcm_convergence", {"omega": 0.0}), ("three_sphere_suite", {"count": 0}),
    ("three_sphere_suite", {"max_degree": 0}), ("carleman_suite", {"frame_count": 0}),
    ("maxwell_3sphere_suite", {"stability": -1.0}), ("superlens", {"seed": -1}),
], ids=["n_src-0", "layers-0", "omega-0", "count-0", "max_degree-0",
        "frame_count-0", "stability-negative", "seed-negative"])
def test_non_positive_scalar_param_exit_config(tmp_path, capsys, scenario, params):
    # a count of zero passes assertions over zero samples, and a zero
    # frequency or degree fails deep in the run: rejected before any work,
    # with a message that names the param
    cfg = _write_config(tmp_path, "scalar.json", scenario, params, tmp_path / "outs")
    assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "outs").exists()
    (key,) = params
    assert capsys.readouterr().err.count(f"param '{key}' must be") == 2


def test_seed_zero_is_a_valid_param():
    assert scenario_params("superlens", {"seed": 0})["seed"] == 0


@pytest.mark.parametrize("scenario, params, key", [
    ("blowup_scan", {"r_s": math.nan}, "r_s"),
    ("blowup_scan", {"omega": math.inf}, "omega"),
    ("blowup_scan", {"deltas": [1e-2, math.inf]}, "deltas"),
    ("dcm_convergence", {"annulus": [4.0, math.inf], "n_src": 1, "layers": 8,
                         "deltas": [1e-2, 1e-3]}, "annulus"),
    ("superlens", {"object": [2.0, -math.inf, 2.0, 0.0]}, "object"),
], ids=["scalar-nan", "scalar-inf", "list-inf", "annulus-inf", "list-minus-inf"])
def test_non_finite_param_exit_config(tmp_path, capsys, scenario, params, key):
    # JSON NaN and Infinity parse as floats of the right type; they are
    # rejected before any work, with a message that names the param
    cfg = _write_config(tmp_path, "nonfinite.json", scenario, params,
                        tmp_path / "outn")
    assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
    assert main(["validate-config", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "outn").exists()
    err = capsys.readouterr().err
    assert err.count(f"param '{key}' must be finite") == 2

def test_every_scenario_default_passes_its_checks():
    for name, sc in SCENARIOS.items():
        assert scenario_params(name, dict(sc.defaults)) == sc.defaults
