"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import ABS_TOL, compare_outputs, compare_text, read_outputs  # noqa: E402
from run import OUT, REFERENCE, ROOT, SRC, run_pass  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import DEFAULT_SEEDS, WORKLOADS  # noqa: E402

sys.path.insert(0, str(SRC))


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_records_each_workload_with_its_rationale():
    bench = _bench()
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert set(bounds) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert bounds["setup_s"] == max(bounds.values())


def test_seed_zero_runs_the_scenario_defaults():
    for name, workload in WORKLOADS.items():
        for scenario, params in workload.scenario_params(0):
            assert "seed" not in params
            manifest = json.loads(
                (REFERENCE / name / f"{scenario}.manifest.json").read_text())
            assert manifest["config"]["seed"] == DEFAULT_SEEDS[scenario]
        for scenario, params in workload.scenario_params(5):
            assert params["seed"] == DEFAULT_SEEDS[scenario] + 5


def test_check_tolerates_roundoff_and_rejects_changed_numbers(tmp_path):
    ref = "delta,err\n1.000000000000e-02,2.887970707718e-01,5.7e-16\n"
    assert compare_text(ref, ref) is None
    assert compare_text(ref.replace("707718e-01", "707719e-01"), ref) is None
    assert compare_text(ref.replace("5.7e-16", f"{ABS_TOL / 2:.1e}"), ref) is None
    assert compare_text(ref.replace("2.8879", "2.8880"), ref) is not None
    assert compare_text(ref.replace("delta", "Delta"), ref) is not None
    assert compare_text(ref + "1,2\n", ref) is not None

    (tmp_path / "a.manifest.json").write_text(
        json.dumps({"finished_unix": 1, "results": {"x": 1.5}}))
    first = read_outputs(tmp_path)
    (tmp_path / "a.manifest.json").write_text(
        json.dumps({"finished_unix": 2, "results": {"x": 1.5}}))
    assert compare_outputs(read_outputs(tmp_path), first) == []
    (tmp_path / "b.csv").write_text("x\n")
    assert compare_outputs(read_outputs(tmp_path), first) == ["b.csv: unexpected"]


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dcm_fine",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _bindings():
    """Every (owner, attribute) -> object id over calrlab's modules and GluedField."""
    from calrlab.layered_maxwell.fields import GluedField
    owners = [m for k, m in sys.modules.items()
              if k == "calrlab" or k.startswith("calrlab.")] + [GluedField]
    return {(id(o), k): id(v) for o in owners for k, v in list(vars(o).items())}


@pytest.fixture(scope="module")
def traced():
    """Two traced passes of every workload at seed 0: name -> [(metrics, outputs)]."""
    from calrlab.scenarios import run_scenario
    before = _bindings()
    out = {}
    for name, workload in WORKLOADS.items():
        passes = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                _, outputs, problems = run_pass(
                    workload, 0, OUT / f"{name}-test",
                    tracer.span("scenarios", "scenarios", run_scenario))
            finally:
                tracer.restore()
            assert problems == []
            passes.append((tracer.metrics(), outputs))
        shutil.rmtree(OUT / f"{name}-test")
        out[name] = passes
    return before, out


def test_restore_puts_back_every_rebound_name(traced):
    before, _ = traced
    after = _bindings()
    assert {key: after.get(key) for key in before} == before


def test_traced_passes_match_the_reference(traced):
    for name, passes in traced[1].items():
        for _, outputs in passes:
            assert compare_outputs(outputs, read_outputs(REFERENCE / name)) == []


def test_two_traced_runs_give_identical_counts(traced):
    for passes in traced[1].values():
        counts = [{k: v for k, v in m.items() if not k.endswith("_s")}
                  for m, _ in passes]
        assert counts[0] == counts[1]
        assert counts[0]["scenarios.calls"] >= 1


def test_self_times_add_up_to_the_traced_wall_time(traced):
    for passes in traced[1].values():
        for metrics, _ in passes:
            self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
            assert self_total == pytest.approx(metrics["scenarios.total_s"], rel=1e-9)


def test_attribution_the_workloads_rely_on(traced):
    m = {name: passes[0][0] for name, passes in traced[1].items()}

    def share(name, key):
        return m[name].get(key, 0.0) / m[name]["scenarios.total_s"]

    assert share("dcm_fine", "layered_maxwell.solver.total_s") > 0.8
    assert share("blowup_norms", "layered_maxwell.norms.total_s") > 0.5
    assert share("glue_high_order", "layered_maxwell.fields.total_s") > 0.2
    assert not [k for k in m["analysis"]
                if k.startswith(("layered_maxwell.", "specfun.hat_"))]
    assert m["analysis"]["carleman.carleman_inequality_check.calls"] > 0
