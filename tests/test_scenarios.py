"""Pinned numbers of three scenarios at the small configs the CI runs.

No other test pins what `superlens`, `cm_cloak` and `maxwell_3sphere_suite`
measure.  A change that moves a pinned result by more than its relative
tolerance changes the measurement, and says so.
"""
import pytest

from calrlab.scenarios import run_scenario

# The small configs of the CI run, at the default seed:
# scenario -> (params, {result key: recorded value}, relative tolerance).
RECORDED = {
    "superlens": ({"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-5]},
                  {"errors": {"0.01": 0.19463776287154144,
                              "1e-05": 0.0001346899067619627}}, 1e-10),
    "cm_cloak": ({"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]},
                 {"errors": {"0.01": 0.12353107650990781,
                             "0.001": 0.012239098918695523}}, 1e-10),
    "maxwell_3sphere_suite": ({"count": 20},
                              {"max_c": 0.823328377538009,
                               "base_max": 0.823328377538009,
                               "single_mode_c": 0.9999999999999996}, 1e-12),
}


@pytest.mark.parametrize("scenario", sorted(RECORDED))
def test_results_match_recorded_values(tmp_path, scenario):
    params, recorded, rel = RECORDED[scenario]
    res = run_scenario(scenario, params, tmp_path)
    for key, value in recorded.items():
        assert res[key] == pytest.approx(value, rel=rel, abs=0.0), key
