"""Pinned numbers of two loss sweeps at the small configs the CI runs.

No other test pins what `superlens` and `cm_cloak` measure.  A change that
moves an error by more than 1e-10 relative changes the measurement, and
says so.
"""
import pytest

from calrlab.scenarios import run_scenario

# The small configs of the CI run, at the default seed.
RECORDED = {
    "superlens": ({"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-5]},
                  {"0.01": 0.19463776287154144, "1e-05": 0.0001346899067619627}),
    "cm_cloak": ({"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]},
                 {"0.01": 0.12353107650990781, "0.001": 0.012239098918695523}),
}


@pytest.mark.parametrize("scenario", sorted(RECORDED))
def test_sweep_errors_match_recorded_values(tmp_path, scenario):
    params, errors = RECORDED[scenario]
    res = run_scenario(scenario, params, tmp_path)
    assert res["errors"] == pytest.approx(errors, rel=1e-10, abs=0.0)
