"""Property test: a malformed config ends with a documented exit code.

Starting from a tiny valid circle-walk config, one top-level or nested field
is replaced by a value from a fixed pool of wrong types and edge values; the
run command must return 0, 2 or 3 and never raise.
"""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meanclt.cli import EXIT_OK, EXIT_RESOURCE, EXIT_VALIDATION, main

BASE = {
    "process": {"type": "circle_walk", "a_hi": 0.41421356237309503, "a_lo": 0.0},
    "observable": {"constant": 0.0, "cos": [1.0], "sin": [0.0]},
    "n_grid": [4, 8],
    "reps": 100,
    "seed": 1,
    "targets": ["empirical_d1", "ks", "projective_bound", "rate_fit"],
    "tolerance": {"abs_tol": 1e-11, "rel_tol": 1e-11, "max_depth": 44},
    "output": "out",
    "exact_pmf": False,
    "bootstrap": 2,
}

FIELDS = [(key,) for key in BASE] + [
    (outer, inner) for outer in ("process", "observable", "tolerance")
    for inner in BASE[outer]]

POOL = [None, True, "x", -1, 0, 2.5, math.nan, [], ["x"], {}, {"type": "x"}]


def test_base_config_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    assert main(["run", "--config", str(path)]) == EXIT_OK
    assert (tmp_path / "out.csv").exists()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(POOL))
def test_one_bad_field_gives_documented_exit(tmp_path, monkeypatch, field, value):
    monkeypatch.chdir(tmp_path)
    config = copy.deepcopy(BASE)
    target = config
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) in (EXIT_OK, EXIT_VALIDATION, EXIT_RESOURCE)
