"""Property test: a malformed config ends with a documented exit code.

Starting from a tiny valid config of one process family (circle walk, i.i.d.
law or finite chain), one top-level or nested field is replaced by a value
from a fixed pool of wrong types and edge values; the run command must
return 0, 2 or 3 and never raise.  A numeric field given a boolean, a string
or null must exit 2 and name the field.
"""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meanclt.cli import EXIT_OK, EXIT_RESOURCE, EXIT_VALIDATION, main

COMMON = {
    "n_grid": [4, 8],
    "reps": 100,
    "seed": 1,
    "tolerance": {"abs_tol": 1e-11, "rel_tol": 1e-11, "max_depth": 44},
    "output": "out",
    "bootstrap": 2,
}

BASES = {
    "circle": dict(COMMON,
                   process={"type": "circle_walk", "a_hi": 0.41421356237309503, "a_lo": 0.0},
                   observable={"constant": 0.0, "cos": [1.0], "sin": [0.0]},
                   targets=["empirical_d1", "ks", "projective_bound", "rate_fit"],
                   exact_pmf=False),
    "iid": dict(COMMON, process={"type": "iid", "law": "gaussian:1.5"}, observable=None,
                targets=["empirical_d1", "ks", "rate_fit", "zolotarev"]),
    "chain": dict(COMMON,
                  process={"type": "finite_chain", "transition": [[0.9, 0.1], [0.2, 0.8]],
                           "values": [1.0, -1.0], "stationary": [2 / 3, 1 / 3]},
                  observable=None, targets=["empirical_d1", "ks", "rate_fit"]),
}

FIELDS = [(name, path) for name, base in BASES.items()
          for path in [(key,) for key in base] + [
              (outer, inner) for outer in ("process", "observable", "tolerance")
              if isinstance(base[outer], dict) for inner in base[outer]]]

POOL = [None, True, "x", -1, 0, 2.5, math.nan, [], ["x"], {}, {"type": "x"}]

NUMERIC = {("reps",), ("seed",), ("bootstrap",), ("observable", "constant"),
           ("process", "a_hi"), ("process", "a_lo"),
           ("tolerance", "abs_tol"), ("tolerance", "rel_tol"), ("tolerance", "max_depth")}


def test_base_config_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    for base in BASES.values():
        path.write_text(json.dumps(base))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "out.csv").exists()
        (tmp_path / "out.csv").unlink()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(POOL))
def test_one_bad_field_gives_documented_exit(tmp_path, monkeypatch, capsys, field, value):
    monkeypatch.chdir(tmp_path)
    name, path = field
    config = copy.deepcopy(BASES[name])
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    if path in NUMERIC and (value is None or isinstance(value, (bool, str))):
        assert code == EXIT_VALIDATION
        assert f"(field: {'.'.join(path)})" in err
    else:
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_RESOURCE)
