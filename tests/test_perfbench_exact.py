"""The benchmark's `exact` workload, run once through the CLI and checked
against the benchmark's reference values.

Every number the workload checks is deterministic (bounds, sigma2, diagnose
series, the Rademacher exact-pmf distances and the appendix equality case), so
a change that moves one by more than the benchmark's 1e-9 tolerance fails
here and not only in the benchmark.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from meanclt.cli import main  # noqa: E402


def test_exact_workload_matches_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    records = []
    for op in workloads.build("exact", 1, tmp_path):
        with redirect_stdout(io.StringIO()):
            assert main(list(op.argv)) == 0, op.argv
        records += checks.check_op(op, reference)
    failed = [r for r in records if not r["ok"]]
    assert records and not failed, failed[:3]
