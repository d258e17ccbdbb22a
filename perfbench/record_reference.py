"""Record reference.json: every workload's outputs.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

Deterministic outputs are recorded at seed 1 and checked against it to 1e-9
relative.  For Monte Carlo outputs, d1_normalized and d1_boot_se are the
medians over seeds 1..MC_SEEDS: one seed's bootstrap SE ranges from 0.6x to
1.8x of that median, so a single seed is too noisy to centre a band on.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path

import checks
import workloads

REFERENCE_SEED = 1
MC_SEEDS = 8


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path.insert(0, str(root / "src"))
    import meanclt.cli

    scratch = root / ".perfbench_work" / "reference"
    shutil.rmtree(scratch, ignore_errors=True)
    ops, mc = {}, {}
    for name, wl in workloads.WORKLOADS.items():
        is_mc = any(check == "mc" for _, _, check in wl.ops)
        for seed in range(REFERENCE_SEED, REFERENCE_SEED + (MC_SEEDS if is_mc else 1)):
            workdir = scratch / f"{name}-{seed}"
            workdir.mkdir(parents=True)
            for op in workloads.build(name, seed, workdir):
                os.chdir(workdir)
                with redirect_stdout(io.StringIO()):
                    rc = meanclt.cli.main(list(op.argv))
                if rc != 0:
                    raise SystemExit(f"{op.ref}: {' '.join(op.argv)} exited {rc}")
                out = checks.normalized(op)
                ops.setdefault(op.ref, out)
                if op.check == "mc":
                    mc.setdefault(op.ref, []).append(out["per_n"])
    for ref, runs in mc.items():
        ops[ref]["mc_seeds"] = len(runs)
        for i, rec in enumerate(ops[ref]["per_n"]):
            for key in ("d1_normalized", "d1_boot_se"):
                rec[key] = statistics.median(run[i][key] for run in runs)
    os.chdir(root)
    shutil.rmtree(scratch)
    (here / "reference.json").write_text(
        json.dumps({"seed": REFERENCE_SEED, "ops": ops}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
