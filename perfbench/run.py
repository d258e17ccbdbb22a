"""The repository benchmark: one workload, measured for a set time.

    python3 perfbench/run.py --workload mc-long --seed 7 --seconds 40 --trace 0

Run from the repository root.  Each pass runs in a fresh process
(perfbench/passrun.py) with MEANCLT_THREADS removed from its environment;
passes repeat until the next one would overrun --seconds (at least
MIN_ROUNDS of them).  With --trace 0 the last stdout line reports the
end-to-end metrics of BENCHMARK.json as medians over the passes; with
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics, the traced-minus-untraced `norm_wall_s` as `trace.overhead_s`, and
checks that traced outputs are byte-identical to untraced ones apart from
manifest timings.  Every other line starts with '#'.

Times are scaled to a reference CPU speed, because the host's speed drifts
by up to 2x over seconds to minutes.  passrun.calibrate() is a fixed piece of
work that runs no meanclt code; its CPU time, sampled evenly over a pass's
ops (passrun.Sampler), tracks the host's speed.  The ops' wall time is multiplied by the mean of
CAL_REF_S / sample, and set-up time by CAL_REF_S over the mean of the samples
taken right after set-up.  Raw wall and set-up times are printed on '#' lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_ROUNDS = {0: 3, 1: 2}
DEADLINE_S = 150.0  # no new round after this
RUN_LIMIT_S = 175.0  # a run must end within 180 s, so no pass may outlast this
PASS_TIMEOUT_S = 120.0
CAL_REF_S = 0.0025  # passrun.calibrate() at the reference speed; 2.5-5 ms on a 2-core Xeon
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """What the numbers were measured on."""
    import numpy as np
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def run_pass(workload: str, seed: int, trace: int, index: int, timeout: float):
    """One pass in a fresh process; returns its result dict, or None if it crashed."""
    workdir, result = WORK / f"p{index}", WORK / f"p{index}.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result)]
    if trace:
        cmd += ["--spans", str(WORK / "spans.jsonl")]
    env = {k: v for k, v in os.environ.items() if k != "MEANCLT_THREADS"}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"# pass {index} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"# pass {index} exited {proc.returncode}", file=sys.stderr)
        return None
    r = json.loads(result.read_text())
    r["wall_s"] = sum(r["op_s"])
    r["norm_wall_s"] = r["wall_s"] * statistics.fmean(CAL_REF_S / c for c in r["cal_s"])
    r["raw_setup_s"] = r["t_ready"] - t_spawn
    r["setup_s"] = r["raw_setup_s"] * CAL_REF_S / statistics.fmean(r["setup_cal_s"])
    shutil.rmtree(workdir)
    result.unlink()
    return r


def tally(passes) -> tuple:
    """(attempted, failed) operations: one per check, and one per crashed pass."""
    attempted = failed = 0
    for r in passes:
        if r is None:
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += len(r["checks"])
        failed += sum(not c["ok"] for c in r["checks"])
        for c in r["checks"]:
            if not c["ok"]:
                print(f"# FAILED {c['name']}: {c['detail']}", file=sys.stderr)
    return attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (ROOT / "src" / "meanclt" / "__init__.py", ROOT / "BENCHMARK.json",
                           HERE / "reference.json") if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    wl = workloads.WORKLOADS[args.workload]
    print(f"# workload {wl.name}: {wl.size}")
    print(f"# why: {wl.why}")
    print("# env " + json.dumps(environment(), sort_keys=True))

    kinds = (0, 1) if args.trace else (0,)
    passes = {0: [], 1: []}
    t0 = time.monotonic()
    rounds = 0
    while True:
        for kind in kinds:
            index = len(passes[0]) + len(passes[1])
            timeout = min(PASS_TIMEOUT_S, RUN_LIMIT_S - (time.monotonic() - t0))
            r = run_pass(args.workload, args.seed, kind, index, timeout)
            passes[kind].append(r)
            if r is not None:
                ok = sum(c["ok"] for c in r["checks"])
                print(f"# pass {index} trace={kind} norm_wall_s={r['norm_wall_s']:.4f} "
                      f"setup_s={r['setup_s']:.4f} raw wall_s={r['wall_s']:.4f} "
                      f"raw setup_s={r['raw_setup_s']:.4f} peak_rss_mib={r['peak_rss_mib']:.1f} "
                      f"checks {ok}/{len(r['checks'])}")
        rounds += 1
        elapsed = time.monotonic() - t0
        per_round = elapsed / rounds
        if elapsed + per_round > DEADLINE_S or \
                (rounds >= MIN_ROUNDS[args.trace] and elapsed + per_round > args.seconds):
            break

    plain = [r for r in passes[0] if r is not None]
    traced = [r for r in passes[1] if r is not None]
    attempted, failed = tally(passes[0] + passes[1])
    if args.trace:
        # traced outputs must be byte-identical to untraced ones, apart from timings
        for r in traced:
            same = bool(plain) and r["digests"] == plain[0]["digests"]
            attempted, failed = attempted + 1, failed + (not same)
            if not same:
                print("# FAILED trace.outputs_identical", file=sys.stderr)
    complete = bool(plain) and (bool(traced) or not args.trace)
    median = lambda rs, key: statistics.median(r[key] for r in rs)

    values = {}
    if complete and args.trace:
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = median(traced, "norm_wall_s") - median(plain, "norm_wall_s")
    elif complete:
        values = {k: median(plain, k) for k in ("norm_wall_s", "setup_s", "peak_rss_mib")}
        print(f"# raw medians: wall_s = {median(plain, 'wall_s'):.6g} s, "
              f"setup_s = {median(plain, 'raw_setup_s'):.6g} s")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"] if m["name"] in values}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if args.trace and complete:
        wall = median(traced, "wall_s")
        shares = sorted(((values[k] / wall, k[:-len(".self_s")]) for k in values
                         if k.endswith(".self_s")), reverse=True)
        print("# self-time share of traced wall_s: "
              + ", ".join(f"{layer} {share:.0%}" for share, layer in shares))
    print(f"# fail_frac = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} operations failed; {len(plain)} untraced, "
          f"{len(traced)} traced passes)")
    print(json.dumps({"correct": complete and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
