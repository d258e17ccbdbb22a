"""One benchmark pass, run in a fresh process by run.py.

Set-up (import meanclt, write the workload's configs, install the tracer when
tracing) ends at `t_ready`; the pass then calls `meanclt.cli.main` once per op
and times each call (`op_s`).  Calibration samples (`calibrate`) taken right
after set-up (`setup_cal_s`) and over the ops (`cal_s`, see `Sampler`) let
run.py scale times to a reference CPU speed; the op timings leave the
samples' own time out.  Output checks, digests and span aggregation happen
after the last op.  The result is written as JSON to --result.

    python3 perfbench/passrun.py --root . --workload exact --seed 1 --trace 0 \
        --workdir .perfbench_work/p0 --result .perfbench_work/p0.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np


SAMPLE_EVERY_S = 0.1  # calibration sample interval during untraced ops


def calibrate() -> float:
    """CPU seconds taken by a fixed ~3 ms of interpreter and numpy work that
    uses no meanclt code: a sample of how fast this CPU runs right now.  CPU
    time, not wall time, so a sample that is preempted still reads true."""
    t = time.thread_time()
    s = 0
    for i in range(10000):
        s += i * i % 7
    a = np.linspace(0.0, 1.0, 1 << 15)
    for _ in range(3):
        s += float(np.sort(np.sin(a * 7.0))[0])
    return time.thread_time() - t


class Sampler:
    """Calibration samples spread evenly in time over a pass's ops.

    With `timer`, a SIGALRM handler takes one every SAMPLE_EVERY_S of wall
    time; `spent_s` is the wall time the handler took, which the op timings
    leave out.  Without it (traced passes, where no sample may land inside a
    span) one is taken before the first op and after each op."""

    def __init__(self, timer: bool):
        self.timer, self.samples, self.spent_s = timer, [], 0.0

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.spent_s += time.perf_counter() - t

    def start(self):
        if self.timer:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def between_ops(self):
        if not self.timer:
            self.samples.append(calibrate())

    def stop(self):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = ap.parse_args()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import meanclt.cli
    if Path(meanclt.__file__).resolve().parent != src / "meanclt":
        raise SystemExit(f"imported meanclt from {meanclt.__file__}, not from {src}")
    import checks
    import tracer as tracing
    import workloads

    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True)
    result_path = Path(args.result).resolve()
    spans_path = Path(args.spans).resolve() if args.spans else None
    ops = workloads.build(args.workload, args.seed, workdir)
    os.chdir(workdir)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()

    t_ready = time.monotonic()
    calibrate()  # warm-up: the first call pays for page faults and numpy's lazy set-up
    setup_cal_s = [calibrate() for _ in range(3)]
    sampler = Sampler(timer=not args.trace)
    rcs, op_s = [], []
    with redirect_stdout(io.StringIO()):
        sampler.start()
        try:
            for op in ops:
                sampler.between_ops()
                spent, t_op = sampler.spent_s, time.perf_counter()
                try:
                    rcs.append(meanclt.cli.main(list(op.argv)))
                except Exception as exc:  # an op that raises is a failed op, not a crashed pass
                    rcs.append(repr(exc))
                op_s.append(time.perf_counter() - t_op - (sampler.spent_s - spent))
            sampler.between_ops()
        finally:
            sampler.stop()
    tracer.uninstall()

    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    records = []
    for op, rc in zip(ops, rcs):
        records.append({"name": f"{op.ref}.exit", "ok": rc == 0, "detail": f"exit {rc!r}"})
        if rc != 0:
            continue
        try:
            records += checks.check_op(op, reference)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            records.append({"name": f"{op.ref}.check", "ok": False, "detail": repr(exc)})
    files = [f for op in ops for f in op.files if Path(f).exists()]
    out = {"t_ready": t_ready, "op_s": op_s, "cal_s": sampler.samples,
           "setup_cal_s": setup_cal_s,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "checks": records, "digests": checks.digest(files)}
    if args.trace:
        timings = [json.loads(Path(f).read_text()).get("timings", {})
                   for f in files if f.endswith(".manifest.json")]
        out["layers"] = tracing.layer_metrics(tracer.spans, timings, tracer.moment_keys)
        if spans_path:
            with open(spans_path, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
    result_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
