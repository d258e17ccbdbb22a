"""Tests of the benchmark's span arithmetic, wrapper transparency, checks and
speed sampling."""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks  # noqa: E402
import passrun  # noqa: E402
import tracer  # noqa: E402
import meanclt  # noqa: E402
import meanclt.cli  # noqa: E402
from meanclt import cosine, harness, processes  # noqa: E402


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracer.covered((0.0, 10.0), []) == 0.0
    assert tracer.covered((0.0, 10.0), [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(4.0)
    # overlapping children count once
    assert tracer.covered((0.0, 10.0), [(1.0, 5.0), (3.0, 6.0), (5.5, 6.5)]) == pytest.approx(5.5)
    # parts outside the parent do not count
    assert tracer.covered((2.0, 4.0), [(0.0, 3.0), (3.5, 9.0), (5.0, 6.0)]) == pytest.approx(1.5)


def test_self_time_is_duration_minus_child_coverage():
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["harness.run", 1.0, 9.0, 0, None],
             ["processes.simulate", 2.0, 5.0, 1, None],
             ["fourier.FourierFn.eval", 2.5, 3.0, 2, None],
             ["fourier.FourierFn.eval", 3.5, 4.5, 2, None],
             ["bounds.moments", 6.0, 8.0, 1, None]]
    assert tracer.self_times(spans) == pytest.approx([2.0, 3.0, 1.5, 0.5, 1.0, 2.0])
    st = tracer.SpanStats(spans)
    assert st.layer_self("fourier") == pytest.approx(1.5)
    assert sum(st.self_s) == pytest.approx(10.0)  # self times partition the root span
    assert st.under("fourier.FourierFn.eval", {"harness.run"}) == 2
    assert st.under("bounds.moments", {"processes.simulate"}) == 0


def test_wrappers_are_installed_in_every_namespace_and_removed():
    original = processes.simulate
    original_eval = meanclt.FourierFn.__dict__["eval"]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = processes.simulate
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert harness.simulate is wrapped and meanclt.simulate is wrapped
        assert harness.run is meanclt.cli.run
        assert meanclt.FourierFn.__dict__["eval"] is not original_eval
        assert wrapped.__name__ == "simulate" and wrapped.__doc__ == original.__doc__
    finally:
        t.uninstall()
    assert processes.simulate is original and harness.simulate is original
    assert meanclt.FourierFn.__dict__["eval"] is original_eval


def test_wrappers_pass_results_and_exceptions_through():
    f = cosine(3, 0.5)
    x = [0.1, 0.2, 0.7]
    plain = (f.eval(x).tolist(), processes.transfer(processes.DoublingMap(), f, 1))
    t = tracer.Tracer()
    t.install()
    try:
        got = (f.eval(x).tolist(), processes.transfer(processes.DoublingMap(), f, 1))
        with pytest.raises(meanclt.DomainError):
            processes.transfer(processes.DoublingMap(), f, steps=-1)
    finally:
        t.uninstall()
    assert got[0] == plain[0] and got[1].allclose(plain[1])
    names = [s[0] for s in t.spans]
    assert names == ["fourier.FourierFn.eval", "processes.transfer", "processes.transfer"]
    assert t.spans[0][4] == {"trig_evals": 3}
    assert all(s[2] >= s[1] for s in t.spans)  # the raising call still closed its span


def _run_cli(tmp_path, name, traced):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"process": {"type": "doubling_map"},
                               "observable": {"constant": 0.0, "cos": [1.0], "sin": []},
                               "n_grid": [8, 16, 32], "reps": 200, "seed": 3, "bootstrap": 5,
                               "targets": ["empirical_d1", "ks", "martingale_bound",
                                           "rate_fit"]}))
    t = tracer.Tracer()
    if traced:
        t.install()
    try:
        assert meanclt.cli.main(["run", "--config", str(cfg), "--output",
                                 str(tmp_path / name)]) == 0
    finally:
        t.uninstall()
    return (tmp_path / f"{name}.manifest.json").read_text(), t


def test_traced_manifest_matches_untraced_apart_from_timings(tmp_path):
    plain, _ = _run_cli(tmp_path, "out", traced=False)
    traced, t = _run_cli(tmp_path, "out", traced=True)
    assert checks.strip_timings(traced) == checks.strip_timings(plain)
    assert checks.strip_timings(plain) != plain  # the timings block was there to strip
    timings = [json.loads(traced)["timings"]]
    m = tracer.layer_metrics(t.spans, timings, t.moment_keys)
    assert m["processes.step_reps"] == 32 * 200 and m["processes.replicates"] == 200
    assert m["numerics.generator_calls"] == 200 + 3  # one per replicate, one per bootstrap
    assert m["bounds.series_terms"] == 4 + 5 + 8  # isqrt(2n) for n = 8, 16, 32
    assert m["numerics.quad_panels"] == int(m["numerics.quad_panels"]) > 0
    assert m["fourier.dropped_l1_total"] == 0.0


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(tracer.layer_metrics([], [], set())) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["end_to_end"]] == ["norm_wall_s", "setup_s", "peak_rss_mib"]


def test_mismatches_uses_relative_tolerance():
    ref = {"a": 1.0, "b": [0.0, 2.0], "c": "x", "d": True}
    assert checks.mismatches(ref, {"a": 1.0 + 5e-10, "b": [0.0, 2.0], "c": "x", "d": True}) == []
    assert checks.mismatches(ref, {"a": 1.0 + 5e-9, "b": [0.0, 2.0], "c": "x", "d": True})
    assert checks.mismatches(ref, {"a": 1.0, "b": [0.0], "c": "x", "d": True})
    assert checks.mismatches(ref, {"a": 1.0, "b": [0.0, 2.0], "c": "y", "d": True})
    assert checks.mismatches(ref, {"a": 1.0, "b": [0.0, 2.0], "c": "x", "d": False})


def test_sampler_samples_during_work_and_restores_the_signal():
    sampler = passrun.Sampler(timer=True)
    sampler.start()
    t = time.perf_counter()
    while time.perf_counter() - t < 4.5 * passrun.SAMPLE_EVERY_S:
        sum(range(1000))
    sampler.between_ops()  # a no-op with the timer
    sampler.stop()
    assert len(sampler.samples) >= 2
    assert all(c > 0 for c in sampler.samples)
    assert 0 < sampler.spent_s < time.perf_counter() - t
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampler_without_timer_samples_only_between_ops():
    sampler = passrun.Sampler(timer=False)
    sampler.start()
    time.sleep(2 * passrun.SAMPLE_EVERY_S)
    assert sampler.samples == []
    sampler.between_ops()
    sampler.stop()
    assert len(sampler.samples) == 1 and sampler.spent_s == 0.0
