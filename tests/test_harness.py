import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanclt.errors import DegenerateVarianceError, DomainError, PreconditionError, SchemaError
from meanclt import harness
from meanclt.fourier import FourierFn, cosine
from meanclt.harness import (PRESETS, ExperimentConfig, _bootstrap_se, check_appendix,
                             diagnose_conditions, merge_reports, preset_config, render_csv,
                             run)
from meanclt.numerics import substream
from meanclt.processes import (CircleWalk, DoublingMap, FiniteChain, exact_law, iid_gaussian,
                               iid_rademacher, simulate, sqrt2_minus_one)
from meanclt.wasserstein import (EmpiricalSample, ks_sample_gauss, sorted_gauss_tables,
                                 w1_charfn_gauss, w1_sample_gauss)

MC_KEYS = {"n", "d1_normalized", "d1_unnormalized", "d1_boot_se", "ks"}
CIRCLE = {"type": "circle_walk", "a": "sqrt2_minus_one"}
CHAIN = {"type": "finite_chain", "transition": [[0.9, 0.1], [0.2, 0.8]], "values": [1.0, -1.0]}


def small_config(**overrides) -> ExperimentConfig:
    base = dict(process=DoublingMap(), observable=cosine(1), n_grid=(16, 64, 256),
                reps=400, seed=7, targets=("empirical_d1", "ks", "martingale_bound",
                                           "rate_fit", "zolotarev"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            small_config(n_grid=(64, 16))
        with pytest.raises(DomainError):
            small_config(reps=10)
        with pytest.raises(DomainError):
            small_config(targets=("mystery",))
        with pytest.raises(TypeError):  # the process decides; no argument overrides it
            small_config(exact_pmf=True)
        with pytest.raises(DomainError):
            small_config(reps=0)
        with pytest.raises(DomainError):
            small_config(targets=("ks",), reps=10)
        for count in (1, 0, -5):
            with pytest.raises(DomainError, match="bootstrap"):
                small_config(bootstrap=count)
        d = small_config().to_dict()
        del d["reps"]
        with pytest.raises(SchemaError, match="reps"):
            ExperimentConfig.from_dict(d)
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(d, reps=0, targets=["martingale_bound"]))

    def test_exact_pmf_follows_the_process(self):
        # the key is absent from the preset; only the Rademacher law takes the pmf path
        rademacher = dict(PRESETS["iid-rademacher-exact"])
        assert "exact_pmf" not in rademacher
        assert ExperimentConfig.from_dict(rademacher).exact_pmf is True
        assert ExperimentConfig.from_dict(PRESETS["mds-doubling"]).exact_pmf is False
        for d in (dict(rademacher, exact_pmf=False), dict(PRESETS["mds-doubling"], exact_pmf=True)):
            with pytest.raises(DomainError, match=r"\(field: exact_pmf\)"):
                ExperimentConfig.from_dict(d)
        # a file may repeat the value it has
        for d, value in ((rademacher, True), (PRESETS["mds-doubling"], False)):
            assert ExperimentConfig.from_dict(dict(d, exact_pmf=value)).exact_pmf is value

    def test_martingale_precondition_fails_in_from_dict(self):
        # cos 4 pi x is no martingale difference for the doubling map: the config
        # fails when it is read, before anything is simulated
        d = dict(PRESETS["doubling-nonadapted"], targets=["empirical_d1", "martingale_bound"])
        with pytest.raises(PreconditionError, match="the observable must be a martingale "
                                                    "difference"):
            ExperimentConfig.from_dict(d)
        for targets in (["martingale_bound"], ["projective_bound", "zolotarev"]):
            ExperimentConfig.from_dict(dict(PRESETS["mds-doubling"], targets=targets))
            ExperimentConfig.from_dict(dict(PRESETS["iid-rademacher-exact"], targets=targets))
        ExperimentConfig.from_dict(dict(d, targets=["projective_bound"]))

    def test_round_trip(self):
        cfg = small_config()
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back.to_dict() == cfg.to_dict()

    def test_presets_build(self):
        for name in ("mds-doubling", "circle-walk", "iid-rademacher-exact",
                     "doubling-nonadapted"):
            cfg = preset_config(name)
            assert cfg.n_grid[0] >= 64
        with pytest.raises(DomainError):
            preset_config("nope")

    def test_preset_configs_unchanged(self):
        tol = {"abs_tol": 1e-11, "max_depth": 44, "rel_tol": 1e-11}
        cos1 = {"constant": 0.0, "cos": [1.0], "sin": [0.0]}
        grid = [64, 256, 1024, 4096, 16384]
        common = {"bootstrap": 100, "exact_pmf": False, "output": None, "seed": 1,
                  "tolerance": tol}
        want = {
            "mds-doubling": dict(common, n_grid=grid, observable=cos1,
                                 process={"type": "doubling_map"}, reps=20000,
                                 targets=["empirical_d1", "ks", "martingale_bound",
                                          "rate_fit", "zolotarev"]),
            "circle-walk": dict(common, n_grid=grid, observable=cos1,
                                process={"a_hi": 0.41421356237309503,
                                         "a_lo": 1.4349369327986523e-17,
                                         "type": "circle_walk"},
                                reps=10000, targets=["empirical_d1", "ks",
                                                     "projective_bound", "rate_fit"]),
            "iid-rademacher-exact": dict(common, exact_pmf=True,
                                         n_grid=[64, 128, 256, 512, 1024, 2048, 4096],
                                         observable=None,
                                         process={"law": "rademacher", "type": "iid"},
                                         reps=1, targets=["empirical_d1", "ks", "rate_fit",
                                                          "zolotarev"]),
            "doubling-nonadapted": dict(common, n_grid=[64, 256, 1024],
                                        observable={"constant": 0.0, "cos": [0.0, 1.0],
                                                    "sin": [0.0, 0.0]},
                                        process={"type": "doubling_map"}, reps=5000,
                                        targets=["empirical_d1", "projective_bound",
                                                 "second_moment_terms", "rate_fit"]),
        }
        for name, d in want.items():
            assert preset_config(name).to_dict() == d, name

    def test_preset_overrides(self):
        cfg = preset_config("mds-doubling", n_max=1024, reps=500, seed=11)
        assert cfg.n_grid == (64, 256, 1024)
        assert cfg.reps == 500 and cfg.seed == 11

    def test_preset_names_match_readme_and_help(self, capsys, monkeypatch):
        from meanclt.cli import main
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = set(re.findall(r"^meanclt preset ([\w-]+)", readme, re.M))
        monkeypatch.setenv("COLUMNS", "200")  # keep the help line unwrapped
        with pytest.raises(SystemExit):
            main(["preset", "--help"])
        line = re.search(r"^\s+name\s+(.+)$", capsys.readouterr().out, re.M).group(1)
        assert documented == set(line.split(" | ")) == set(PRESETS)


class TestRun:
    def test_reproducible_outputs(self, tmp_path):
        cfg1 = small_config(output=str(tmp_path / "a"))
        cfg2 = small_config(output=str(tmp_path / "b"))
        m1, m2 = run(cfg1), run(cfg2)
        csv1 = (tmp_path / "a.csv").read_bytes()
        csv2 = (tmp_path / "b.csv").read_bytes()
        assert csv1 == csv2
        d1, d2 = m1.to_dict(), m2.to_dict()
        d1.pop("timings"), d2.pop("timings")
        d1["config"].pop("output"), d2["config"].pop("output")
        assert d1 == d2

    def test_a_run_leaves_nothing_for_the_next(self):
        # circle4's projective bound, then another observable, then circle4 again
        # in one process: both circle4 manifests are the same apart from timings
        def manifest(observable):
            m = run(ExperimentConfig.from_dict(
                {"process": CIRCLE, "observable": observable, "n_grid": [64, 256], "reps": 1,
                 "seed": 13, "targets": ["projective_bound"]})).to_dict()
            m.pop("timings")
            return json.dumps(m, indent=2, sort_keys=True)

        circle4 = {"constant": 0.0, "cos": [1.0, 0.5, 0.25, 0.125], "sin": [0.0, 0.3]}
        first = manifest(circle4)
        manifest({"constant": 0.0, "cos": [1.0, 0.5], "sin": [0.0, 0.3]})
        assert manifest(circle4) == first

    def test_normalization_identity(self):
        m = run(small_config())
        for rec in m.per_n:
            assert rec["d1_unnormalized"] == pytest.approx(
                math.sqrt(rec["n"]) * rec["d1_normalized"], abs=1e-12)

    def test_bound_dominates_small_run(self):
        m = run(small_config())
        for rec in m.per_n:
            bound = rec["bound_martingale"]["total"]
            assert bound >= rec["d1_unnormalized"] - 3.0 * math.sqrt(rec["n"]) * rec["d1_boot_se"]

    def test_exact_pmf_run(self):
        cfg = ExperimentConfig(iid_rademacher(), None, (64, 128, 256), reps=1, seed=0,
                               targets=("empirical_d1", "ks", "rate_fit", "zolotarev"))
        assert cfg.exact_pmf is True
        m = run(cfg)
        assert m.zolotarev == 0.5
        for rec in m.per_n:
            assert math.sqrt(rec["n"]) * rec["d1_normalized"] < 0.6
        assert -0.55 < m.fit["slope"] < -0.45

    def test_exact_pmf_components(self):
        from meanclt.numerics import gauss_cdf
        from meanclt.wasserstein import ks_pmf_gauss
        p1 = exact_law(iid_rademacher(), None, 1)
        assert np.array_equal(p1.atoms, [-1.0, 1.0])
        assert ks_pmf_gauss(p1, 1.0) == pytest.approx(0.5 - float(gauss_cdf(-1.0)),
                                                      abs=1e-15)
        p_big = exact_law(iid_rademacher(), None, 4096)
        assert abs(p_big.probs.sum() - 1.0) < 1e-12

    def test_exact_pmf_run_never_simulates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pmf law needs no simulation")

        monkeypatch.setattr(harness, "simulate", refuse)
        m = run(preset_config("iid-rademacher-exact", n_max=256))
        assert "simulate" not in m.timings
        for rec in m.per_n:
            assert rec["d1_normalized"] > 0.0 and rec["ks"] > 0.0

    def test_exact_pmf_run_writes_d1_only_as_a_target(self):
        d = dict(PRESETS["iid-rademacher-exact"], targets=["zolotarev", "martingale_bound"])
        m = run(ExperimentConfig.from_dict(d))
        for rec in m.per_n:
            assert set(rec) == {"n", "bound_martingale"}
        m = run(ExperimentConfig.from_dict(dict(d, targets=["ks"])))
        for rec in m.per_n:
            assert set(rec) == {"n", "ks"}

    def test_doubling_d1_from_the_exact_law(self):
        cfg = small_config()
        m = run(cfg)
        ens = simulate(DoublingMap(), cosine(1), cfg.n_grid[-1], cfg.reps,
                       checkpoints=cfg.n_grid, seed=cfg.seed)
        sigma = m.sigma
        for gi, rec in enumerate(m.per_n):
            n = rec["n"]
            assert set(rec) == MC_KEYS | {"d1_mc_normalized", "d1_exact_err", "d1_estimator",
                                          "bound_martingale"}
            assert rec["d1_estimator"] == "exact"
            sample = ens.normalized(n)
            assert rec["d1_mc_normalized"] == w1_sample_gauss(EmpiricalSample(sample), sigma)
            assert rec["d1_boot_se"] == _bootstrap_se(sorted_gauss_tables(sample, sigma), sigma,
                                                      cfg.bootstrap,
                                                      substream(cfg.seed, cfg.reps + gi))
            phi = exact_law(DoublingMap(), cosine(1), n)
            d1, err = w1_charfn_gauss(lambda t: phi(t / math.sqrt(n)), sigma)
            assert (rec["d1_normalized"], rec["d1_exact_err"]) == (d1, err)
            assert rec["d1_unnormalized"] == math.sqrt(n) * d1
            assert err < 0.01 * d1
        assert m.fit["slope"] == pytest.approx(-0.5, abs=0.02)

    def test_small_n_doubles_the_cutoff(self):
        # the law of S_n has singular peaks at small n; the cutoff doubles until
        # err is below EXACT_REL_ERR of d1
        m = run(small_config(n_grid=(2, 4, 8), targets=("empirical_d1",)))
        for rec in m.per_n:
            assert rec["d1_estimator"] == "exact"
            assert rec["d1_exact_err"] <= harness.EXACT_REL_ERR * rec["d1_normalized"]

    def test_near_coboundary_keeps_monte_carlo(self):
        # f = cos(2 pi x) - 0.99 cos(4 pi x) has sigma^2 = 5e-5, yet S_64/sqrt(64) has
        # standard deviation 17.6 sigma (35 sigma at n = 16): the inversion grid
        # would have to grow with it, so the runs keep the Monte Carlo value
        f = FourierFn(0.0, [1.0, -0.99], [])
        with pytest.warns(RuntimeWarning, match="standard deviation"):
            m = run(small_config(observable=f, n_grid=(16, 64), targets=("empirical_d1",)))
        for rec in m.per_n:
            assert rec["d1_estimator"] == "monte_carlo" and rec["d1_exact_err"] is None
            assert rec["d1_normalized"] == rec["d1_mc_normalized"]
            assert rec["d1_unnormalized"] == math.sqrt(rec["n"]) * rec["d1_mc_normalized"]

    def test_inaccurate_exact_law_keeps_monte_carlo(self, monkeypatch):
        monkeypatch.setattr(harness, "EXACT_REL_ERR", 1e-12)
        with pytest.warns(RuntimeWarning, match="error estimate"):
            m = run(small_config(n_grid=(16,), targets=("empirical_d1",)))
        rec = m.per_n[0]
        assert rec["d1_estimator"] == "monte_carlo" and rec["d1_exact_err"] > 0.0
        assert rec["d1_normalized"] == rec["d1_mc_normalized"]

    def test_csv_carries_the_estimator_columns(self):
        rows = run(small_config(targets=("empirical_d1",))).csv_rows()
        header, first = render_csv(rows).splitlines()[:2]
        cell = dict(zip(header.split(","), first.split(",")))
        assert cell["d1_estimator"] == "exact"
        assert float(cell["d1_exact_err"]) < 0.01 * float(cell["d1_normalized"])
        assert float(cell["d1_mc_normalized"]) > 0.0

    def test_families_without_exact_law_gain_no_key(self):
        chain = FiniteChain(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([-1.0, 2.0]))
        for spec, f in ((CircleWalk(sqrt2_minus_one()), cosine(1)), (chain, None),
                        (iid_gaussian(), None)):
            m = run(small_config(process=spec, observable=f, targets=("empirical_d1", "ks")))
            for rec in m.per_n:
                assert set(rec) == MC_KEYS, spec.label
        exact = run(preset_config("iid-rademacher-exact", n_max=256))
        for rec in exact.per_n:
            assert set(rec) == {"n", "d1_normalized", "d1_unnormalized", "ks"}

    def test_rate_fit_skipped_without_distances(self):
        cfg = small_config(targets=("martingale_bound",))
        assert run(cfg).fit is None

    def test_manifest_csv_shape(self):
        rows = run(small_config()).csv_rows()
        assert len(rows) == 3
        text = render_csv(rows)
        assert text.startswith("process,observable,n,")
        assert text.count("\n") == 4

    def test_csv_numbers_parse_as_floats(self):
        rows = run(small_config(process=CircleWalk(sqrt2_minus_one()), n_grid=(16, 64),
                                targets=("empirical_d1", "ks", "projective_bound"))).csv_rows()
        header, *lines = render_csv(rows).splitlines()
        for line in lines:
            cells = dict(zip(header.split(","), line.split(",")))
            assert cells["bound_projective"] and cells["n"] in ("16", "64")
            for name, cell in cells.items():
                if name not in ("process", "observable", "d1_estimator") and cell:
                    float(cell)


def bootstrap_se_by_sorting(sample, sigma, count, stream):
    """The bootstrap loop that sorts and evaluates every resample afresh."""
    if count < 2:
        return 0.0
    gen = stream.generator()
    m = sample.size
    vals = np.empty(count)
    for b in range(count):
        idx = gen.integers(0, m, m)
        vals[b] = w1_sample_gauss(EmpiricalSample(sample[idx]), sigma)
    return float(vals.std(ddof=1))


class TestBootstrap:
    # resampling by sorted ranks must add the very arrays that sorting each
    # resample gave, so the standard error is equal, not merely close

    @pytest.mark.parametrize("m", [1, 2, 3, 17, 2048, 2049, 20_000])
    def test_matches_sorting_every_resample(self, m):
        # odd lengths run through the tails of the vectorized int sort
        sample = substream(3, m).generator().normal(0.0, 0.7, m)
        tables = sorted_gauss_tables(sample, 0.7)
        for count in (2, 25):
            assert _bootstrap_se(tables, 0.7, count, substream(5, m)) == \
                bootstrap_se_by_sorting(sample, 0.7, count, substream(5, m))

    def test_ties_and_signed_zeros(self):
        base = np.array([0.0, -0.0, 1.5, -0.0, 1.5, -2.0, 0.0, 1.5, 3.25, -2.0, -40.0, 9.0])
        sample = substream(1, 0).generator().permutation(np.repeat(base, 25))
        tables = sorted_gauss_tables(sample, 1.3)
        for count in (40, 100):
            got = _bootstrap_se(tables, 1.3, count, substream(2, 0))
            assert got == bootstrap_se_by_sorting(sample, 1.3, count, substream(2, 0)) > 0.0

    @pytest.mark.parametrize("m,size", [(1, 1), (2, 2), (3, 3), (17, 17), (2049, 2049),
                                        (20_000, 20_000), (65_537, 999), (2 ** 31 - 1, 999)])
    def test_int32_draw_is_the_int64_draw(self, m, size):
        # the resample loop draws int32 indices; the oracle draws int64 ones
        narrow, wide = substream(5, m).generator(), substream(5, m).generator()
        assert np.array_equal(narrow.integers(0, m, size, dtype=np.int32),
                              wide.integers(0, m, size))
        assert narrow.bit_generator.random_raw() == wide.bit_generator.random_raw()

    def test_fewer_than_two_resamples(self):
        tables = sorted_gauss_tables(np.array([0.5, -1.0, 2.0]), 1.0)
        for count in (0, 1):
            assert _bootstrap_se(tables, 1.0, count, substream(0, 0)) == 0.0

    def test_run_reads_one_sorted_view(self):
        # a family without an exact law: every distance column is the sample's
        cfg = small_config(process=CircleWalk(sqrt2_minus_one()), n_grid=(16, 64), bootstrap=20,
                           targets=("empirical_d1", "ks"))
        m = run(cfg)
        ens = simulate(cfg.process, cfg.observable, 64, cfg.reps, checkpoints=(16, 64),
                       seed=cfg.seed)
        for gi, rec in enumerate(m.per_n):
            sample = ens.normalized(rec["n"])
            assert rec["d1_normalized"] == w1_sample_gauss(EmpiricalSample(sample), m.sigma)
            assert rec["ks"] == ks_sample_gauss(EmpiricalSample(sample), m.sigma)
            assert rec["d1_boot_se"] == bootstrap_se_by_sorting(
                sample, m.sigma, cfg.bootstrap, substream(cfg.seed, cfg.reps + gi))

    def test_zero_variance_fails_in_the_config(self):
        # before any replicate is drawn or bootstrapped
        flat = FiniteChain(np.array([[0.5, 0.5], [0.5, 0.5]]), values=np.array([1.0, 1.0]))
        for targets in (("empirical_d1",), ("ks",)):
            with pytest.raises(DegenerateVarianceError, match="long-run variance is not positive"):
                ExperimentConfig(flat, None, (1, 2), reps=100, seed=1, targets=targets)


class TestAppendixFuzz:
    def test_small_fuzz_all_pass(self):
        rep = check_appendix(60, seed=5)
        assert rep.all_pass
        assert rep.equality_case["is_equality"]

    def test_deterministic(self):
        a = check_appendix(10, seed=9).to_dict()
        b = check_appendix(10, seed=9).to_dict()
        assert a == b

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_boundaries(self, extra, monkeypatch):
        count = harness.APPENDIX_CHUNK + extra
        want = check_appendix(count, seed=11).to_dict()
        for chunk in (1, 7):
            monkeypatch.setattr(harness, "APPENDIX_CHUNK", chunk)
            assert check_appendix(count, seed=11).to_dict() == want

    def test_failures_in_instance_order_across_chunks(self, monkeypatch):
        import dataclasses
        real = harness.appendix_checks

        def failing(*args):
            cov, cor, disp = real(*args)
            flip = lambda reps: [dataclasses.replace(r, holds=False) for r in reps]
            return flip(cov), flip(cor), ~disp

        monkeypatch.setattr(harness, "appendix_checks", failing)
        monkeypatch.setattr(harness, "APPENDIX_CHUNK", 7)
        rep = check_appendix(10, seed=4)
        assert rep.covariance_passes == rep.corollary_passes == rep.dispersion_passes == 0
        assert [(f["index"], f["kind"]) for f in rep.failures] == [
            (i, kind) for i in range(10) for kind in ("covariance", "corollary", "dispersion")]
        gen = substream(4, 0).generator()
        for i in range(10):
            j = harness._random_joint(gen)
            [harness._random_monotone_pair(gen) for _ in range(j.k)]
            assert all(f["joint"] == j.to_dict() for f in rep.failures[3 * i:3 * i + 3])


class TestDiagnose:
    def test_doubling_mds_verdicts(self):
        rep = diagnose_conditions(DoublingMap(), cosine(1), kmax=10, window=1)
        # the only nonzero dependence entries sit at lag 1; all series converge
        for key, verdict in rep.verdicts.items():
            assert verdict == "converging", (key, verdict)
        assert rep.theta["theta_01"]["values"] == [0.0] * 10
        assert rep.jan is not None
        assert rep.jan["values"][1] == 0.0

    def test_nonadapted_geometric_mixing(self):
        rep = diagnose_conditions(DoublingMap(), cosine(2), kmax=10, window=1)
        assert rep.verdicts["cubic_tail_b1"] == "converging"
        assert rep.mixing["cubic_tail_b1"]["series"] > 0.0
        assert rep.mixing["cubic_tail_b1"]["integral_form"] == pytest.approx(
            rep.mixing["cubic_tail_b1"]["series"], abs=1e-9)

    def test_circle_walk_diagnose_smoke(self, monkeypatch):
        from meanclt.processes import CircleWalk, sqrt2_minus_one
        # with no alpha tabulation the mixing series are not formed, so no
        # quantile table of |f| is built either
        monkeypatch.setattr(harness, "quantile_from_sample", None)
        rep = diagnose_conditions(CircleWalk(sqrt2_minus_one()), cosine(1),
                                  kmax=2, window=1)
        assert "theta_01" in rep.theta
        assert rep.theta["theta_01"]["values"][0] > 0.0  # not a martingale difference
        assert rep.jan is None

    def test_constant_alpha_diverges(self):
        from meanclt.coefficients import AlphaSeq, QuantileSeq, mixing_integral
        alpha = AlphaSeq(np.full(40, 0.25))
        rep = mixing_integral(alpha, QuantileSeq.constant(1.0), power=3, weight=1, kmax=30)
        assert harness._verdict(rep.partial_sums) == "diverging"

    def test_finite_chain_mixing_series(self):
        # pi = (2/3, 1/3), |v - pi.v| = 2/3 or 4/3, so Q = 4/3 on [0, 1/3) and 2/3
        # after; P has eigenvalues 1 and 0.7, so alpha(k) = (4/9) 0.7^k < 1/3
        from meanclt.processes import process_from_dict
        rep = diagnose_conditions(process_from_dict(CHAIN), None, kmax=8, window=1)
        alphas = [4.0 / 9.0 * 0.7 ** k for k in range(1, 9)]
        for weight in (0, 1):
            want = list(itertools.accumulate(k ** weight * (4.0 / 3.0) ** 3 * a
                                             for k, a in enumerate(alphas, 1)))
            mixing = rep.mixing[f"cubic_tail_b{weight}"]
            assert mixing["partials"] == pytest.approx(want, rel=1e-12)
            assert mixing["integral_form"] == pytest.approx(mixing["series"], rel=1e-12)
            assert f"cubic_tail_b{weight}" in rep.verdicts
        assert rep.jan is None

    def test_finite_chain_alpha_reaches_kmax(self):
        # the cap of 12 lags is the doubling map's 2^k budget; a chain's alpha
        # costs one matrix power per lag, so its series run to kmax
        from meanclt.processes import process_from_dict
        rep = diagnose_conditions(process_from_dict(CHAIN), None, kmax=20, window=0)
        terms = [(4.0 / 3.0) ** 3 * 4.0 / 9.0 * 0.7 ** k for k in range(1, 21)]
        partials = rep.mixing["cubic_tail_b0"]["partials"]
        assert len(partials) == 20
        assert partials == pytest.approx(list(itertools.accumulate(terms)), rel=1e-12)


class TestReportMerge:
    def test_merge_two_manifests(self, tmp_path):
        run(small_config(output=str(tmp_path / "a"), seed=7))
        run(small_config(output=str(tmp_path / "b"), seed=8))
        rows = merge_reports([tmp_path / "a.manifest.json", tmp_path / "b.manifest.json"])
        assert len(rows) == 6
        seeds = {row["seed"] for row in rows}
        assert seeds == {7, 8}

    def test_single_passthrough(self, tmp_path):
        m = run(small_config(output=str(tmp_path / "a")))
        rows = merge_reports([tmp_path / "a.manifest.json"])
        assert [r["n"] for r in rows] == [rec["n"] for rec in m.per_n]

    def test_schema_mismatch(self, tmp_path):
        run(small_config(output=str(tmp_path / "a")))
        d = json.loads((tmp_path / "a.manifest.json").read_text())
        d["schema_version"] = "999"
        (tmp_path / "bad.manifest.json").write_text(json.dumps(d))
        with pytest.raises(SchemaError) as err:
            merge_reports([tmp_path / "a.manifest.json", tmp_path / "bad.manifest.json"])
        assert "schema_version" in str(err.value)

    def test_missing_fields(self, tmp_path):
        (tmp_path / "broken.manifest.json").write_text("{}")
        with pytest.raises(SchemaError) as err:
            merge_reports([tmp_path / "broken.manifest.json"])
        assert "config" in str(err.value)


class TestCli:
    def _run(self, *args, **kwargs):
        # the child imports the meanclt under test, whether pytest found it
        # through PYTHONPATH, the pytest pythonpath setting or an install
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-m", "meanclt.cli", *args],
                              capture_output=True, text=True, env=env, **kwargs)

    def test_preset_exact(self, tmp_path):
        out = self._run("preset", "iid-rademacher-exact", "--n-max", "128",
                        "--output", str(tmp_path / "iid"))
        assert out.returncode == 0
        assert (tmp_path / "iid.csv").exists()
        assert (tmp_path / "iid.manifest.json").exists()

    def test_run_config_and_report(self, tmp_path):
        cfg = small_config(n_grid=(16, 64), targets=("empirical_d1", "rate_fit"))
        d = cfg.to_dict()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        out = self._run("run", "--config", str(path), "--output", str(tmp_path / "r"))
        assert out.returncode == 0, out.stderr
        merged = self._run("report", str(tmp_path / "r.manifest.json"))
        assert merged.returncode == 0
        assert merged.stdout.startswith("process,")

    def test_check_appendix_cli(self):
        out = self._run("check-appendix", "--count", "5", "--seed", "3")
        assert out.returncode == 0
        assert "5/5" in out.stdout

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"process": {"type": "doubling_map"},
                                   "observable": {"constant": 0.0, "cos": [1.0], "sin": []},
                                   "n_grid": [64, 16], "reps": 200, "seed": 1,
                                   "targets": ["empirical_d1"]}))
        out = self._run("run", "--config", str(bad))
        assert out.returncode == 2

    @pytest.mark.parametrize("max_depth,estimate", [(1, 0.5932809736509904),
                                                     (3, 0.5969991831399206),
                                                     (6, 0.596998722530117)])
    def test_depth_exhaustion_exit_code(self, tmp_path, capsys, max_depth, estimate):
        # the batched norms fail at the same first norm, with the same best
        # estimate, as one quadrature per norm did
        from meanclt.cli import main
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"process": CIRCLE,
                                    "observable": {"cos": [1.0, 0.5, 0.25, 0.125],
                                                   "sin": [0.0, 0.3]},
                                    "n_grid": [64, 256], "reps": 1, "seed": 1,
                                    "targets": ["projective_bound"],
                                    "tolerance": {"max_depth": max_depth}}))
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "o")]) == 3
        got = float(re.search(r"best estimate ([^,]+),", capsys.readouterr().err).group(1))
        assert got == pytest.approx(estimate, rel=1e-12)

    @pytest.mark.parametrize("cos", [[1e103], [1e150], [1e308, 0.0, 1e308]])
    def test_overflowing_moment_exit_code(self, tmp_path, cos):
        # |f|^3 overflows to inf; the quadrature stops at its first panels
        # instead of bisecting NaN error indicators until memory runs out.  The
        # frequencies are odd, so f is a martingale difference and the config is valid
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        path = tmp_path / "c.json"
        path.write_text(json.dumps({"process": {"type": "doubling_map"},
                                    "observable": {"cos": cos}, "n_grid": [16], "reps": 200,
                                    "targets": ["martingale_bound"]}))
        out = self._run("run", "--config", str(path), timeout=60, preexec_fn=limit_memory)
        assert out.returncode == 3, out.stderr
        assert "quadrature estimate is not finite" in out.stderr

    def test_window_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # --window 100 would range over about 1.8e7 multiindices for the pair
        # (3, 4) alone; the count is checked before any is enumerated
        import meanclt.theta as theta
        from meanclt.cli import main
        monkeypatch.setattr(theta, "_theta_windows", None)  # never called
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"process": CIRCLE, "observable": {"cos": [1.0]}}))
        assert main(["diagnose", "--config", str(path), "--window", "100"]) == 3
        assert "--window" in capsys.readouterr().err

    def test_bound_on_a_finite_chain_fails_before_simulating(self, tmp_path, capsys,
                                                             monkeypatch):
        from meanclt.cli import main

        def simulate(*args, **kwargs):
            raise AssertionError("simulate was called")

        monkeypatch.setattr(harness, "simulate", simulate)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"process": CHAIN, "n_grid": [64, 1024, 16384],
                                    "reps": 4000, "seed": 1,
                                    "targets": ["empirical_d1", "martingale_bound"]}))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "martingale_bound" in err and "finite_chain" in err and "targets" in err

    @pytest.mark.parametrize("d", [
        {"process": {"type": "doubling_map"}, "observable": {"cos": [1.0, -1.0]}},
        {"process": {"type": "doubling_map"}, "observable": {}},
        {"process": dict(CHAIN, values=[1.0, 1.0])}],
        ids=["doubling-coboundary", "doubling-zero", "chain-constant"])
    def test_zero_variance_fails_before_simulating(self, tmp_path, capsys, monkeypatch, d):
        # sigma^2 = (a + b)^2 / 2 = 0 for a cos 2 pi x + b cos 4 pi x with b = -a; an
        # empty observable is the zero function.  The run used to simulate, then
        # fail in the distances
        from meanclt.cli import main

        def simulate(*args, **kwargs):
            raise AssertionError("simulate was called")

        monkeypatch.setattr(harness, "simulate", simulate)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(d, n_grid=[64, 1024, 16384], reps=20000,
                                        targets=["empirical_d1"])))
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "o")]) == 2
        assert "long-run variance is not positive" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("d", [
        {"process": {"type": "doubling_map"}, "observable": {"cos": [1.0, -1.0]}},
        {"process": {"type": "doubling_map"}, "observable": {}},
        {"process": dict(CHAIN, values=[1.0, 1.0])}],
        ids=["doubling-coboundary", "doubling-zero", "chain-constant"])
    def test_diagnose_refuses_zero_variance(self, tmp_path, capsys, d):
        # the configs that run refuses: diagnose used to tabulate them, every theta
        # series `converging`, and exit 0
        from meanclt.cli import main
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(d, n_grid=[64], reps=100)))
        assert main(["diagnose", "--config", str(path), "--kmax", "4", "--window", "1",
                     "--output", str(tmp_path / "d.json")]) == 2
        assert "long-run variance is not positive" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_run_output_builds_the_config_once(self, tmp_path, monkeypatch):
        # --output goes into the config dict, so sigma2 is computed once for the config
        # and once by the run; setting it on a built config computed the config's twice
        from meanclt.cli import main
        calls = []

        def long_run_variance(*args):
            calls.append(args)
            return real(*args)

        real = harness.long_run_variance
        monkeypatch.setattr(harness, "long_run_variance", long_run_variance)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"process": {"type": "doubling_map"},
                                    "observable": {"cos": [1.0]}, "n_grid": [16, 32],
                                    "reps": 100, "targets": ["empirical_d1"]}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--output", str(out)]) == 0
        assert len(calls) == 2
        manifest = json.loads((tmp_path / "o.manifest.json").read_text())
        assert manifest["config"]["output"] == str(out)

    @pytest.mark.parametrize("observable, message", [
        (None, "the doubling_map process needs a FourierFn observable"),
        ({"constant": 0.5, "cos": [1.0]}, "the observable must be centered")],
        ids=["missing", "uncentered"])
    def test_run_and_diagnose_give_one_message(self, tmp_path, capsys, observable, message):
        from meanclt.cli import main
        path = tmp_path / "c.json"
        d = {"process": {"type": "doubling_map"}, "n_grid": [16], "reps": 100}
        if observable is not None:
            d["observable"] = observable
        path.write_text(json.dumps(d))
        errs = []
        for command in ("run", "diagnose"):
            assert main([command, "--config", str(path), "--output", str(tmp_path / "o")]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and message in errs[0]

    def test_diagnose_rejects_an_uncentered_observable(self, tmp_path, capsys):
        from meanclt.cli import main
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"process": {"type": "doubling_map"},
                                    "observable": {"constant": 0.5, "cos": [1.0]}}))
        assert main(["diagnose", "--config", str(path)]) == 2
        assert "centered" in capsys.readouterr().err

    def test_commands_import_no_numpy_ma(self, tmp_path):
        # numpy.ma costs about 0.6 MiB resident and np.unique imports it; a run
        # with a rate fit, a diagnosis and the appendix oracle have no use for it
        cfg = small_config(n_grid=(16, 32, 64), reps=100, targets=("empirical_d1", "rate_fit"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        argvs = [["run", "--config", str(path), "--output", str(tmp_path / "r")],
                 ["diagnose", "--config", str(path), "--output", str(tmp_path / "d.json")],
                 ["check-appendix", "--count", "5", "--seed", "3"]]
        code = ("import sys, meanclt.cli\n"
                f"for argv in {argvs!r}:\n"
                "    assert meanclt.cli.main(argv) == 0, argv\n"
                "    print('numpy.ma' in sys.modules)\n")
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads((tmp_path / "r.manifest.json").read_text())["fit"]
        assert [line for line in out.stdout.split() if line in ("True", "False")] == \
            ["False"] * 3

    def test_reducible_chain_exit_code(self, tmp_path, capsys):
        from meanclt.cli import main
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"process": {"type": "finite_chain",
                                                "transition": [[1.0, 0.0], [0.0, 1.0]],
                                                "values": [1.0, -1.0]},
                                    "n_grid": [16, 64], "reps": 200, "seed": 1,
                                    "targets": ["empirical_d1"]}))
        assert main(["run", "--config", str(path)]) == 2
        assert "reducible" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [(("reps",), "many"),
                                            (("observable", "cos"), ["x"]),
                                            (("process", "a_hi"), "q"),
                                            (("process",), "x"),
                                            (("tolerance",), ["x"]),
                                            (("exact_pmf",), "false"),
                                            (("reps",), 150.7),
                                            (("reps",), True),
                                            (("seed",), 3.9),
                                            (("bootstrap",), 20.5),
                                            (("n_grid",), [16, 64.0]),
                                            (("tolerance",), {"max_depth": 2.5}),
                                            (("tolerance",), []),
                                            (("tolerance",), 0),
                                            (("tolerance",), ""),
                                            (("observable",), []),
                                            (("observable",), 0),
                                            (("observable",), ""),
                                            (("exact_pmf",), True),
                                            (("targets",), "ks"),
                                            (("process",), {"type": "iid", "law": 5}),
                                            (("process",), {"type": "iid", "law": None}),
                                            (("process",), {"type": "iid", "law": "rademacher:2"}),
                                            (("process",), {"type": "iid", "law": "rademacher:"}),
                                            (("process",), {"type": "iid", "law": "gaussian:nan"}),
                                            (("process",), {"type": "iid", "law": "gaussian:inf"}),
                                            (("process",), {"type": "circle_walk",
                                                            "a": "sqrt2_minus_one", "a_hi": 0.3}),
                                            (("process",), {"type": "circle_walk", "a": "golden"}),
                                            (("tolerance", "abs_tol"), True),
                                            (("tolerance", "rel_tol"), True),
                                            (("tolerance", "abs_tol"), "x"),
                                            (("observable", "cos"), [True]),
                                            (("observable", "constant"), True),
                                            (("observable", "cos"), "12"),
                                            (("process",), {"type": "finite_chain",
                                                            "transition": "ab",
                                                            "values": [1.0, -1.0]}),
                                            (("process",), {"type": "circle_walk"}),
                                            (("process",), {"type": "finite_chain",
                                                            "values": [1.0, -1.0]}),
                                            (("process",), {"type": "finite_chain",
                                                            "transition": [[0.5, 0.5],
                                                                           [0.5, 0.5]]}),
                                            (("tolerance", "rel_tol"), math.nan),
                                            (("tolerance", "abs_tol"), math.nan),
                                            (("tolerance", "abs_tol"), math.inf),
                                            (("tolerance", "rel_tol"), math.inf),
                                            (("tolerance", "abs_tol"), -math.inf),
                                            (("tolerance", "abs_tol"), 0.0),
                                            (("tolerance", "rel_tol"), -1.0),
                                            (("tolerance", "max_depth"), 0)])
    def test_malformed_field_exit_code(self, tmp_path, capsys, path, value):
        from meanclt.cli import main
        cfg = {"process": {"type": "circle_walk", "a_hi": 0.41421356237309503},
               "observable": {"constant": 0.0, "cos": [1.0], "sin": []},
               "tolerance": {"abs_tol": 1e-11, "rel_tol": 1e-11},
               "n_grid": [16, 64], "reps": 200, "seed": 1, "targets": ["empirical_d1"]}
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err
        assert f"(field: {'.'.join(path)}" in err

    @pytest.mark.parametrize("command,process,path,key", [
        *(pytest.param("run", CIRCLE, path, key, id=f"path{i}-{key}") for i, (path, key) in
          enumerate([((), "target"), (("tolerance",), "abs_tolerance"),
                     (("observable",), "coss"), (("process",), "a_high")])),
        pytest.param("diagnose", CHAIN, (), "observabel", id="diagnose-chain-observabel"),
        pytest.param("diagnose", {"type": "doubling_map"}, (), "observabel",
                     id="diagnose-doubling-observabel"),
        *(pytest.param("diagnose", CIRCLE, path, key, id=f"diagnose-{key}")
          for path, key in [((), "target"), (("observable",), "coss"), (("process",), "a_high")])])
    def test_misspelt_key_exit_code(self, tmp_path, capsys, command, process, path, key):
        from meanclt.cli import main
        cfg = {"process": dict(process), "n_grid": [16, 64], "reps": 200,
               "targets": ["empirical_d1", "rate_fit"], "tolerance": {},
               "output": str(tmp_path / "out")}
        if key != "observabel":
            cfg["observable"] = {"cos": [1.0]}
        target = cfg
        for step in path:
            target = target[step]
        target[key] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        argv = ["--output", str(tmp_path / "out.json")] if command == "diagnose" else []
        assert main([command, "--config", str(bad), *argv]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("text", ['["reps"]', "[]", '"x"', "3"])
    def test_config_not_an_object_exit_code(self, tmp_path, capsys, command, text):
        from meanclt.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main([command, "--config", str(bad), "--output", str(tmp_path / "out")]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("spec,key", [({"type": "doubling_map", "a": 0.5}, "a"),
                                          ({"type": "finite_chain", "transition": [[1.0]],
                                            "values": [0.0], "stationay": [1.0]}, "stationay"),
                                          ({"type": "iid", "laws": "gaussian"}, "laws")])
    def test_process_keys_its_type_does_not_read(self, spec, key):
        from meanclt.processes import process_from_dict
        with pytest.raises(SchemaError, match=f"unknown key {key!r}"):
            process_from_dict(spec)

    @pytest.mark.parametrize("output", [2.5, True, ["x"]])
    def test_output_type_checked_before_any_work(self, tmp_path, capsys, monkeypatch, output):
        from meanclt.cli import main

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate ran before the config was checked")

        monkeypatch.setattr(harness, "simulate", no_simulation)
        cfg = small_config(n_grid=(16, 64), targets=("empirical_d1",)).to_dict()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(cfg, output=output)))
        assert main(["run", "--config", str(bad)]) == 2
        assert "output" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_preset_is_its_config(self, tmp_path, name):
        from meanclt.cli import main
        small = [] if name == "iid-rademacher-exact" else ["--n-max", "256", "--reps", "200"]
        assert main(["preset", name, *small, "--output", str(tmp_path / "p")]) == 0
        d = dict(PRESETS[name])
        if small:
            d.update(n_grid=[n for n in d["n_grid"] if n <= 256], reps=200)
        (tmp_path / "cfg.json").write_text(json.dumps(d))
        assert main(["run", "--config", str(tmp_path / "cfg.json"),
                     "--output", str(tmp_path / "r")]) == 0
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
        manifests = []
        for prefix in ("p", "r"):
            m = json.loads((tmp_path / f"{prefix}.manifest.json").read_text())
            m.pop("timings"), m["config"].pop("output")
            manifests.append(m)
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("process", [CHAIN, {"type": "iid", "law": "gaussian"}],
                             ids=["chain", "iid"])
    def test_stray_observable_exit_code(self, tmp_path, capsys, monkeypatch, command, process):
        # the chain and the i.i.d. law carry their own observable; one given in the
        # config used to be ignored, and echoed in the manifest as if used.  {} is
        # one too: it used to be read as none
        from meanclt.cli import main
        monkeypatch.setattr(harness, "simulate", None)  # never called
        bad = tmp_path / "bad.json"
        for observable in ({"cos": [5.0]}, {}):
            bad.write_text(json.dumps({"process": process, "observable": observable,
                                       "n_grid": [16, 64, 256], "reps": 200,
                                       "targets": ["empirical_d1", "rate_fit"]}))
            assert main([command, "--config", str(bad), "--output", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "own observable" in err and "(field: observable)" in err
            assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_diagnose_malformed_observable_exit_code(self, tmp_path, capsys):
        # diagnose reads the observable as run does, whatever the process
        from meanclt.cli import main
        bad = tmp_path / "bad.json"
        for process, obs in (({"type": "doubling_map"}, "x"), (CHAIN, []), (CHAIN, "")):
            bad.write_text(json.dumps({"process": process, "observable": obs}))
            assert main(["diagnose", "--config", str(bad)]) == 2
            assert "(field: observable)" in capsys.readouterr().err

    def test_missing_config_exit_code(self):
        out = self._run("run", "--config", "/nonexistent/cfg.json")
        assert out.returncode == 2

    @pytest.mark.parametrize("argv", [["run", "--config", "{dir}"],
                                      ["diagnose", "--config", "{dir}"],
                                      ["report", "{dir}"],
                                      ["check-appendix", "--count", "2", "--seed", "3",
                                       "--output", "{dir}"]],
                             ids=["run", "diagnose", "report", "check-appendix"])
    def test_directory_path_exit_code(self, tmp_path, capsys, argv):
        # a directory where a file is read or written is invalid input, not a traceback
        from meanclt.cli import main
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("invalid input: ")

    @pytest.mark.parametrize("argv", [["run", "--config", "{path}"],
                                      ["diagnose", "--config", "{path}"],
                                      ["report", "{path}"],
                                      ["check-appendix", "--count", "2", "--seed", "3",
                                       "--output", "{path}"]],
                             ids=["run", "diagnose", "report", "check-appendix"])
    def test_path_under_a_file_exit_code(self, tmp_path, capsys, argv):
        # a path whose parent is a regular file raises NotADirectoryError, which
        # is no FileNotFoundError: invalid input all the same
        from meanclt.cli import main
        (tmp_path / "plain").write_text("{}")
        path = tmp_path / "plain" / "inner.json"
        assert main([arg.format(path=path) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("invalid input: ")

    def test_diagnose_cli(self, tmp_path):
        cfg = {"process": {"type": "doubling_map"},
               "observable": {"constant": 0.0, "cos": [1.0], "sin": []}}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(cfg))
        out = self._run("diagnose", "--config", str(path), "--kmax", "3")
        assert out.returncode == 0
        assert "converging" in out.stdout
