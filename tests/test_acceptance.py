"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo criteria use the fixed preset seeds, so every number here is
reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from meanclt.bounds import (martingale_d1_bound, nonadapted_correction,
                            projective_drift_norms, second_moment_norms,
                            three_moment_distribution, variance_drift_norms)
from meanclt.coefficients import alpha_exact, frac_part_sum, kernel_decay_sum
from meanclt.fourier import cosine, product
from meanclt.harness import check_appendix, preset_config, run
from meanclt.numerics import (Tolerance, gauss_cdf, gauss_quantile, integrate_interval,
                              phi_deriv_l1, substream)
from meanclt.processes import (CircleWalk, DoublingMap, long_run_variance,
                               resolvent_tail, simulate, sqrt2_minus_one, transfer)
from meanclt.wasserstein import EmpiricalSample, w1_sample_gauss, w1_sample_sample

DM = DoublingMap()
CW = CircleWalk(sqrt2_minus_one())


def report(idx: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {idx:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def mds_run():
    """Shared full-scale martingale preset run (criteria 6 and 7)."""
    return run(preset_config("mds-doubling"))


def test_criterion_01_density_derivative_norms():
    t0 = time.perf_counter()
    exact = (0.79788456080286535588, 0.96788289807657339919, 1.5100130001304771326)
    caps = (4.0 / 5.0, 1.0, 8.0 / 5.0)
    vals = [phi_deriv_l1(i) for i in (1, 2, 3)]
    ok = all(abs(v - e) <= 1e-8 and v <= c for v, e, c in zip(vals, exact, caps))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert report(1, ok, f"phi derivative L1 norms {[f'{v:.10f}' for v in vals]} "
                         f"in {elapsed:.2f}s")


def test_criterion_02_three_moment_distribution():
    t0 = time.perf_counter()
    gen = np.random.default_rng(20240229)
    worst = 0.0
    for _ in range(1000):
        beta2 = float(gen.uniform(0.1, 10.0))
        beta3 = float(gen.uniform(-10.0, 10.0))
        mean, var, third = three_moment_distribution(beta2, beta3).analytic_moments()
        worst = max(worst, abs(mean), abs(var - beta2), abs(third - beta3))
    ok = worst <= 1e-10
    d = three_moment_distribution(1.0, 0.7)
    draws = d.sample(substream(77, 0), 1_000_000)
    n = draws.size
    checks = [
        abs(draws.mean()) < 4 * draws.std() / math.sqrt(n),
        abs(draws.var() - 1.0) < 4 * (draws - draws.mean()).__pow__(2).std() / math.sqrt(n),
        abs((draws ** 3).mean() - 0.7) < 4 * (draws ** 3).std() / math.sqrt(n),
    ]
    ok &= all(checks)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert report(2, ok, f"1000 moment identities worst error {worst:.2e}; "
                         f"MC checks {checks} in {elapsed:.1f}s")


def test_criterion_03_covariance_inequality_fuzz():
    t0 = time.perf_counter()
    rep = check_appendix(1000, seed=424242)
    eq = rep.equality_case
    ok = rep.all_pass and eq["lhs"] == 1.0 and eq["rhs"] == 1.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert report(3, ok, f"{rep.covariance_passes}/1000 covariance, "
                         f"{rep.corollary_passes}/1000 corollary, "
                         f"{rep.dispersion_passes}/1000 dispersion, equality case "
                         f"lhs={eq['lhs']} rhs={eq['rhs']} in {elapsed:.1f}s")


def test_criterion_04_doubling_mixing_bound():
    t0 = time.perf_counter()
    vals = [alpha_exact(DM, (n,), grid=11) for n in range(1, 11)]
    ok = all(v <= 2.0 ** -n + 1e-12 for n, v in zip(range(1, 11), vals))
    ok &= vals[0] == 0.25
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert report(4, ok, f"alpha(1..10) = {[f'{v:.3g}' for v in vals]} "
                         f"(alpha(1) = {vals[0]}) in {elapsed:.1f}s")


def test_criterion_05_circle_walk_variance():
    t0 = time.perf_counter()
    sigma2 = long_run_variance(CW, cosine(1)).sigma2
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    a = sqrt2_minus_one().as_fraction()
    closed = float(1 / (2 * mp.tan(mp.pi * mp.mpf(a.numerator) / a.denominator) ** 2))
    ok = abs(sigma2 - closed) <= 1e-13
    n, reps = 2 ** 14, 10_000
    ens = simulate(CW, cosine(1), n, reps, seed=5150)
    s = ens.column(n)
    var_hat = float(s.var()) / n
    gen = substream(5150, reps).generator()
    boot = np.array([s[gen.integers(0, reps, reps)].var() / n for _ in range(100)])
    se = float(boot.std(ddof=1))
    ok &= abs(var_hat - sigma2) <= 3.0 * se
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert report(5, ok, f"sigma^2 = {sigma2:.12f} (closed form {closed:.12f}); "
                         f"empirical {var_hat:.5f} +- {se:.5f} in {elapsed:.1f}s")


def test_criterion_06_mds_rate(mds_run):
    slope = mds_run.fit["slope"]
    ok = -0.65 <= slope <= -0.35
    recs = {rec["n"]: rec for rec in mds_run.per_n}
    v12 = recs[4096]["d1_unnormalized"]
    v14 = recs[16384]["d1_unnormalized"]
    spread = abs(v14 - v12) / min(v12, v14)
    ok &= spread < 0.35
    assert report(6, ok, f"rate-fit slope {slope:.3f} (band [-0.65, -0.35]); "
                         f"sqrt(n)*d1 at n=2^12,2^14: {v12:.3f}, {v14:.3f} "
                         f"(spread {100 * spread:.0f}%, limit 35%)")


def test_criterion_07_martingale_bound_dominance(mds_run):
    recs = list(mds_run.per_n)
    dominated = []
    for rec in recs:
        bound = rec["bound_martingale"]["total"]
        # the error bar of the estimator that produced d1
        err = rec["d1_exact_err"] if rec.get("d1_estimator") == "exact" else rec["d1_boot_se"]
        slack = rec["d1_unnormalized"] - 3.0 * math.sqrt(rec["n"]) * err
        dominated.append(bound >= slack)
    ok = all(dominated)
    per_log = {rec["n"]: rec["bound_martingale"]["total"] / math.log(rec["n"])
               for rec in recs}
    variation = abs(per_log[16384] - per_log[4096]) / per_log[4096]
    ok &= variation < 0.10
    assert report(7, ok, f"dominance at every n: {dominated}; bound/log n at "
                         f"2^12 vs 2^14 varies {100 * variation:.1f}% (limit 10%)")


def test_criterion_08_iid_exact_oracle():
    t0 = time.perf_counter()
    manifest = run(preset_config("iid-rademacher-exact"))
    scaled = [math.sqrt(rec["n"]) * rec["d1_normalized"] for rec in manifest.per_n]
    ok = all(v <= 0.6 for v in scaled)
    slope = manifest.fit["slope"]
    ok &= abs(slope + 0.5) <= 0.05
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert report(8, ok, f"sqrt(n)*d1 = {[f'{v:.4f}' for v in scaled]}; "
                         f"slope {slope:.4f} in {elapsed:.1f}s")


def test_criterion_09_w1_oracle_equivalence():
    t0 = time.perf_counter()
    gen = np.random.default_rng(90210)
    worst = 0.0
    for trial in range(100):
        m = int(gen.integers(1, 50))
        vals = gen.normal(0.0, 1.5, m)
        if trial % 4 == 0:
            vals = np.round(vals)
        sigma = float(gen.uniform(0.4, 2.5))
        direct = w1_sample_gauss(EmpiricalSample(vals), sigma)
        x = np.sort(vals)
        pts = np.concatenate([[x[0] - 8 * sigma], x, [x[-1] + 8 * sigma]])
        quad = 0.0
        for i in range(pts.size - 1):
            if pts[i + 1] <= pts[i]:
                continue
            c = i / m
            # split each segment at the level crossing so the |.| kink sits
            # on a panel boundary and the quadrature converges spectrally
            ends = [pts[i], pts[i + 1]]
            if 0.0 < c < 1.0:
                xc = sigma * float(gauss_quantile(c))
                if ends[0] < xc < ends[1]:
                    ends = [ends[0], xc, ends[1]]
            for lo, hi in zip(ends[:-1], ends[1:]):
                quad += integrate_interval(
                    lambda t, c=c: np.abs(c - np.asarray(gauss_cdf(t / sigma))),
                    lo, hi, Tolerance(1e-12, 1e-12, 40))
        worst = max(worst, abs(direct - quad))
    ok = worst <= 1e-6
    coupling_worst = 0.0
    for _ in range(50):
        m = int(gen.integers(1, 200))
        a = np.sort(gen.normal(size=m))
        b = np.sort(gen.normal(size=m))
        got = w1_sample_sample(EmpiricalSample(a), EmpiricalSample(b))
        coupling_worst = max(coupling_worst, abs(got - float(np.abs(a - b).mean())))
    ok &= coupling_worst <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert report(9, ok, f"dual-form worst gap {worst:.2e} (limit 1e-6); equal-size "
                         f"coupling gap {coupling_worst:.2e} in {elapsed:.1f}s")


def test_criterion_10_bound_machinery_cross_validation():
    t0 = time.perf_counter()
    f = cosine(2)  # the nonadapted preset observable
    grid = (np.arange(1_000_000) + 0.5) / 1_000_000

    def riemann(fn):
        return float(np.abs(fn(grid)).mean())

    sigma2 = long_run_variance(DM, f).sigma2
    sigma = math.sqrt(sigma2)
    g_tail = resolvent_tail(DM, f, 1)
    z = (product(f, f).fn + 2.0 * product(f, g_tail).fn).shift_constant(-sigma2)
    gaps = []
    # projective drift norms at m = 1, 2
    w = transfer(DM, z, 1)
    for m in (1, 2):
        if m == 2:
            w = w + transfer(DM, z, 2)
        l1, wl1 = projective_drift_norms(DM, f, m)
        gaps += [abs(l1 - riemann(w.eval)),
                 abs(wl1 - riemann(lambda x: f.eval(x) * w.eval(x)))]
    # nonadapted correction at n = 4
    corr = nonadapted_correction(DM, f, 4)
    first = riemann(lambda x: f.eval(x) * g_tail.eval(x)) / sigma
    es = transfer(DM, f, 1)
    second = sum(riemann(lambda x: (1.0 + f.eval(x) ** 2 / sigma2) * es.eval(x)) / (2.0 * m)
                 for m in range(1, 5))
    gaps.append(abs(corr.total - (first + second)))
    # second-moment norms at m = 2
    drift, smooth = second_moment_norms(DM, f, 2)
    f2 = product(f, f).fn
    t_fn = (transfer(DM, f2, 1) + transfer(DM, f2, 2)
            + 2.0 * transfer(DM, product(f, transfer(DM, f, 1)).fn, 1)
            ).shift_constant(-2.0 * sigma2)
    gaps += [abs(drift - riemann(t_fn.eval)),
             abs(smooth - riemann(transfer(DM, g_tail, 2).eval))]
    ok = max(gaps) <= 1e-5
    # martingale-difference consistency identities
    fm = cosine(1)
    ident = [nonadapted_correction(DM, fm, 32).total,
             abs(martingale_d1_bound(DM, fm, 64).total
                 - __import__("meanclt.bounds", fromlist=["projective_d1_bound"])
                 .projective_d1_bound(DM, fm, 64).total)]
    wu = [abs(a - b) for a, b in zip(projective_drift_norms(DM, fm, 4),
                                     variance_drift_norms(DM, fm, 4))]
    ok &= max(ident + wu) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert report(10, ok, f"Riemann-oracle worst gap {max(gaps):.2e} (limit 1e-5); "
                          f"MDS identity worst gap {max(ident + wu):.2e} in {elapsed:.1f}s")


def test_criterion_11_diophantine_diagnostics():
    t0 = time.perf_counter()
    a = sqrt2_minus_one()
    eta, p = 0.05, 2
    c_fit = 0.0
    envelope_ok = True
    for n_oct in range(0, 17):
        s = frac_part_sum(a, n_oct, p)
        c_fit = max(c_fit, (s / 2.0) ** (1.0 / p) / 2.0 ** ((n_oct + 2) * (1.0 + eta)))
        envelope_ok &= math.log2(s / 2.0) / (n_oct + 2) < p * (1.0 + eta)
    ok = envelope_ok and c_fit <= 1.0
    vals = [kernel_decay_sum(a, 8.0, n, 100).value for n in range(0, 1001)]
    ok &= all(b <= a_ + 1e-15 for a_, b in zip(vals, vals[1:]))
    partials = np.cumsum([n * vals[n] for n in range(1, 1001)])
    ratio = partials[-1] / partials[99]
    ok &= ratio < 1.01
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert report(11, ok, f"fitted C = {c_fit:.3f} (envelope holds: {envelope_ok}); "
                          f"weighted decay-sum last-decade ratio {ratio:.5f} "
                          f"in {elapsed:.1f}s")
