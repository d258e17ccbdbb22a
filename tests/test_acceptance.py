"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo criteria use the fixed preset seeds, so every number here is
reproducible bit for bit.  The oracles of criteria 01, 02 and 11 (the
Gaussian-derivative norms, the three-moment matching law and the two
Diophantine sums) feed no command and live here, with their unit tests.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from meanclt.bounds import (bound_terms, martingale_d1_bound, nonadapted_correction,
                            projective_d1_bound, second_moment_norms)
from meanclt.coefficients import alpha_exact
from meanclt.fourier import cosine, product
from meanclt.harness import check_appendix, preset_config, run
from meanclt.numerics import (RandomStream, Tolerance, gauss_cdf, gauss_pdf, gauss_quantile,
                              integrate_unit, substream)
from meanclt.processes import (CircleWalk, DoublingMap, SplitReal, long_run_variance,
                               resolvent_tail, simulate, sqrt2_minus_one, transfer)
from meanclt.wasserstein import EmpiricalSample, w1_sample_gauss

DM = DoublingMap()
CW = CircleWalk(sqrt2_minus_one())

PHI_DERIVS = {
    1: lambda x: -x * gauss_pdf(x),
    2: lambda x: (x * x - 1.0) * gauss_pdf(x),
    3: lambda x: (3.0 * x - x ** 3) * gauss_pdf(x),
}


def phi_deriv_l1(i: int) -> float:
    """L1 norm of the i-th derivative of the standard normal density, i in 1..3:
    quadrature over |x| <= 12 (the tails beyond are below 1e-30), mapped onto [0, 1]."""
    d = PHI_DERIVS[i]
    return integrate_unit(lambda t: np.abs(d(-12.0 + 24.0 * t)) * 24.0,
                          Tolerance(1e-12, 1e-12, 44))


@dataclass(frozen=True)
class ThreeMomentDist:
    """Gaussian-plus-two-point law with prescribed moments (0, beta2, beta3).

    The law is Z + B with Z ~ N(0, beta2/2) independent of the two-point B
    taking value m with probability t and m_prime with probability 1 - t.
    """

    beta2: float
    beta3: float
    m: float
    m_prime: float
    t: float

    def sample(self, stream: RandomStream, size: int) -> np.ndarray:
        gen = stream.generator()
        z = gen.standard_normal(size) * math.sqrt(self.beta2 / 2.0)
        b = np.where(gen.random(size) < self.t, self.m, self.m_prime)
        return z + b

    def analytic_moments(self) -> tuple[float, float, float]:
        """Exact (mean, variance, third moment) of the law.

        The complement 1 - t is recovered from the centering identity
        t m + (1-t) m' = 0 so heavy-weight cases keep full precision.
        """
        t, m, mp = self.t, self.m, self.m_prime
        one_minus_t = t * m / (-mp)
        eb = t * m + one_minus_t * mp
        eb2 = t * m * m + one_minus_t * mp * mp
        eb3 = t * m ** 3 + one_minus_t * mp ** 3
        return (eb, self.beta2 / 2.0 + eb2, eb3)


def three_moment_distribution(beta2: float, beta3: float) -> ThreeMomentDist:
    """The matching law for beta2 > 0: m = (beta3 + sqrt(beta3^2 + beta2^3/2))/beta2,
    m' = -beta2/(2m), t = beta2^3 / (2 beta2^3 + 4 beta3 (beta3 + sqrt(...))).

    For beta3 < 0 the sum beta3 + root is evaluated through its conjugate
    beta2^3 / (2 (root - beta3)) to avoid cancellation.
    """
    root = math.sqrt(beta3 * beta3 + beta2 ** 3 / 2.0)
    s = beta3 + root if beta3 >= 0.0 else beta2 ** 3 / (2.0 * (root - beta3))
    m = s / beta2
    m_prime = -beta2 * beta2 / (2.0 * s)
    t = beta2 ** 3 / (2.0 * beta2 ** 3 + 4.0 * beta3 * s)
    return ThreeMomentDist(beta2=beta2, beta3=beta3, m=m, m_prime=m_prime, t=t)


def frac_part_sum(a: SplitReal, n_octave: int, power: int) -> float:
    """Sum of d(k*a, Z)^(-power) over the dyadic block k in [2^N, 2^{N+1}), each
    distance to the integers exact from the rational value of a."""
    fr = a.as_fraction()
    num, den = fr.numerator, fr.denominator
    total = 0.0
    for k in range(1 << n_octave, 1 << (n_octave + 1)):
        m = (k * num) % den
        total += (min(m, den - m) / den) ** (-power)
    return total


def kernel_decay_sum(a: SplitReal, s: float, n: int, kmax: int) -> tuple[float, float]:
    """(2 * sum_{k=1}^{kmax} |cos(2*pi*k*a)|^n k^{-s}, its tail bound 2*kmax^{1-s}/(s-1)).

    Bounds the sup norm of the n-step smoothing of any observable whose k-th
    coefficient is at most |k|^{-s}.
    """
    walk = CircleWalk(a)
    total = 0.0
    for k in range(1, kmax + 1):
        c = abs(walk.cos_step(k))
        total += (c ** n if n else 1.0) * k ** (-s)
    return 2.0 * total, 2.0 * kmax ** (1.0 - s) / (s - 1.0)


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
                quad += integrate_unit(
                    lambda u, c=c, lo=lo, w=hi - lo: np.abs(
                        c - np.asarray(gauss_cdf((lo + w * u) / sigma))) * w,
                    Tolerance(1e-12, 1e-12, 40))
        worst = max(worst, abs(direct - quad))
    ok = worst <= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert report(9, ok, f"dual-form worst gap {worst:.2e} (limit 1e-6) in {elapsed:.1f}s")


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
    # projective drift norms at m = 1, 2, the pairs of the bound at n = 2
    pairs = bound_terms("projective", DM, f, 2).pairs
    w = transfer(DM, z, 1)
    for m in (1, 2):
        if m == 2:
            w = w + transfer(DM, z, 2)
        l1, wl1 = pairs[m - 1]
        gaps += [abs(l1 - riemann(w.eval)),
                 abs(wl1 - riemann(lambda x: f.eval(x) * w.eval(x)))]
    # nonadapted correction at n = 4
    corr = nonadapted_correction(DM, f, 4)
    first = riemann(lambda x: f.eval(x) * g_tail.eval(x)) / sigma
    es = transfer(DM, f, 1)
    second = sum(riemann(lambda x: (1.0 + f.eval(x) ** 2 / sigma2) * es.eval(x)) / (2.0 * m)
                 for m in range(1, 5))
    gaps.append(abs(corr - (first + second)))
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
    ident = [nonadapted_correction(DM, fm, 32),
             abs(martingale_d1_bound(DM, fm, 64).total - projective_d1_bound(DM, fm, 64).total)]
    # W_4 against U_4, the pairs of the bounds at n = 8
    wu = [abs(a - b) for a, b in zip(bound_terms("projective", DM, fm, 8).pairs[3],
                                     bound_terms("martingale", DM, fm, 8).pairs[3])]
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
    vals = [kernel_decay_sum(a, 8.0, n, 100)[0] for n in range(0, 1001)]
    ok &= all(b <= a_ + 1e-15 for a_, b in zip(vals, vals[1:]))
    partials = np.cumsum([n * vals[n] for n in range(1, 1001)])
    ratio = partials[-1] / partials[99]
    ok &= ratio < 1.01
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert report(11, ok, f"fitted C = {c_fit:.3f} (envelope holds: {envelope_ok}); "
                          f"weighted decay-sum last-decade ratio {ratio:.5f} "
                          f"in {elapsed:.1f}s")


class TestThreeMoment:
    def test_symmetric_case(self):
        d = three_moment_distribution(1.0, 0.0)
        assert d.m == pytest.approx(1.0 / math.sqrt(2.0))
        assert d.m_prime == pytest.approx(-1.0 / math.sqrt(2.0))
        assert d.t == pytest.approx(0.5)

    def test_skewed_case(self):
        d = three_moment_distribution(1.0, 1.0)
        assert d.m == pytest.approx(1.0 + math.sqrt(1.5), abs=1e-12)
        assert d.m_prime == pytest.approx(-1.0 / (2.0 * (1.0 + math.sqrt(1.5))), abs=1e-12)
        assert d.t == pytest.approx(0.09175170953613698, abs=1e-12)
        mean, var, third = d.analytic_moments()
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(1.0, abs=1e-12)
        assert third == pytest.approx(1.0, abs=1e-10)

    def test_moment_identities_random(self):
        gen = np.random.default_rng(77)
        for _ in range(1000):
            beta2 = float(gen.uniform(0.1, 10.0))
            beta3 = float(gen.uniform(-10.0, 10.0))
            d = three_moment_distribution(beta2, beta3)
            mean, var, third = d.analytic_moments()
            assert abs(mean) <= 1e-10 * max(1.0, abs(d.m))
            assert var == pytest.approx(beta2, abs=1e-10 * max(1.0, beta2))
            assert third == pytest.approx(beta3, abs=1e-9 * max(1.0, abs(beta3), d.m ** 3))

    def test_sampler_moments(self):
        d = three_moment_distribution(1.0, 0.0)
        draws = d.sample(substream(123, 0), 1_000_000)
        n = draws.size
        se_mean = draws.std() / math.sqrt(n)
        assert abs(draws.mean()) < 4 * se_mean
        assert draws.var() == pytest.approx(1.0, rel=0.01)
        third = (draws ** 3).mean()
        se3 = (draws ** 3).std() / math.sqrt(n)
        assert abs(third) < 4 * se3


class TestDiophantine:
    def test_first_octave_single_term(self):
        a = sqrt2_minus_one()
        got = frac_part_sum(a, 0, 2)
        assert got == pytest.approx((math.sqrt(2.0) - 1.0) ** -2, rel=1e-12)

    def test_monotone_in_power(self):
        a = sqrt2_minus_one()
        for n in (1, 3, 5):
            assert frac_part_sum(a, n, 4) >= frac_part_sum(a, n, 2)

    def test_envelope_growth(self):
        # the dyadic-block bound is 2 C^p 2^{p(N+2)(1+eta)}; with the leading
        # factor 2 split off, the fitted constant C stays at most 1
        a = sqrt2_minus_one()
        eta, p = 0.05, 2
        c_fit = 0.0
        for n in range(0, 17):
            s = frac_part_sum(a, n, p)
            assert math.log2(s / 2.0) / (n + 2) < p * (1.0 + eta)
            c_fit = max(c_fit, (s / 2.0) ** (1.0 / p) / 2.0 ** ((n + 2) * (1.0 + eta)))
        assert c_fit <= 1.0

    def test_near_rational_distance_is_exact(self):
        # {3a} = 9e-15 for a = 1/3 + 3e-15: a float product 3a would keep no
        # digit of it, the rational value of a keeps them all
        near = SplitReal(1.0 / 3.0 + 3e-15)
        fr = near.as_fraction()
        expected = 0.0
        for k in (2, 3):
            frac = k * fr - math.floor(k * fr)
            expected += float(min(frac, 1 - frac)) ** -2
        assert frac_part_sum(near, 1, 2) == pytest.approx(expected, rel=1e-12)
        assert frac_part_sum(near, 1, 2) > 1e28


class TestKernelDecay:
    def test_zeta_at_n0(self):
        value, tail_bound = kernel_decay_sum(sqrt2_minus_one(), 5.0, 0, 1000)
        assert value + tail_bound == pytest.approx(2.0738555102867398527, abs=1e-6)
        assert value == pytest.approx(2.0738555102867398527, abs=1e-9)

    def test_nonincreasing_in_n(self):
        a = sqrt2_minus_one()
        vals = [kernel_decay_sum(a, 8.0, n, 100)[0] for n in (0, 1, 5, 20, 100)]
        assert all(b <= a_ + 1e-15 for a_, b in zip(vals, vals[1:]))

    def test_weighted_series_converges(self):
        a = sqrt2_minus_one()
        partial = 0.0
        partials = []
        for n in range(1, 1001):
            partial += n * kernel_decay_sum(a, 8.0, n, 100)[0]
            partials.append(partial)
        assert partials[-1] / partials[99] < 1.01
