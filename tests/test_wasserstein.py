import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanclt.errors import DomainError
from meanclt.fourier import cosine
from meanclt.numerics import Tolerance, gauss_cdf, gauss_pdf, gauss_quantile, integrate_unit
from meanclt.processes import DoublingMap, exact_law
from meanclt.wasserstein import (EmpiricalSample, FinitePmf, ks_pmf_gauss, ks_sample_gauss,
                                 ks_sorted_gauss, _slab_tables, sorted_gauss_tables,
                                 w1_charfn_gauss, w1_pmf_gauss, w1_sample_gauss,
                                 w1_sorted_gauss)

SQRT_2_OVER_PI = 0.7978845608028654


def w1_xdomain_oracle(values: np.ndarray, sigma: float) -> float:
    """Adaptive quadrature of |Fhat - Phi_sigma|, split at atoms and crossings,
    each piece mapped onto [0, 1]."""
    x = np.sort(values)
    m = x.size
    pts = np.concatenate([[x[0] - 8 * sigma], x, [x[-1] + 8 * sigma]])
    total = 0.0
    for i in range(pts.size - 1):
        a, b = pts[i], pts[i + 1]
        if b <= a:
            continue
        c = i / m
        ends = [a, b]
        if 0.0 < c < 1.0:
            xc = sigma * float(gauss_quantile(c))
            if a < xc < b:
                ends = [a, xc, b]
        for lo, hi in zip(ends[:-1], ends[1:]):
            total += integrate_unit(
                lambda u, c=c, lo=lo, w=hi - lo: np.abs(
                    c - np.asarray(gauss_cdf((lo + w * u) / sigma))) * w,
                Tolerance(1e-12, 1e-12, 40))
    return total


class TestSampleGauss:
    def test_single_zero_is_mean_abs_deviation(self):
        s = EmpiricalSample(np.array([0.0]))
        assert w1_sample_gauss(s, 1.0) == pytest.approx(SQRT_2_OVER_PI, abs=1e-14)

    def test_large_gaussian_sample_is_small(self):
        gen = np.random.default_rng(2024)
        s = EmpiricalSample(gen.normal(0.0, 1.0, 100_000))
        assert w1_sample_gauss(s, 1.0) < 0.02

    def test_two_point_matches_quadrature(self):
        vals = np.array([-1.0, 1.0])
        got = w1_sample_gauss(EmpiricalSample(vals), 1.0)
        assert got == pytest.approx(w1_xdomain_oracle(vals, 1.0), abs=1e-6)

    def test_grows_with_sigma(self):
        s = EmpiricalSample(np.array([-1.0, 1.0]))
        v = [w1_sample_gauss(s, sig) for sig in (1.0, 5.0, 25.0, 125.0)]
        assert v[0] < v[1] < v[2] < v[3]
        assert v[3] > 50.0

    def test_dual_form_agreement_random_samples(self):
        gen = np.random.default_rng(7)
        for trial in range(30):
            m = int(gen.integers(1, 40))
            vals = gen.normal(0.0, 2.0, m)
            if trial % 3 == 0:
                vals = np.round(vals)  # heavy ties
            sigma = float(gen.uniform(0.4, 2.5))
            got = w1_sample_gauss(EmpiricalSample(vals), sigma)
            assert got == pytest.approx(w1_xdomain_oracle(vals, sigma), abs=1e-6)

    def test_scale_equivariance(self):
        gen = np.random.default_rng(8)
        vals = gen.normal(0.0, 1.0, 200)
        base = w1_sample_gauss(EmpiricalSample(vals), 1.3)
        for c in (0.25, 2.0, 17.5):
            scaled = w1_sample_gauss(EmpiricalSample(c * vals), c * 1.3)
            assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-10)

    def test_triangle_sanity(self):
        gen = np.random.default_rng(9)
        s1 = EmpiricalSample(gen.normal(0.0, 1.0, 150))
        s2 = EmpiricalSample(gen.normal(0.2, 1.1, 150))
        d1 = w1_sample_gauss(s1, 1.0)
        d2 = w1_sample_gauss(s2, 1.0)
        # W1 of two samples of one size: mean |x_(i) - y_(i)| of their sorted values
        d12 = float(np.abs(s1.values - s2.values).mean())
        assert d1 <= d12 + d2 + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(-0.5, 0.5))
    def test_crossing_continuity(self, seed, delta):
        # moving one point by delta moves the distance by at most |delta|
        gen = np.random.default_rng(seed)
        vals = gen.normal(0.0, 1.0, 25)
        moved = vals.copy()
        moved[0] += delta
        before = w1_sample_gauss(EmpiricalSample(vals), 1.0)
        after = w1_sample_gauss(EmpiricalSample(moved), 1.0)
        assert abs(after - before) <= abs(delta) + 1e-12

    def test_sigma_domain(self):
        s = EmpiricalSample(np.array([0.0]))
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                w1_sample_gauss(s, bad)


class TestPmfGauss:
    def test_point_mass(self):
        p = FinitePmf(np.array([0.0]), np.array([1.0]))
        assert w1_pmf_gauss(p, 1.0) == pytest.approx(SQRT_2_OVER_PI, abs=1e-14)

    def test_two_step_rademacher_pair(self):
        r = math.sqrt(2.0)
        p = FinitePmf(np.array([-r, 0.0, r]), np.array([0.25, 0.5, 0.25]))
        got = w1_pmf_gauss(p, 1.0)
        oracle = w1_xdomain_oracle(np.repeat(p.atoms, [1, 2, 1]), 1.0)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_sign_flip_invariance(self):
        p = FinitePmf(np.array([-2.0, -0.5, 1.0]), np.array([0.2, 0.5, 0.3]))
        q = FinitePmf(np.array([-1.0, 0.5, 2.0]), np.array([0.3, 0.5, 0.2]))
        assert w1_pmf_gauss(p, 1.4) == pytest.approx(w1_pmf_gauss(q, 1.4), abs=1e-13)

    def test_matches_sample_version_on_uniform_weights(self):
        vals = np.array([-1.5, -0.25, 0.75, 2.0])
        p = FinitePmf(vals, np.full(4, 0.25))
        s = EmpiricalSample(vals)
        assert w1_pmf_gauss(p, 0.8) == pytest.approx(w1_sample_gauss(s, 0.8), abs=1e-12)

    def test_from_weighted_matches_the_merge_loop(self):
        def merge_loop(atoms, probs):
            """Sort stably, then add each atom's weight to an equal predecessor."""
            order = np.argsort(atoms, kind="stable")
            keep_a, keep_p = [], []
            for x, w in zip(atoms[order], probs[order]):
                if keep_a and x - keep_a[-1] <= 0.0:
                    keep_p[-1] += w
                else:
                    keep_a.append(x)
                    keep_p.append(w)
            a, p = np.array(keep_a), np.array(keep_p)
            return a[p > 0.0], p[p > 0.0]

        gen = np.random.default_rng(5)
        pool = np.array([-1.5, -0.3, -0.0, 0.0, 0.25, 1.0, 2.0])
        for _ in range(3000):
            k = int(gen.integers(1, 13))
            atoms = gen.choice(pool, size=k)
            probs = np.zeros(k)
            live = gen.random(k) < 0.8
            live[int(gen.integers(k))] = True
            probs[live] = gen.dirichlet(np.ones(int(live.sum())))
            want_a, want_p = merge_loop(atoms, probs)
            got = FinitePmf.from_weighted(atoms, probs)
            assert np.array_equal(got.atoms, want_a)
            assert np.array_equal(np.signbit(got.atoms), np.signbit(want_a))
            assert np.array_equal(got.probs, want_p)

    def test_validation(self):
        with pytest.raises(DomainError):
            FinitePmf(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            FinitePmf(np.array([0.0]), np.array([0.9]))

    def test_rejects_nan_probabilities(self):
        # NaN fails neither p < 0 nor |sum - 1| > tol, so both checks must reject it
        for probs in ([math.nan, math.nan], [math.nan, 1.0]):
            with pytest.raises(DomainError):
                FinitePmf(np.array([0.0, 1.0]), np.array(probs))
            with pytest.raises(DomainError):
                FinitePmf.from_weighted(np.array([0.0, 1.0]), np.array(probs))


def doubling_w1(f, n, sigma, **kw):
    """(d1, err) of the exact law of S_n / sqrt(n) for the doubling map."""
    phi = exact_law(DoublingMap(), f, n)
    return w1_charfn_gauss(lambda t: phi(t / math.sqrt(n)), sigma, **kw)


def doubling_sample_w1(n, k, sigma):
    """Plug-in W1 of S_n / sqrt(n) for cos(2 pi x) on the 2^k midpoints of [0, 1)."""
    x = (np.arange(1 << k) + 0.5) / (1 << k)
    s = sum(np.cos(2.0 * np.pi * ((2.0 ** j * x) % 1.0)) for j in range(n))
    return w1_sample_gauss(EmpiricalSample(s / math.sqrt(n)), sigma)


class TestCharfnGauss:
    def test_two_gaussians(self):
        # W1(N(0, s^2), N(0, sigma^2)) = |s - sigma| sqrt(2/pi)
        for s, sigma in ((1.3, 1.0), (0.5, 0.8), (2.0, 2.0)):
            d1, err = w1_charfn_gauss(
                lambda t: (np.exp(-0.5 * (s * t) ** 2), np.zeros(t.shape)), sigma)
            want = abs(s - sigma) * SQRT_2_OVER_PI
            # the x-grid leaves O(dx^2) at the kink of |F - Phi_sigma| at 0; a law
            # narrower than N(0, sigma^2) decays slower in t than the default
            # cutoff assumes, which the halved-cutoff part of err reports
            assert abs(d1 - want) <= err < 1e-3 * max(want, 1e-3)

    def test_bound_enters_err(self):
        law = lambda t: (np.exp(-0.5 * (1.3 * t) ** 2), np.full(t.shape, 1e-6))
        exact = lambda t: (np.exp(-0.5 * (1.3 * t) ** 2), np.zeros(t.shape))
        (d1, err), (d1_exact, err_exact) = w1_charfn_gauss(law, 1.0), w1_charfn_gauss(exact, 1.0)
        assert d1 == d1_exact and err > err_exact + 1e-6

    def test_doubling_small_n_against_the_midpoint_sample(self, monkeypatch):
        # the density of S_n has inverse square-root peaks at the critical values of
        # the trigonometric polynomial S_n, so phi_n decays only like t^(-1/2): at
        # n = 4 and 8 the cutoff _T_SIGMAS / sigma must be far past the default for
        # 1e-5: _T_SIGMAS = 320 sigma puts it at 320
        import meanclt.wasserstein as wasserstein
        sigma = math.sqrt(0.5)
        monkeypatch.setattr(wasserstein, "_T_SIGMAS", 320.0 * sigma)
        for n in (4, 8):
            oracle = doubling_sample_w1(n, 20, sigma)
            oracle_grid = abs(oracle - doubling_sample_w1(n, 19, sigma))
            d1, err = doubling_w1(cosine(1), n, sigma)
            assert abs(d1 - oracle) < 1e-5, n
            assert err >= abs(d1 - oracle) - oracle_grid, n

    def test_doubling_err_below_one_percent(self):
        sigma = math.sqrt(0.5)
        for f in (cosine(1), cosine(2)):
            for n in (16, 64, 256, 1024, 4096, 16384):
                d1, err = doubling_w1(f, n, sigma)
                assert 0.0 <= err < 0.01 * d1, (f.describe(), n)

    def test_doubling_rate(self):
        # sqrt(n) d1 settles at 0.2420 for the martingale difference cos(2 pi x)
        sigma = math.sqrt(0.5)
        scaled = [math.sqrt(n) * doubling_w1(cosine(1), n, sigma)[0]
                  for n in (64, 256, 1024, 4096, 16384)]
        assert scaled == pytest.approx([0.2411, 0.2418, 0.2419, 0.2420, 0.2420], abs=1e-3)

    def test_spread_sizes_the_period(self):
        # N(0, 64) reaches far past the default x-period of +-12 sigma around 0 and
        # wraps, which the halved-step part of err (a doubled period) shows; given
        # as spread, its standard deviation widens the period
        s, sigma = 8.0, 1.0
        law = lambda t: (np.exp(-0.5 * (s * t) ** 2), np.zeros(t.shape))
        want = (s - sigma) * SQRT_2_OVER_PI
        wrapped, wrapped_err = w1_charfn_gauss(law, sigma)
        assert abs(wrapped - want) > 0.05 * want
        assert wrapped_err > 0.5 * abs(wrapped - want)
        d1, err = w1_charfn_gauss(law, sigma, spread=s)
        assert abs(d1 - want) <= err < 1e-3 * want
        with pytest.raises(DomainError):
            w1_charfn_gauss(law, sigma, spread=-1.0)

    def test_rel_err_doubles_the_cutoff(self):
        # at n = 4 the default cutoff leaves err near 4% of d1; doubling it twice
        # brings err under 1%, and err still covers the gap to the oracle
        sigma = math.sqrt(0.5)
        oracle = doubling_sample_w1(4, 20, sigma)
        d1, err = doubling_w1(cosine(1), 4, sigma)
        assert err > 0.01 * d1
        d1, err = doubling_w1(cosine(1), 4, sigma, rel_err=0.01)
        assert abs(d1 - oracle) <= err <= 0.01 * d1


class TestKolmogorov:
    def test_single_zero(self):
        assert ks_sample_gauss(EmpiricalSample([0.0]), 1.0) == pytest.approx(0.5)

    def test_equioscillation(self):
        m = 32
        qs = gauss_quantile((np.arange(1, m + 1) - 0.5) / m)
        assert ks_sample_gauss(EmpiricalSample(qs), 1.0) == pytest.approx(1 / (2 * m), abs=1e-12)

    def test_gaussian_sample_ks_small(self):
        gen = np.random.default_rng(11)
        m = 10_000
        s = EmpiricalSample(gen.normal(0.0, 1.0, m))
        assert ks_sample_gauss(s, 1.0) < 1.63 / math.sqrt(m)

    def test_sample_and_pmf_forms_share_the_step_formula(self):
        # the sample form keeps its own formula's output bit for bit, and the pmf
        # form with equal weights agrees with it up to the rounding of the cumsum
        gen = np.random.default_rng(5)
        for m in (1, 2, 7, 1000):
            x = np.sort(gen.normal(0.0, 1.3, m))
            cdf = gauss_cdf(x / 1.1)
            i = np.arange(1, m + 1)
            old = float(np.maximum(np.abs(i / m - cdf), np.abs((i - 1) / m - cdf)).max())
            assert ks_sorted_gauss(cdf) == old
            pmf = FinitePmf(x, np.full(m, 1.0 / m))
            assert ks_pmf_gauss(pmf, 1.1) == pytest.approx(old, abs=1e-15)
        with pytest.raises(DomainError):
            ks_pmf_gauss(FinitePmf(np.array([0.0]), np.array([1.0])), 0.0)


class TestSortedGaussTables:
    def test_tables_of_the_sorted_sample(self):
        sample = np.array([0.3, -1.2, 0.3, 2.5, -0.0, 0.0, -1.2])
        order, x, cdf, pdf = sorted_gauss_tables(sample, 0.8)
        assert np.array_equal(order, np.argsort(sample, kind="stable"))
        assert np.array_equal(x, EmpiricalSample(sample).values)
        assert np.array_equal(cdf, gauss_cdf(x / 0.8))
        assert np.array_equal(pdf, gauss_pdf(x / 0.8))

    def test_rejects_what_empirical_sample_rejects(self):
        with pytest.raises(DomainError):
            sorted_gauss_tables(np.array([0.0, np.nan]), 1.0)
        with pytest.raises(DomainError):
            sorted_gauss_tables(np.array([0.0, 1.0]), 0.0)


def slab_sum_by_where(x, cdf, pdf, sigma):
    """The slab sum as one expression of fresh arrays, with nested np.where."""
    grid, g_grid = _slab_tables(x.size)
    a, b = grid[:-1], grid[1:]
    u0 = np.clip(cdf, a, b)
    g0 = np.where(u0 == cdf, pdf, np.where(u0 == a, g_grid[:-1], g_grid[1:]))
    piece = x * (u0 - a) + sigma * (g0 - g_grid[:-1]) \
        + sigma * (g0 - g_grid[1:]) + x * (u0 - b)
    return float(piece.sum())


class TestSortedScratch:
    # the in-place slab sum must add the very terms of the expression form,
    # whatever the scratch held before

    @staticmethod
    def samples():
        gen = np.random.default_rng(17)
        yield 1.1, np.array([0.7])
        yield 1.1, np.array([-0.0, 0.0])
        yield 0.9, np.array([2.5, -1.0])
        base = np.array([0.0, -0.0, 1.5, -0.0, 1.5, -2.0, 0.0, 1.5, 3.25, -2.0, -40.0, 9.0])
        yield 1.3, np.repeat(base, 25)
        yield 0.7, gen.normal(0.0, 0.7, 20_000)
        ties = np.round(gen.normal(0.0, 1.0, 20_000), 1)
        yield 1.0, np.where(gen.random(20_000) < 0.5, -ties, ties)  # ties and signed zeros

    def test_nan_scratch_equals_fresh(self):
        for sigma, sample in self.samples():
            _, x, cdf, pdf = sorted_gauss_tables(sample, sigma)
            fresh = w1_sorted_gauss(x, cdf, pdf, sigma)
            m = x.size
            scratch = (np.full(m, np.nan), np.full(m, np.nan), np.ones(m, dtype=bool))
            got = w1_sorted_gauss(x, cdf.copy(), pdf.copy(), sigma, scratch)
            assert got == fresh == slab_sum_by_where(x, cdf, pdf, sigma), (m, got, fresh)
            assert fresh == w1_sample_gauss(EmpiricalSample(sample), sigma)

    def test_fresh_scratch_leaves_tables(self):
        _, x, cdf, pdf = sorted_gauss_tables(np.array([0.3, -1.2, 0.3, 2.5]), 0.8)
        kept = cdf.copy(), pdf.copy()
        w1_sorted_gauss(x, cdf, pdf, 0.8)
        assert np.array_equal(cdf, kept[0]) and np.array_equal(pdf, kept[1])


class TestSlabEdges:
    # synthetic (x, cdf, pdf) tables that put points exactly on, below, above
    # and inside their slabs [i/m, (i+1)/m]: the closed form outside a slab
    # and the general form inside must add the terms of the one expression

    PLACES = ("at_a", "at_b", "below", "above", "inside")

    @staticmethod
    def cdf_at(m, place):
        grid, _ = _slab_tables(m)
        a, b = grid[:-1], grid[1:]
        # below and above stay in [0, 1]: on the first and last slab they
        # fall on the edge
        return {"at_a": a, "at_b": b, "below": 0.5 * a, "above": b + 0.5 * (1.0 - b),
                "inside": a + 0.25 * (b - a)}[place].copy()

    @classmethod
    def tables(cls):
        gen = np.random.default_rng(23)
        for m in (1, 2, 3, 8, 257):
            for place in cls.PLACES + ("mixed",):
                if place == "mixed":
                    pick = gen.integers(0, len(cls.PLACES), m)
                    cdf = np.choose(pick, [cls.cdf_at(m, p) for p in cls.PLACES])
                else:
                    cdf = cls.cdf_at(m, place)
                pdf = gen.uniform(0.0, 0.4, m)
                xs = (np.sort(gen.normal(0.0, 2.0, m)),
                      np.sort(gen.choice([-2.0, -0.0, 0.0, 1.5, 1.5, 3.25], m)),
                      np.zeros(m), np.full(m, -0.0))
                for x in xs:
                    yield m, place, x, cdf, pdf

    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    def test_equals_the_where_expression(self, sigma):
        for m, place, x, cdf, pdf in self.tables():
            kept = cdf.copy(), pdf.copy()
            want = slab_sum_by_where(x, cdf, pdf, sigma)
            scratch = (np.full(m, np.nan), np.full(m, np.nan), np.ones(m, dtype=bool))
            assert w1_sorted_gauss(x, cdf, pdf, sigma) == want, (m, place, x)
            assert w1_sorted_gauss(x, cdf, pdf, sigma, scratch) == want, (m, place, x)
            assert np.array_equal(cdf, kept[0]) and np.array_equal(pdf, kept[1])

    def test_places_are_what_they_say(self):
        # the tables above do reach every branch: below a, at a, inside, at b
        # and above b, apart from the first and last slab's clamped edges
        grid, _ = _slab_tables(8)
        a, b = grid[:-1], grid[1:]
        assert np.all(self.cdf_at(8, "at_a") == a) and np.all(self.cdf_at(8, "at_b") == b)
        assert np.all(self.cdf_at(8, "below")[1:] < a[1:])
        assert np.all(self.cdf_at(8, "above")[:-1] > b[:-1])
        inside = self.cdf_at(8, "inside")
        assert np.all((a < inside) & (inside < b))
