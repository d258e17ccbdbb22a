import math

import numpy as np
import pytest

from meanclt.bounds import (_l1_norm, _norms, _partial_sums, cubic_moment_sum,
                            martingale_d1_bound, moments,
                            nonadapted_correction, projective_d1_bound,
                            projective_drift_norms, rate_fit, second_moment_norms,
                            three_moment_distribution, variance_drift_norms,
                            variance_l32_norm, zolotarev_bound)
from meanclt.errors import DegenerateVarianceError, DomainError, PreconditionError
from meanclt.fourier import FourierFn, constant_fn, cosine, lebesgue_inner, product
from meanclt.numerics import substream
from meanclt.processes import (DoublingMap, CircleWalk, iid_rademacher,
                               long_run_variance, resolvent_tail, sqrt2_minus_one,
                               transfer)

DM = DoublingMap()
CW = CircleWalk(sqrt2_minus_one())
RIEMANN_GRID = (np.arange(1_000_000) + 0.5) / 1_000_000


def riemann_l1(fn) -> float:
    return float(np.abs(fn(RIEMANN_GRID)).mean())


class TestMoments:
    def test_doubling_mds(self):
        m = moments(DM, cosine(1))
        assert m.var0 == pytest.approx(0.5)
        assert m.sigma2 == pytest.approx(0.5)
        assert m.abs3 == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-10)
        assert m.lam == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-10)

    def test_iid_rademacher(self):
        m = moments(iid_rademacher())
        assert (m.sigma2, m.abs3, m.lam) == (1.0, 1.0, 1.0)

    def test_scaling_homogeneity(self):
        base = moments(DM, cosine(1))
        scaled = moments(DM, cosine(1, amplitude=2.0))
        assert scaled.abs3 == pytest.approx(8.0 * base.abs3, rel=1e-9)
        assert scaled.sigma2 == pytest.approx(4.0 * base.sigma2, rel=1e-12)
        assert scaled.lam == pytest.approx(2.0 * base.lam, rel=1e-9)

    def test_lyapunov(self):
        m = moments(CW, cosine(1))
        assert m.abs3 >= m.var0 ** 1.5 - 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            moments(DM, FourierFn(0.0, [], []))


class TestVarianceDrift:
    def test_m1_closed_form(self):
        l1, wl1 = variance_drift_norms(DM, cosine(1), 1)
        assert l1 == pytest.approx(1.0 / math.pi, abs=1e-10)
        assert wl1 == pytest.approx(0.25, abs=1e-10)

    def test_stabilizes_at_m1(self):
        for m in (2, 5, 20):
            assert variance_drift_norms(DM, cosine(1), m) == \
                pytest.approx(variance_drift_norms(DM, cosine(1), 1), abs=1e-12)

    def test_iid_zero(self):
        assert variance_drift_norms(iid_rademacher(), None, 3) == (0.0, 0.0)

    def test_requires_martingale(self):
        with pytest.raises(PreconditionError):
            variance_drift_norms(DM, cosine(2), 1)


class TestMartingaleBound:
    def test_n8_assembly(self):
        rep = martingale_d1_bound(DM, cosine(1), 8)
        sigma = math.sqrt(0.5)
        lam = 8.0 / (3.0 * math.pi)
        series = sum((0.25 + 2.0 * sigma / math.pi) / (m * 0.5) for m in (1, 2, 3, 4))
        expected = 13.0 * sigma / 6.0 + lam / 6.0 * math.log(17.0) + series
        assert rep.total == pytest.approx(expected, abs=1e-9)
        assert rep.m_cutoff == 4
        assert len(rep.series) == 4

    def test_extended_precision_recompute(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rep = martingale_d1_bound(DM, cosine(1), 8)
        sigma = mp.sqrt(mp.mpf(1) / 2)
        abs3 = 4 / (3 * mp.pi)
        lam = abs3 / (mp.mpf(1) / 2)
        series = sum((mp.mpf(1) / 4 + 2 * sigma / mp.pi) / (m * mp.mpf("0.5"))
                     for m in (1, 2, 3, 4))
        expected = 13 * sigma / 6 + lam / 6 * mp.log(17) + series
        assert rep.total == pytest.approx(float(expected), abs=1e-9)

    def test_log_term_doubling_identity(self):
        lam = moments(DM, cosine(1)).lam
        r1 = martingale_d1_bound(DM, cosine(1), 64)
        r2 = martingale_d1_bound(DM, cosine(1), 128)
        assert r2.log_term - r1.log_term == \
            pytest.approx(lam / 6.0 * math.log(257.0 / 129.0), abs=1e-12)

    def test_terms_sum_to_total(self):
        rep = martingale_d1_bound(DM, cosine(1), 300)
        assert rep.total == pytest.approx(rep.constant + rep.log_term + sum(rep.series),
                                          abs=1e-12)
        assert all(t >= 0.0 for t in rep.series)
        assert math.isfinite(rep.total) and rep.total > 0.0

    def test_iid(self):
        rep = martingale_d1_bound(iid_rademacher(), None, 50)
        assert rep.total == pytest.approx(13.0 / 6.0 + math.log(101.0) / 6.0, abs=1e-12)


class TestProjectiveMachinery:
    def test_mds_consistency(self):
        f = cosine(1)
        assert projective_drift_norms(DM, f, 3) == \
            pytest.approx(variance_drift_norms(DM, f, 3), abs=1e-12)
        assert nonadapted_correction(DM, f, 20).total == 0.0
        r21 = martingale_d1_bound(DM, f, 64)
        r22 = projective_d1_bound(DM, f, 64)
        assert abs(r22.total - r21.total) <= 1e-10

    def test_iid_zero(self):
        assert projective_drift_norms(iid_rademacher(), None, 5) == (0.0, 0.0)
        assert nonadapted_correction(iid_rademacher(), None, 7).total == 0.0

    def test_nonadapted_w_norms_vs_riemann(self):
        f = cosine(2)
        sigma2 = long_run_variance(DM, f).sigma2
        g = resolvent_tail(DM, f, 1)
        z = (product(f, f).fn + 2.0 * product(f, g).fn).shift_constant(-sigma2)
        w1 = transfer(DM, z, 1)
        l1, wl1 = projective_drift_norms(DM, f, 1)
        assert l1 == pytest.approx(riemann_l1(w1.eval), abs=1e-6)
        assert wl1 == pytest.approx(riemann_l1(lambda x: f.eval(x) * w1.eval(x)), abs=1e-6)

    def test_nonadapted_correction_vs_riemann(self):
        f = cosine(2)
        rep = nonadapted_correction(DM, f, 4)
        sigma = math.sqrt(long_run_variance(DM, f).sigma2)
        g1 = resolvent_tail(DM, f, 1)
        first = riemann_l1(lambda x: f.eval(x) * g1.eval(x)) / sigma
        # the resolvent tail is empty from m = 2 on
        assert resolvent_tail(DM, f, 2).is_zero()
        es = transfer(DM, f, 1)  # E_0(S_m) stabilizes immediately: K^k f = 0, k >= 2
        one_plus = lambda x: 1.0 + f.eval(x) ** 2 / sigma ** 2
        second = sum(riemann_l1(lambda x: one_plus(x) * es.eval(x)) / (2.0 * m)
                     for m in range(1, 5))
        assert rep.total == pytest.approx(first + second, abs=1e-5)

    def test_monotone_in_n(self):
        f = cosine(2)
        totals = [projective_d1_bound(DM, f, n).total for n in (8, 16, 64, 256)]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_circle_walk_bound_finite(self):
        rep = projective_d1_bound(CW, cosine(1), 256)
        assert math.isfinite(rep.total) and rep.total > 0.0
        assert rep.correction > 0.0

    def test_norms_shared_across_n_of_one_observable(self, monkeypatch):
        # the bound at n = 32 after n = 128 on the same observable takes every
        # norm from the earlier call; a fresh observable integrates them again
        from meanclt import bounds
        calls = []
        quad = bounds.integrate_unit
        monkeypatch.setattr(bounds, "integrate_unit",
                            lambda g, tol: calls.append(1) or quad(g, tol))
        f = FourierFn(0.0, [1.0, 0.5])
        projective_d1_bound(CW, f, 128)
        before = len(calls)
        again = projective_d1_bound(CW, f, 32)
        assert len(calls) == before
        fresh = projective_d1_bound(CW, FourierFn(0.0, [1.0, 0.5]), 32)
        assert len(calls) > before
        assert repr(again) == repr(fresh)


class TestSecondMomentNorms:
    def test_mds_values(self):
        drift, smooth = second_moment_norms(DM, cosine(1), 3)
        assert drift == pytest.approx(1.0 / math.pi, abs=1e-10)
        assert smooth == 0.0

    def test_iid(self):
        assert second_moment_norms(iid_rademacher(), None, 4) == (0.0, 0.0)

    def test_nonadapted_vs_riemann(self):
        f = cosine(2)
        m = 2
        sigma2 = long_run_variance(DM, f).sigma2
        drift, smooth = second_moment_norms(DM, f, m)
        f2 = product(f, f).fn
        total = transfer(DM, f2, 1) + transfer(DM, f2, 2) \
            + 2.0 * transfer(DM, product(f, transfer(DM, f, 1)).fn, 1)
        total = total.shift_constant(-m * sigma2)
        assert drift == pytest.approx(riemann_l1(total.eval), abs=1e-6)
        g = resolvent_tail(DM, f, 1)
        assert smooth == pytest.approx(riemann_l1(transfer(DM, g, m).eval), abs=1e-6)


# pairwise reference loops: every lag product f * K^(l-k) f and window triple
# (j < i) transferred and summed on its own
def _second_moment_pairwise(spec, f, m):
    f2 = product(f, f).fn
    total = constant_fn(-m * long_run_variance(spec, f).sigma2)
    for k in range(1, m + 1):
        total = total + transfer(spec, f2, k)
    for k in range(1, m + 1):
        for l in range(k + 1, m + 1):
            total = total + 2.0 * transfer(spec, product(f, transfer(spec, f, l - k)).fn, k)
    return _l1_norm(f, total)


def _cubic_pairwise(spec, f, l):
    f2 = product(f, f).fn
    total = product(f2, f).fn.mean
    for i in range(1, l + 1):
        total += 3.0 * lebesgue_inner(f, transfer(spec, f2, i))
        total += 3.0 * lebesgue_inner(f2, transfer(spec, f, i))
        for j in range(1, i):
            inner = product(f, transfer(spec, f, i - j)).fn
            total += 6.0 * lebesgue_inner(f, transfer(spec, inner, j))
    return total


ORACLE_CASES = [
    (DM, cosine(2)),
    (DM, FourierFn(0.0, [0.3, 1.0, 0.2], [0.0, 0.5, 0.0])),
    (CW, cosine(1)),
    (CW, FourierFn(0.0, [1.0, 0.5], [0.0, 0.3])),
]


class TestSingleSumOracle:
    @pytest.mark.parametrize("spec,f", ORACLE_CASES)
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
    def test_second_moment_matches_pairwise(self, spec, f, m):
        drift, _ = second_moment_norms(spec, f, m)
        assert drift == pytest.approx(_second_moment_pairwise(spec, f, m), rel=1e-12)

    @pytest.mark.parametrize("spec,f", ORACLE_CASES)
    @pytest.mark.parametrize("l", [1, 2, 3, 7, 20])
    def test_cubic_matches_pairwise(self, spec, f, l):
        assert cubic_moment_sum(spec, f, l) == \
            pytest.approx(_cubic_pairwise(spec, f, l), rel=1e-12, abs=1e-15)

    def test_partial_sums_share_the_stable_object(self):
        # K^d cos2 vanishes from d = 2 on, so R_1 = cos1 is the final sum
        sums = _partial_sums(DM, cosine(2), 6)
        assert len(sums) == 7 and sums[0].is_zero()
        assert sums[1].allclose(cosine(1))
        assert all(s is sums[1] for s in sums[2:])
        # the circle walk decays geometrically and stabilizes much later
        cw = _partial_sums(CW, cosine(1), 5)
        assert len({id(s) for s in cw}) == 6

    def test_norms_once_per_distinct_sum(self):
        sums = _partial_sums(DM, cosine(4), 9)
        calls = []
        values = _norms(sums, lambda s: calls.append(s) or s.coeff_l1())
        assert len(calls) == len({id(s) for s in sums}) == 3
        assert values == [s.coeff_l1() for s in sums]


class TestVarianceL32:
    def test_vanishes_from_l2(self):
        assert variance_l32_norm(DM, cosine(1), 2) == 0.0
        assert variance_l32_norm(DM, cosine(1), 5) == 0.0

    def test_l1_closed_form(self):
        got = variance_l32_norm(DM, cosine(1), 1)
        assert got == pytest.approx(0.33824968175897076772, abs=1e-9)

    def test_iid(self):
        assert variance_l32_norm(iid_rademacher(), None, 1) == 0.0


class TestCubicMomentSum:
    def test_l0_odd_power(self):
        assert cubic_moment_sum(DM, cosine(1), 0) == pytest.approx(0.0, abs=1e-14)

    def test_mds_value(self):
        assert cubic_moment_sum(DM, cosine(1), 1) == pytest.approx(0.75, abs=1e-12)

    def test_stabilizes(self):
        v2 = cubic_moment_sum(DM, cosine(1), 2)
        v5 = cubic_moment_sum(DM, cosine(1), 5)
        assert v2 == v5 == pytest.approx(0.75, abs=1e-12)

    def test_iid_symmetric(self):
        assert cubic_moment_sum(iid_rademacher(), None, 4) == 0.0


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

    def test_domain(self):
        with pytest.raises(DomainError):
            three_moment_distribution(0.0, 1.0)


class TestZolotarev:
    def test_rademacher(self):
        assert zolotarev_bound(1.0, 1.0) == 0.5

    def test_gaussian(self):
        assert zolotarev_bound(math.sqrt(8.0 / math.pi), 1.0) == \
            pytest.approx(0.5 * math.sqrt(8.0 / math.pi), abs=1e-14)

    def test_homogeneity(self):
        c = 2.5
        assert zolotarev_bound(c ** 3 * 1.0, c ** 2 * 1.0) == \
            pytest.approx(c * zolotarev_bound(1.0, 1.0), abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            zolotarev_bound(1.0, 0.0)


class TestRateFit:
    def test_exact_half(self):
        fit = rate_fit([(2 ** k, 3.0 * 2.0 ** (-k / 2.0)) for k in range(4, 12)])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_log_corrected_curve(self):
        pts = [(2 ** k, 2.0 ** (-k / 2.0) * math.log(2 ** k)) for k in range(6, 15)]
        fit = rate_fit(pts)
        assert -0.5 < fit.slope < -0.3

    def test_constant(self):
        fit = rate_fit([(10, 2.0), (100, 2.0), (1000, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            rate_fit([(10, 1.0), (20, 0.5)])
        with pytest.raises(DomainError):
            rate_fit([(10, 1.0), (10, 0.5), (30, 0.2)])
        with pytest.raises(DomainError):
            rate_fit([(10, 1.0), (20, -0.5), (30, 0.2)])


class TestRiemannRegressionSet:
    # five fixed (process, observable, m) triples pinned against the midpoint oracle
    def test_quadrature_norms_match_riemann(self):
        cases = [
            (DM, cosine(1), 1),
            (DM, cosine(2), 1),
            (DM, cosine(2), 3),
            (CW, cosine(1), 2),
            (CW, cosine(2), 4),
        ]
        for spec, f, m in cases:
            z = _compensator_fn(spec, f)
            w = _w_partial(spec, z, m)
            l1, wl1 = projective_drift_norms(spec, f, m)
            assert l1 == pytest.approx(riemann_l1(w.eval), abs=1e-5)
            assert wl1 == pytest.approx(
                riemann_l1(lambda x: f.eval(x) * w.eval(x)), abs=1e-5)


def _compensator_fn(spec, f):
    sigma2 = long_run_variance(spec, f).sigma2
    g = resolvent_tail(spec, f, 1)
    return (product(f, f).fn + 2.0 * product(f, g).fn).shift_constant(-sigma2)


def _w_partial(spec, z, m):
    total = transfer(spec, z, 1)
    for k in range(2, m + 1):
        total = total + transfer(spec, z, k)
    return total
