import math
import tracemalloc

import numpy as np
import pytest

from meanclt.bounds import (_NORM_TOL, _drift_values, _l1_norms, _partial_sums, bound_terms,
                            cubic_moment_sum, martingale_d1_bound, moments,
                            nonadapted_correction, projective_d1_bound, rate_fit,
                            second_moment_norms, variance_l32_norm, variance_l32_norms,
                            zolotarev_bound)
from meanclt.errors import DegenerateVarianceError, DomainError, PreconditionError
from meanclt.fourier import FourierFn, constant_fn, cosine, lebesgue_inner, product
from meanclt.numerics import Tolerance
from meanclt.processes import (DoublingMap, CircleWalk, FiniteChain, iid_rademacher,
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


def drift_pairs(kind, spec, f, m):
    """(||W_m||_1, ||X0 W_m||_1), W_m = U_m for the martingale kind: the m-th pair
    of the bound terms at the least n with isqrt(2n) >= m."""
    return bound_terms(kind, spec, f, (m * m + 1) // 2).pairs[m - 1]


class TestVarianceDrift:
    def test_m1_closed_form(self):
        l1, wl1 = drift_pairs("martingale", DM, cosine(1), 1)
        assert l1 == pytest.approx(1.0 / math.pi, abs=1e-10)
        assert wl1 == pytest.approx(0.25, abs=1e-10)

    def test_stabilizes_at_m1(self):
        for m in (2, 5, 20):
            assert drift_pairs("martingale", DM, cosine(1), m) == \
                pytest.approx(drift_pairs("martingale", DM, cosine(1), 1), abs=1e-12)

    def test_iid_zero(self):
        assert drift_pairs("martingale", iid_rademacher(), None, 3) == (0.0, 0.0)

    def test_requires_martingale(self):
        with pytest.raises(PreconditionError):
            drift_pairs("martingale", DM, cosine(2), 1)


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
        assert drift_pairs("projective", DM, f, 3) == \
            pytest.approx(drift_pairs("martingale", DM, f, 3), abs=1e-12)
        assert nonadapted_correction(DM, f, 20) == 0.0
        r21 = martingale_d1_bound(DM, f, 64)
        r22 = projective_d1_bound(DM, f, 64)
        assert abs(r22.total - r21.total) <= 1e-10

    def test_iid_zero(self):
        assert drift_pairs("projective", iid_rademacher(), None, 5) == (0.0, 0.0)
        assert nonadapted_correction(iid_rademacher(), None, 7) == 0.0

    def test_nonadapted_w_norms_vs_riemann(self):
        f = cosine(2)
        sigma2 = long_run_variance(DM, f).sigma2
        g = resolvent_tail(DM, f, 1)
        z = (product(f, f).fn + 2.0 * product(f, g).fn).shift_constant(-sigma2)
        w1 = transfer(DM, z, 1)
        l1, wl1 = drift_pairs("projective", DM, f, 1)
        assert l1 == pytest.approx(riemann_l1(w1.eval), abs=1e-6)
        assert wl1 == pytest.approx(riemann_l1(lambda x: f.eval(x) * w1.eval(x)), abs=1e-6)

    def test_nonadapted_correction_vs_riemann(self):
        f = cosine(2)
        corr = nonadapted_correction(DM, f, 4)
        sigma = math.sqrt(long_run_variance(DM, f).sigma2)
        g1 = resolvent_tail(DM, f, 1)
        first = riemann_l1(lambda x: f.eval(x) * g1.eval(x)) / sigma
        # the resolvent tail is empty from m = 2 on
        assert resolvent_tail(DM, f, 2).is_zero()
        es = transfer(DM, f, 1)  # E_0(S_m) stabilizes immediately: K^k f = 0, k >= 2
        one_plus = lambda x: 1.0 + f.eval(x) ** 2 / sigma ** 2
        second = sum(riemann_l1(lambda x: one_plus(x) * es.eval(x)) / (2.0 * m)
                     for m in range(1, 5))
        assert corr == pytest.approx(first + second, abs=1e-5)

    def test_monotone_in_n(self):
        f = cosine(2)
        totals = [projective_d1_bound(DM, f, n).total for n in (8, 16, 64, 256)]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_circle_walk_bound_finite(self):
        rep = projective_d1_bound(CW, cosine(1), 256)
        assert math.isfinite(rep.total) and rep.total > 0.0
        assert rep.correction > 0.0

    def test_norms_shared_across_n_of_one_observable(self, monkeypatch):
        # the bound at n = 32 from the terms of n = 128 takes every norm from
        # them; without terms, n = 32 integrates its own
        f = FourierFn(0.0, [1.0, 0.5])
        terms = bound_terms("projective", CW, f, 128)
        calls = _record_work(monkeypatch)
        again = projective_d1_bound(CW, f, 32, terms=terms)
        assert calls == []
        alone = projective_d1_bound(CW, FourierFn(0.0, [1.0, 0.5]), 32)
        assert "integrate" in calls
        assert repr(again) == repr(alone)

    def test_norm_independent_of_its_batch(self):
        # a norm gets the same bits alone, in a batch, and among other mates
        coeffs = ([1.0, 0.5, 0.25, 0.125], [0.0, 0.3])
        fresh = lambda: FourierFn(0.0, *coeffs)
        sums = _partial_sums(CW, fresh(), 12)[1:]
        requests = [(kind, s) for s in sums for kind in ("l1", "weighted")]
        alone = [_l1_norms(fresh(), [r])[0] for r in requests]
        assert _l1_norms(fresh(), requests) == alone
        assert _l1_norms(fresh(), requests[::-1]) == alone[::-1]
        mates = [("l1", transfer(CW, cosine(3), 2)), ("weighted", cosine(7))]
        assert _l1_norms(fresh(), mates + requests[5:9] + mates)[2:6] == alone[5:9]

    @pytest.mark.parametrize("spec,coeffs", [(DM, ([0.0, 1.0], [])),
                                             (CW, ([1.0, 0.5], [0.0, 0.3]))],
                             ids=["doubling-cos2", "circle-mixed"])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 256])
    def test_nonadapted_correction_matches_sequential_loop(self, spec, coeffs, n):
        # the tails go to quadrature in chunks of 64; the sum must stop where
        # the one-norm-at-a-time loop stops (a zero tail for the doubling
        # map, m = 233 for this circle-walk observable), on both sides of
        # every chunk edge; the reference integrates each norm alone
        f, ref_f = FourierFn(0.0, *coeffs), FourierFn(0.0, *coeffs)
        sigma2 = long_run_variance(spec, ref_f).sigma2
        sigma = math.sqrt(sigma2)
        first, prev = 0.0, None
        for m in range(1, n + 1):
            tail = resolvent_tail(spec, ref_f, m)
            if tail.is_zero():
                break
            norm = _l1_norms(ref_f, [("weighted", tail)])[0]
            if prev is not None and norm <= 1e-16 * (1.0 + prev):
                break
            first += norm / (sigma * math.sqrt(m))
            prev = norm
        one_plus = product(ref_f, ref_f).fn * (1.0 / sigma2) + constant_fn(1.0)
        sums = _partial_sums(spec, ref_f, n)
        second = sum(_l1_norms(ref_f, [("l1", product(one_plus, sums[m]).fn)])[0] / (2.0 * m)
                     for m in range(1, n + 1))
        assert nonadapted_correction(spec, f, n) == first + second

    def test_circle4_bound_memory(self):
        # the batched norms keep their temporaries small: the bound of the
        # 4-frequency circle-walk observable at n = 256 peaks well below 768 KiB
        f = FourierFn(0.0, [1.0, 0.5, 0.25, 0.125], [0.0, 0.3])
        tracemalloc.start()
        try:
            projective_d1_bound(CW, f, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 768 * 1024


def _record_work(monkeypatch) -> list:
    """Record each transfer, resolvent tail, product and quadrature that
    `bounds` asks for, by name, from now on."""
    from meanclt import bounds, fourier
    calls = []
    for module, name in ((bounds, "transfer"), (bounds, "resolvent_tail"), (bounds, "product"),
                         (bounds, "integrate_unit"), (fourier, "integrate_many")):
        label = "integrate" if name.startswith("integrate") else name
        monkeypatch.setattr(module, name, lambda *args, _label=label, _real=getattr(
            module, name): calls.append(_label) or _real(*args))
    return calls


def _second_moment_report(spec, f, n):
    return second_moment_norms(spec, f, math.isqrt(2 * n))


REUSE_CASES = [
    (DM, ([0.0, 1.0], []), projective_d1_bound),
    (DM, ([0.0, 1.0], []), _second_moment_report),
    (DM, ([1.0], []), martingale_d1_bound),
    (CW, ([1.0], []), projective_d1_bound),
    (CW, ([1.0, 0.5, 0.25, 0.125], [0.0, 0.3]), projective_d1_bound),
]
REUSE_GRID = (64, 256, 1024, 4096, 16384)


class TestReuseAcrossN:
    @pytest.mark.parametrize("spec,coeffs,bound", REUSE_CASES,
                             ids=["doubling-cos2-projective", "doubling-cos2-second-moment",
                                  "doubling-cos1-martingale", "circle-cos1-projective",
                                  "circle4-projective"])
    def test_reports_do_not_depend_on_the_order_of_n(self, spec, coeffs, bound):
        # nothing is kept between calls: the same report for each n alone (a fresh
        # observable), ascending or descending on one observable
        alone = [repr(bound(spec, FourierFn(0.0, *coeffs), n)) for n in REUSE_GRID]
        f = FourierFn(0.0, *coeffs)
        assert [repr(bound(spec, f, n)) for n in REUSE_GRID] == alone
        f = FourierFn(0.0, *coeffs)
        assert [repr(bound(spec, f, n)) for n in REUSE_GRID[::-1]] == alone[::-1]

    @pytest.mark.parametrize("spec,coeffs,bound", REUSE_CASES[:1] + REUSE_CASES[2:],
                             ids=["doubling-cos2-projective", "doubling-cos1-martingale",
                                  "circle-cos1-projective", "circle4-projective"])
    def test_terms_of_the_largest_n_give_each_n_alone(self, spec, coeffs, bound):
        kind = "projective" if bound is projective_d1_bound else "martingale"
        alone = [repr(bound(spec, FourierFn(0.0, *coeffs), n)) for n in REUSE_GRID]
        f = FourierFn(0.0, *coeffs)
        terms = bound_terms(kind, spec, f, REUSE_GRID[-1])
        assert [repr(bound(spec, f, n, terms=terms)) for n in REUSE_GRID] == alone

    @pytest.mark.parametrize("spec,coeffs", [(DM, ([0.0, 1.0], [])),
                                             (CW, ([1.0, 0.5], [0.0, 0.3]))],
                             ids=["doubling-cos2", "circle-mixed"])
    def test_correction_extends_across_chunk_edges(self, spec, coeffs):
        # the terms of n = 256 hold the tail norms across the 64-tail chunk edges
        # and past the stop (m = 233 on the circle); the correction each n reads
        # from them is the one of n alone
        grid = (1, 63, 65, 100, 129, 240, 256)
        alone = [nonadapted_correction(spec, FourierFn(0.0, *coeffs), n) for n in grid]
        f = FourierFn(0.0, *coeffs)
        terms = bound_terms("projective", spec, f, grid[-1])
        assert [projective_d1_bound(spec, f, n, terms=terms).correction for n in grid] == alone

    @pytest.mark.parametrize("kind,spec,f", [("martingale", DM, cosine(1)),
                                             ("projective", DM, cosine(2)),
                                             ("projective", CW, cosine(1))],
                             ids=["doubling-cos1-martingale", "doubling-cos2-projective",
                                  "circle-cos1-projective"])
    def test_pairs_do_not_depend_on_n_max(self, kind, spec, f):
        # the m-th drift pair is the same for every n_max with isqrt(2 n_max) >= m,
        # so drift_pairs may read it from the least such n
        small = bound_terms(kind, spec, f, 8).pairs
        large = bound_terms(kind, spec, f, 98).pairs
        assert len(small) == 4 and len(large) == 14
        assert large[:4] == small

    def test_smaller_n_builds_no_function(self, monkeypatch):
        # the bound at n = 64 from the terms of n = 16384 forms no transfer, tail
        # or product and integrates nothing: it only sums their prefixes
        f = cosine(1)
        terms = bound_terms("projective", CW, f, 16384)
        calls = _record_work(monkeypatch)
        again = projective_d1_bound(CW, f, 64, terms=terms)
        assert calls == []
        assert repr(again) == repr(projective_d1_bound(CW, cosine(1), 64))
        assert {"transfer", "resolvent_tail", "product", "integrate"} <= set(calls)

    def test_mismatched_terms_are_refused(self):
        f = cosine(2)
        terms = bound_terms("projective", DM, f, 64)
        assert (terms.kind, terms.spec, terms.f, terms.tol, terms.n_max) == \
            ("projective", DM, f, _NORM_TOL, 64)
        refused = [lambda: martingale_d1_bound(DM, f, 64, terms=terms),
                   lambda: projective_d1_bound(CW, f, 64, terms=terms),
                   lambda: projective_d1_bound(DM, cosine(2), 64, terms=terms),
                   lambda: projective_d1_bound(DM, f, 64, Tolerance(1e-10, 1e-10, 44), terms),
                   lambda: projective_d1_bound(DM, f, 65, terms=terms)]
        for call in refused:
            with pytest.raises(DomainError, match="bound terms"):
                call()
        assert projective_d1_bound(DM, f, 64, terms=terms) == projective_d1_bound(DM, f, 64)
        iid = iid_rademacher()
        iid_terms = bound_terms("martingale", iid, None, 50)
        assert martingale_d1_bound(iid, None, 50, terms=iid_terms) == \
            martingale_d1_bound(iid, None, 50)
        with pytest.raises(DomainError, match="bound kind"):
            bound_terms("zolotarev", DM, f, 64)

    @pytest.mark.parametrize("call,lacks", [
        (lambda spec: bound_terms("projective", spec, None, 5), "moment summary"),
        (lambda spec: bound_terms("martingale", spec, None, 5), "moment summary"),
        (lambda spec: _partial_sums(spec, None, 3), "FourierFn transfer operator")],
        ids=["projective", "variance", "partial-sums"])
    def test_drift_sums_check_the_observable_first(self, call, lacks):
        # an interval map refuses None as the observable contract says, a chain
        # as a family with no moment summary (the bound terms ask for the
        # moments first) or no FourierFn transfer operator
        with pytest.raises(TypeError, match="^the doubling_map process needs a FourierFn"):
            call(DM)
        chain = FiniteChain(np.full((2, 2), 0.5), values=np.array([-1.0, 2.0]))
        with pytest.raises(NotImplementedError, match=f"has no {lacks}$"):
            call(chain)


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
    return _l1_norms(f, [("l1", total)])[0]


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
        # R_0, R_1 = cos2 and R_2 = cos2 + cos1 are the distinct sums of cos4: each
        # is valued once, and R_3 ... R_9 read the value of R_2
        f = cosine(4)
        sums = _partial_sums(DM, f, 9)
        calls = []
        values = lambda ss: calls.extend(ss) or [s.coeff_l1() for s in ss]
        got = _drift_values(DM, f, 9, None, values)
        assert len(calls) == len({id(s) for s in sums}) == 3
        assert got == [s.coeff_l1() for s in sums[1:]]


class TestVarianceL32:
    def test_vanishes_from_l2(self):
        assert variance_l32_norm(DM, cosine(1), 2) == 0.0
        assert variance_l32_norm(DM, cosine(1), 5) == 0.0

    def test_l1_closed_form(self):
        got = variance_l32_norm(DM, cosine(1), 1)
        assert got == pytest.approx(0.33824968175897076772, abs=1e-9)

    def test_iid(self):
        assert variance_l32_norm(iid_rademacher(), None, 1) == 0.0
        assert variance_l32_norms(iid_rademacher(), None, [1, 2]) == [0.0, 0.0]

    def test_lags_together_match_one_at_a_time(self):
        # an odd-frequency observable is a martingale difference of the
        # doubling map, with E_0(X_l^2) - Var X0 nonzero up to l = 3
        from meanclt.bounds import _NORM_TOL as tol, _variance_compensator
        from meanclt.numerics import integrate_unit
        f = FourierFn(0.0, [1.0, 0.0, 0.4, 0.0, 0.3], [0.0, 0.0, 0.5, 0.0, -0.2])
        want = []
        for l in range(1, 7):
            g = transfer(DM, _variance_compensator(DM, f), l)
            want.append(0.0 if g.is_zero() else
                        integrate_unit(lambda x: np.abs(g.eval(x)) ** 1.5, tol) ** (2.0 / 3.0))
        assert variance_l32_norms(DM, f, range(1, 7)) == want
        assert want[2] > 0.0 and want[3:] == [0.0] * 3


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
            l1, wl1 = drift_pairs("projective", spec, f, m)
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
