import math

import numpy as np
import pytest

from meanclt.coefficients import (AlphaSeq, JointPmf, QuantileSeq, alpha_exact,
                                  alpha_inverse, alpha_tabulation,
                                  covariance_bound_check, dispersion_check,
                                  frac_part_sum, kernel_decay_sum, mixing_integral,
                                  monotone_difference_bound_check, quantile_from_sample,
                                  theta_coeff, weighted_tail_integral)
from meanclt.errors import DomainError, PrecisionError, ResourceError
from meanclt.fourier import FourierFn, cosine
from meanclt.processes import (CircleWalk, DoublingMap, FiniteChain, iid_rademacher,
                               sqrt2_minus_one)
from meanclt.wasserstein import EmpiricalSample, FinitePmf

DM = DoublingMap()
CW = CircleWalk(sqrt2_minus_one())


def iid_two_state() -> FiniteChain:
    p = np.array([[0.3, 0.7], [0.3, 0.7]])
    return FiniteChain(p, values=np.array([-1.0, 1.0]))


class TestQuantileSeq:
    def test_constant_sample(self):
        q = quantile_from_sample(EmpiricalSample([1.0, 1.0, 1.0]))
        assert q.value(0.1) == 1.0 and q.value(0.9) == 1.0

    def test_two_point(self):
        q = quantile_from_sample(EmpiricalSample([0.0, 2.0]))
        assert q.value(0.25) == 2.0
        assert q.value(0.75) == 0.0

    def test_nonincreasing(self):
        gen = np.random.default_rng(0)
        q = quantile_from_sample(EmpiricalSample(np.abs(gen.normal(size=40))))
        us = np.linspace(0.01, 0.99, 197)
        vals = np.asarray(q.value(us))
        assert np.all(np.diff(vals) <= 1e-15)

    def test_rejects_negative_sample(self):
        with pytest.raises(DomainError):
            quantile_from_sample(EmpiricalSample([-1.0, 1.0]))

    def test_integral_pow_exact(self):
        q = quantile_from_sample(EmpiricalSample([0.0, 2.0]))
        # Q = 2 on (0, 1/2), 0 on (1/2, 1): int_0^t Q^3 = 8 min(t, 1/2)
        assert q.integral_pow(3, 0.25) == pytest.approx(2.0)
        assert q.integral_pow(3, 0.75) == pytest.approx(4.0)


class TestAlphaSeq:
    def test_inverse_counts(self):
        a = AlphaSeq(np.array([1.0, 0.5, 0.25, 0.125]))
        assert alpha_inverse(a, 0.3) == 2

    def test_inverse_above_alpha0(self):
        a = AlphaSeq(np.array([0.5, 0.25]))
        assert alpha_inverse(a, 0.6) == 0

    def test_inverse_zero_sequence(self):
        a = AlphaSeq(np.zeros(5))
        for u in (0.1, 0.5, 0.9):
            assert alpha_inverse(a, u) == 0

    def test_clipping_warns(self):
        with pytest.warns(UserWarning):
            a = AlphaSeq(np.array([1.5, 0.2]))
        assert a[0] == 1.0

    def test_monotonicity_enforced(self):
        with pytest.raises(DomainError):
            AlphaSeq(np.array([0.25, 0.5]))


class TestMixingIntegral:
    def test_zero_alpha(self):
        a = AlphaSeq(np.zeros(10))
        rep = mixing_integral(a, QuantileSeq.constant(1.0), power=3, weight=1, kmax=9)
        assert rep.series_value == 0.0

    def test_geometric_closed_form(self):
        kmax = 30
        a = AlphaSeq(np.array([2.0 ** -k for k in range(kmax + 1)]))
        rep = mixing_integral(a, QuantileSeq.constant(1.0), power=3, weight=1, kmax=kmax)
        assert rep.series_value == pytest.approx(2.0 - (kmax + 2) / 2.0 ** kmax, abs=1e-12)
        assert rep.last_decade_ratio < 1.01

    def test_homogeneity_in_q(self):
        a = AlphaSeq(np.array([2.0 ** -k for k in range(12)]))
        base = mixing_integral(a, QuantileSeq.constant(1.0), power=3, weight=0, kmax=10)
        scaled = mixing_integral(a, QuantileSeq.constant(2.5), power=3, weight=0, kmax=10)
        assert scaled.series_value == pytest.approx(2.5 ** 3 * base.series_value, rel=1e-12)

    def test_fubini_agreement_random(self):
        gen = np.random.default_rng(5)
        for _ in range(25):
            vals = np.sort(gen.uniform(0, 1, 8))[::-1]
            a = AlphaSeq(vals)
            q = quantile_from_sample(EmpiricalSample(np.abs(gen.normal(size=9))))
            rep = mixing_integral(a, q, power=3, weight=1, kmax=7)
            assert rep.integral_form == pytest.approx(rep.series_value, abs=1e-9)
            direct = weighted_tail_integral(a, q, power=3, weight=1, kmax=7)
            assert direct == pytest.approx(rep.series_value, abs=1e-9)


class TestTheta:
    def test_iid_zero(self):
        for (i, j) in ((0, 1), (1, 2), (0, 3), (2, 4)):
            assert theta_coeff(iid_rademacher(), None, i, j, 2, 3) == 0.0

    def test_doubling_mds_zero(self):
        assert theta_coeff(DM, cosine(1), 0, 1, 1, 4) == 0.0

    def test_doubling_nonadapted_value(self):
        got = theta_coeff(DM, cosine(2), 0, 1, 1, 4)
        assert got == pytest.approx(2.0 / math.pi, abs=1e-9)

    def test_window_monotone(self):
        vals = [theta_coeff(DM, cosine(2), 0, 2, 1, w) for w in (0, 1, 2, 4)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_past_coordinates_doubling(self):
        # tuple (0; 1): Z = f(x) * (Kf)(x) with Kf = cos(2 pi x) for f = cos(4 pi x);
        # window 0 pins the single tuple, so the value is int |cos 2pix cos 4pix|
        got = theta_coeff(DM, cosine(2), 1, 2, 1, 0)
        grid = (np.arange(2_000_000) + 0.5) / 2_000_000
        oracle = float(np.abs(np.cos(2 * np.pi * grid) * np.cos(4 * np.pi * grid)).mean())
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_circle_walk_single_past(self):
        # tuple (0; 1): Z = f(x) * c f(x), c = cos(2 pi a) -> |c|/2
        got = theta_coeff(CW, cosine(1), 1, 2, 1, 0)
        c = abs(math.cos(2 * math.pi * (math.sqrt(2.0) - 1.0)))
        assert got == pytest.approx(c / 2.0, abs=1e-9)

    def test_circle_walk_two_past(self):
        # the tied-past tuple dominates: int |f^2 * Kf| = |c| * 4/(3 pi)
        got = theta_coeff(CW, cosine(1), 2, 3, 1, 1)
        c = abs(math.cos(2 * math.pi * (math.sqrt(2.0) - 1.0)))
        assert got == pytest.approx(c * 4.0 / (3.0 * math.pi), abs=1e-8)

    def test_circle_walk_binomial_kernel_identity(self):
        # the +/-a binomial average used for pointwise conditioning must agree
        # with the coefficient-space operator
        from meanclt.coefficients import _binomial_weights
        from meanclt.fourier import FourierFn
        from meanclt.processes import transfer
        gen = np.random.default_rng(3)
        f = FourierFn(0.2, gen.normal(size=3), gen.normal(size=3))
        xs = np.linspace(0, 1, 101, endpoint=False)
        for m in (0, 1, 2, 5):
            w, off = _binomial_weights(m)
            pointwise = sum(wt * f.eval(np.mod(xs + o * CW.a.value, 1.0))
                            for wt, o in zip(w, off))
            assert np.allclose(pointwise, transfer(CW, f, m).eval(xs), atol=1e-12)

    @pytest.mark.parametrize("f", [cosine(1), FourierFn(0.0, [1.0, 0.5], [0.0, 0.3])],
                             ids=["cos1", "cos1-cos2-sin2"])
    @pytest.mark.parametrize("i,past_gaps,gaps", [(1, (), (1,)), (1, (), (2, 1)),
                                                  (2, (1,), (1,)), (2, (3,), (2, 2)),
                                                  (3, (2, 1), (1,)), (3, (0, 2), (1, 1))])
    def test_circle_walk_shifts_at_once_match_per_shift(self, f, i, past_gaps, gaps):
        # the circle-walk theta integrand, shift by shift as a reference
        from meanclt.coefficients import _binomial_weights, _map_theta_norm, _nested_future_fn
        from meanclt.numerics import Tolerance, integrate_unit
        tol = Tolerance(1e-10, 1e-10, 40)
        h, _ = _nested_future_fn(CW, f, gaps, cap=1 << 14)
        h0 = h.shift_constant(-h.constant)
        a_val = CW.a.value

        def per_shift(x, t=0):
            if t == len(past_gaps):
                return np.abs(f.eval(x)) * np.abs(h0.eval(x))
            w, off = _binomial_weights(past_gaps[t])
            out = np.zeros_like(x)
            for wt, o in zip(w, off):
                out += wt * per_shift(np.mod(x + o * a_val, 1.0), t + 1)
            return np.abs(f.eval(x)) * out

        assert _map_theta_norm(CW, f, i, tol, past_gaps, gaps) == integrate_unit(per_shift, tol)

    def test_finite_chain_exact(self):
        fc = iid_two_state()
        for (i, j) in ((0, 1), (1, 2)):
            assert theta_coeff(fc, None, i, j, 1, 3) == pytest.approx(0.0, abs=1e-14)

    def test_finite_chain_vs_path_enumeration(self):
        import itertools
        p = np.array([[0.8, 0.2], [0.3, 0.7]])
        fc = FiniteChain(p, values=np.array([-1.0, 2.0]))
        pi = fc.stationary
        vc = fc.values - float(pi @ fc.values)
        window = 2

        def paths(s, steps):
            # every state path of the given length from s, with its probability
            for path in itertools.product(range(2), repeat=steps):
                prob, prev = 1.0, s
                for t in path:
                    prob *= p[prev, t]
                    prev = t
                yield (s,) + path, prob

        def tuple_norm(past, k):
            # E|prod_t X_{past_t} (E(X_k | past) - E X_k)|, brute force over
            # every state path from time past[0] to k
            cond = np.zeros(2)
            for s in range(2):
                for path, prob in paths(s, k - past[-1]):
                    cond[s] += prob * vc[path[-1]]
            overall = float(pi @ cond)
            total = 0.0
            for s in range(2):
                for path, prob in paths(s, past[-1] - past[0]):
                    states = [path[t - past[0]] for t in past]
                    total += (pi[s] * prob * abs(np.prod(vc[states]))
                              * abs(cond[states[-1]] - overall))
            return total

        oracle = max(tuple_norm((0,), 1 + e) for e in range(window + 1))
        got = theta_coeff(fc, None, 1, 2, 1, window)
        assert got == pytest.approx(oracle, abs=1e-12)
        # two past coordinates: every 0 <= k1 <= k2 <= window, k3 - k2 in gap + [0, window]
        gap = 1
        oracle = max(tuple_norm((k1, k2), k2 + gap + e)
                     for k1 in range(window + 1) for k2 in range(k1, window + 1)
                     for e in range(window + 1))
        got = theta_coeff(fc, None, 2, 3, gap, window)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_finite_chain_long_gap(self):
        # P^gap is built by repeated products; a gap beyond the recursion
        # limit must still work, and the chain has mixed by then
        fc = FiniteChain(np.array([[0.8, 0.2], [0.3, 0.7]]), values=np.array([-1.0, 2.0]))
        assert theta_coeff(fc, None, 0, 1, 1500, 0) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            theta_coeff(DM, cosine(1), 2, 2, 1, 3)
        with pytest.raises(DomainError):
            theta_coeff(DM, cosine(1), 0, 1, 1, -1)


class TestAlphaExact:
    def test_single_step_quarter(self):
        assert alpha_exact(DM, (1,), grid=10) == pytest.approx(0.25, abs=1e-15)

    def test_dyadic_upper_bound(self):
        for n in range(1, 9):
            v = alpha_exact(DM, (n,), grid=n + 1)
            assert v <= 2.0 ** -n + 1e-12
            assert v == pytest.approx(2.0 ** -(n + 1), abs=1e-12)

    def test_pairs_bounded(self):
        for n in (1, 2, 4, 6):
            for second in (n + 1, n + 2):
                v = alpha_exact(DM, (n, second), grid=3)
                assert v <= 2.0 ** -n + 1e-12

    def test_triple_bounded(self):
        v = alpha_exact(DM, (2, 3, 4), grid=2)
        assert v <= 0.25 + 1e-12

    def test_iid_chain_zero(self):
        assert alpha_exact(iid_two_state(), (1,), grid=4) == 0.0
        assert alpha_exact(iid_rademacher(), (3,)) == 0.0

    def test_dependent_chain_positive(self):
        p = np.array([[0.95, 0.05], [0.05, 0.95]])
        fc = FiniteChain(p, values=np.array([0.0, 1.0]))
        v1 = alpha_exact(fc, (1,), grid=4)
        v3 = alpha_exact(fc, (3,), grid=4)
        assert v1 > v3 > 0.0

    def test_resource_guard(self):
        with pytest.raises(ResourceError):
            alpha_exact(DM, (15,), grid=4)

    def test_finite_chain_guard_counts_thresholds(self):
        # a finite chain's thresholds are exact, so grid must not enter its guard
        fc = FiniteChain(np.array([[0.95, 0.05], [0.05, 0.95]]), values=np.array([0.0, 1.0]))
        assert alpha_exact(fc, (1, 2, 3), grid=28) == alpha_exact(fc, (1, 2, 3), grid=27) > 0.0
        # 127 thresholds: three indices make 127^3 > 2^20 tuples, one makes 127
        gen = np.random.default_rng(4)
        p = gen.uniform(0.5, 1.0, (128, 128))
        big = FiniteChain(p / p.sum(axis=1, keepdims=True), values=np.arange(128.0))
        with pytest.raises(ResourceError):
            alpha_exact(big, (1, 2, 3), grid=1)
        assert 0.0 <= alpha_exact(big, (1,), grid=1) <= 1.0

    def test_never_exceeds_one(self):
        assert alpha_exact(DM, (1, 2), grid=4) <= 1.0

    def test_tabulation(self):
        tab = alpha_tabulation(DM, 4, grid=6)
        assert tab[0] == 0.5
        assert tab[1] == pytest.approx(0.25)
        assert np.all(np.diff(tab.values) <= 0.0)


class TestCovarianceBound:
    def test_rademacher_equality(self):
        j = JointPmf(np.array([[-1.0, -1.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        rep = covariance_bound_check(j)
        assert rep.lhs == 1.0
        assert rep.alpha == pytest.approx(0.25)
        assert rep.rhs == pytest.approx(1.0, abs=1e-14)
        assert rep.holds

    def test_independent_zero(self):
        j = JointPmf(np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]),
                     np.full(4, 0.25))
        rep = covariance_bound_check(j)
        assert rep.lhs == 0.0 and rep.alpha == 0.0 and rep.rhs == 0.0

    def test_odd_symmetric_triple(self):
        j = JointPmf(np.array([[-1.0] * 3, [1.0] * 3]), np.array([0.5, 0.5]))
        rep = covariance_bound_check(j)
        assert rep.lhs == pytest.approx(0.0, abs=1e-15)
        assert rep.holds

    def test_conditional_dominates_unconditional(self):
        gen = np.random.default_rng(17)
        for _ in range(20):
            pts = np.round(gen.normal(0, 1, (5, 2)), 1)
            pts[:, 0] = np.round(pts[:, 0] * 2) / 2
            try:
                j = JointPmf(pts, gen.dirichlet(np.ones(5)))
            except DomainError:
                continue
            uncond = covariance_bound_check(j).alpha
            cond = covariance_bound_check(j, conditioning=0).alpha
            assert uncond <= cond + 1e-12

    def test_fuzz_holds(self):
        gen = np.random.default_rng(99)
        for _ in range(200):
            k = int(gen.integers(2, 4))
            npts = int(gen.integers(2, 8))
            pts = np.round(gen.normal(0, 1.2, (npts, k)), 1)
            try:
                j = JointPmf(pts, gen.dirichlet(np.ones(npts)))
            except DomainError:
                continue
            assert covariance_bound_check(j).holds


class TestTailQuantileSteps:
    def test_matches_the_definition_on_random_laws(self):
        from meanclt.coefficients import _step_values, _tail_quantile_steps
        gen = np.random.default_rng(8)
        pool = np.array([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])
        for _ in range(200):
            values = gen.choice(pool, size=int(gen.integers(1, 9)))  # ties and +-0.0
            # multiples of 1/16, often zero: every tail sum is exact, so the
            # breakpoints themselves can be checked
            probs = gen.multinomial(16, gen.dirichlet(np.ones(values.size))) / 16.0
            edges, vals = _tail_quantile_steps(values, probs)
            us = np.concatenate([edges[:-1], 0.5 * (edges[:-1] + edges[1:]), gen.random(8)])
            for u, q in zip(us, _step_values(edges, vals, us)):
                assert q == min(v for v in values if probs[values > v].sum() <= u)

    def test_product_integral_matches_the_interval_loop(self):
        from meanclt.coefficients import _product_step_integral, _tail_quantile_steps
        gen = np.random.default_rng(9)
        for _ in range(100):
            steps = [_tail_quantile_steps(np.round(gen.normal(0, 1, 4), 1),
                                          gen.dirichlet(np.ones(4))) for _ in range(3)]
            upper = float(gen.uniform(0.0, 0.5))
            edges = np.unique(np.concatenate([e for e, _ in steps] + [[0.0, upper]]))
            edges = edges[edges <= upper]
            total = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                prod = 1.0
                for e, v in steps:
                    prod *= float(v[np.searchsorted(e, 0.5 * (lo + hi), side="right") - 1])
                total += prod * (hi - lo)
            assert _product_step_integral(steps, upper) == total

    def test_marginal_drops_zero_probability_points(self):
        j = JointPmf(np.array([[0.0, 1.0], [2.0, 1.0], [5.0, 3.0]]),
                     np.array([0.5, 0.5, 0.0]))
        m = j.marginal(0)
        assert m.atoms.tolist() == [0.0, 2.0] and m.probs.tolist() == [0.5, 0.5]
        assert j.marginal(1).atoms.tolist() == [1.0]


class TestDispersion:
    def test_rademacher_equalities(self):
        assert dispersion_check(FinitePmf([-1.0, 1.0], [0.5, 0.5]))

    def test_point_mass(self):
        assert dispersion_check(FinitePmf([0.0], [1.0]))

    def test_shift_invariance_of_dispersion(self):
        from meanclt.coefficients import _dispersion_steps
        base = FinitePmf([-1.0, 0.0, 2.0], [0.3, 0.4, 0.3])
        shifted = FinitePmf([9.0, 10.0, 12.0], [0.3, 0.4, 0.3])
        eb, vb = _dispersion_steps(base)
        es, vs = _dispersion_steps(shifted)
        assert np.allclose(eb, es) and np.allclose(vb, vs)

    def test_random_laws(self):
        gen = np.random.default_rng(31)
        for _ in range(40):
            npts = int(gen.integers(1, 7))
            atoms = np.unique(np.round(gen.normal(0, 2, npts), 2))
            probs = gen.dirichlet(np.ones(atoms.size))
            assert dispersion_check(FinitePmf(atoms, probs))


class TestMonotoneDifference:
    def test_identity_transforms_match_covariance(self):
        j = JointPmf(np.array([[-1.0, -1.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        ident = [(lambda x: x, lambda x: np.zeros_like(x))] * 2
        rep = monotone_difference_bound_check(j, ident)
        assert rep.lhs == 1.0
        assert rep.holds

    def test_fuzz(self):
        gen = np.random.default_rng(55)
        for _ in range(100):
            k = int(gen.integers(2, 4))
            npts = int(gen.integers(2, 6))
            pts = np.round(gen.normal(0, 1, (npts, k)), 1)
            try:
                j = JointPmf(pts, gen.dirichlet(np.ones(npts)))
            except DomainError:
                continue
            transforms = []
            for _c in range(k):
                s1, s2 = gen.uniform(0, 2, 2)
                kink = float(gen.normal())
                transforms.append((lambda x, s=s1, c=kink: s * x + np.maximum(x - c, 0.0),
                                   lambda x, s=s2: s * x))
            assert monotone_difference_bound_check(j, transforms).holds


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

    def test_precision_guard(self):
        from meanclt.processes import SplitReal
        near = SplitReal(1.0 / 3.0 + 3e-15)  # {3a} = 9e-15 below the 1e-14 floor
        with pytest.raises(PrecisionError):
            frac_part_sum(near, 1, 2)

    def test_octave_domain(self):
        with pytest.raises(DomainError):
            frac_part_sum(sqrt2_minus_one(), 21, 2)


class TestKernelDecay:
    def test_zeta_at_n0(self):
        out = kernel_decay_sum(sqrt2_minus_one(), 5.0, 0, 1000)
        assert out.value + out.tail_bound == pytest.approx(2.0738555102867398527, abs=1e-6)
        assert out.value == pytest.approx(2.0738555102867398527, abs=1e-9)

    def test_nonincreasing_in_n(self):
        a = sqrt2_minus_one()
        vals = [kernel_decay_sum(a, 8.0, n, 100).value for n in (0, 1, 5, 20, 100)]
        assert all(b <= a_ + 1e-15 for a_, b in zip(vals, vals[1:]))

    def test_weighted_series_converges(self):
        a = sqrt2_minus_one()
        partial = 0.0
        partials = []
        for n in range(1, 1001):
            partial += n * kernel_decay_sum(a, 8.0, n, 100).value
            partials.append(partial)
        assert partials[-1] / partials[99] < 1.01

    def test_kmax_precondition(self):
        with pytest.raises(DomainError):
            kernel_decay_sum(sqrt2_minus_one(), 5.0, 0, 100)
