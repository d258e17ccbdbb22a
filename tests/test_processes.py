import math

import numpy as np
import pytest

from meanclt.errors import (DivergenceError, DomainError, PreconditionError)
from meanclt.fourier import FourierFn, cosine, sine
from meanclt.numerics import integrate_unit
from meanclt.processes import (CircleWalk, DoublingMap, FiniteChain,
                               SplitReal, iid_gaussian, iid_rademacher, is_martingale,
                               long_run_variance, process_from_dict, resolvent_tail,
                               sample_states, simulate, sqrt2_minus_one, transfer)

DM = DoublingMap()
CW = CircleWalk(sqrt2_minus_one())
A = math.sqrt(2.0) - 1.0


def two_state_chain() -> FiniteChain:
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    return FiniteChain(p, values=np.array([-1.0, 2.0]))


def kernel_average_oracle(f: FourierFn, x: np.ndarray) -> np.ndarray:
    """One transfer step for the doubling chain, from its two inverse branches."""
    return 0.5 * (f.eval(x / 2.0) + f.eval((x + 1.0) / 2.0))


def replay_circle(g, n):
    """Circle-walk kernel by hand: a uniform start, then packed +/-1 step bits."""
    from meanclt.processes import _row_bit_words
    x0 = g.random()
    words = _row_bit_words(g, (n + 63) // 64)
    c, xs = 0, []
    for t in range(n):
        c += 2 * ((int(words[t >> 6]) >> (t & 63)) & 1) - 1
        xs.append(float(cosine(1).eval(np.mod(x0 + c * CW.a.hi + c * CW.a.lo, 1.0))))
    return xs


def replay_chain(g, n):
    """Finite-chain kernel by hand: inverse-cdf draws from pi, then from row P[state]."""
    fc = two_state_chain()
    u = g.random(n + 1)
    state = int(np.searchsorted(np.cumsum(fc.stationary), u[0], side="right"))
    xs = []
    for t in range(1, n + 1):
        state = int((np.cumsum(fc.transition[state]) < u[t]).sum())
        xs.append(float(fc.values[state]))
    return xs


def replay_iid(g, n):
    return list(iid_gaussian(1.5).sampler(g, n))


class TestSplitReal:
    def test_sqrt2_value(self):
        a = sqrt2_minus_one()
        assert a.value == pytest.approx(A, abs=1e-15)
        assert abs(a.lo) < 1e-16
        # the pair satisfies a^2 + 2a = 1 far beyond double precision
        fr = a.as_fraction()
        assert abs(float(fr * fr + 2 * fr - 1)) < 1e-30


class TestTransfer:
    def test_doubling_halves_frequencies(self):
        out = transfer(DM, cosine(2), 1)
        assert out.allclose(cosine(1), 1e-15)

    def test_doubling_kills_odd(self):
        assert transfer(DM, cosine(1), 1).is_zero()

    def test_doubling_matches_branch_average(self):
        gen = np.random.default_rng(0)
        f = FourierFn(0.0, gen.normal(size=5), gen.normal(size=5))
        xs = np.linspace(0, 1, 301, endpoint=False)
        out = transfer(DM, f, 1)
        assert np.allclose(out.eval(xs), kernel_average_oracle(f, xs), atol=1e-12)

    def test_doubling_matches_index_loop(self):
        # reference: copy frequency j * 2^steps to j with Python integers, which
        # cannot overflow; bound series call transfer with steps up to sqrt(2n)
        gen = np.random.default_rng(3)
        f = FourierFn(0.2, gen.normal(size=300), gen.normal(size=300))
        for steps in (1, 2, 7, 8, 63, 64, 181):
            step = 1 << steps
            idx = [j * step - 1 for j in range(1, f.max_freq // step + 1)]
            expect = FourierFn(0.2, f.cos_coeffs[idx], f.sin_coeffs[idx])
            assert transfer(DM, f, steps).allclose(expect, 0.0)

    def test_circle_multiplier(self):
        out = transfer(CW, sine(1), 1)
        assert out.sin_coeffs[0] == pytest.approx(math.cos(2 * math.pi * A), abs=1e-14)
        assert abs(out.cos_coeffs[0]) == 0.0

    def test_semigroup_exact(self):
        gen = np.random.default_rng(5)
        f = FourierFn(0.3, gen.normal(size=8), gen.normal(size=8))
        lhs = transfer(DM, f, 3)
        rhs = transfer(DM, transfer(DM, f, 2), 1)
        assert lhs.allclose(rhs)

    def test_contraction_on_grid(self):
        gen = np.random.default_rng(7)
        for spec in (DM, CW):
            f = FourierFn(0.1, gen.normal(size=6), gen.normal(size=6))
            xs = np.arange(10_000) / 10_000
            for m in (1, 3):
                assert np.abs(transfer(spec, f, m).eval(xs)).max() \
                    <= np.abs(f.eval(xs)).max() + 1e-10

    def test_lebesgue_invariance(self):
        gen = np.random.default_rng(8)
        for spec in (DM, CW):
            f = FourierFn(0.7, gen.normal(size=5), gen.normal(size=5))
            before = integrate_unit(f.eval)
            after = integrate_unit(transfer(spec, f, 1).eval)
            assert after == pytest.approx(before, abs=1e-10)

    def test_iid_collapses_to_mean(self):
        out = transfer(iid_rademacher(), FourierFn(0.4, [1.0], [2.0]), 1)
        assert out.max_freq == 0 and out.constant == pytest.approx(0.4)

    def test_finite_chain_vector(self):
        fc = two_state_chain()
        v = fc.values - fc.stationary @ fc.values
        out = transfer(fc, v, 2)
        expect = np.linalg.matrix_power(fc.transition, 2) @ v
        assert np.allclose(out, expect)

    def test_finite_chain_rejects_fourier(self):
        with pytest.raises(TypeError):
            transfer(two_state_chain(), cosine(1), 1)
        with pytest.raises(TypeError):
            long_run_variance(two_state_chain(), cosine(1))


class TestResolventTail:
    def test_doubling_mds_tail_empty(self):
        assert resolvent_tail(DM, cosine(1), 1).is_zero()

    def test_doubling_single_term(self):
        out = resolvent_tail(DM, cosine(2), 1)
        assert out.allclose(cosine(1), 1e-15)

    def test_circle_geometric_series(self):
        out = resolvent_tail(CW, cosine(1), 1)
        c = math.cos(2 * math.pi * A)
        # numeric oracle: partial geometric sums of the transfer multipliers
        partial = sum(c ** l for l in range(1, 260))
        assert out.cos_coeffs[0] == pytest.approx(partial, abs=1e-12)
        assert out.cos_coeffs[0] == pytest.approx(c / (1.0 - c), abs=1e-14)

    def test_resonance_divergence(self):
        # passes the small-denominator guard yet resonates at frequency 3
        walk = CircleWalk(SplitReal(1.0 / 3.0 + 1e-14))
        with pytest.raises(DivergenceError):
            resolvent_tail(walk, cosine(3), 1)

    def test_requires_centered(self):
        with pytest.raises(PreconditionError):
            resolvent_tail(DM, FourierFn(1.0, [1.0], [0.0]), 1)


class TestLongRunVariance:
    def test_iid(self):
        assert long_run_variance(iid_rademacher()).sigma2 == 1.0

    def test_circle_cotangent(self):
        got = long_run_variance(CW, cosine(1)).sigma2
        assert got == pytest.approx(0.5 / math.tan(math.pi * A) ** 2, rel=1e-13)

    def test_doubling_mds(self):
        lrv = long_run_variance(DM, cosine(1))
        assert lrv.sigma2 == pytest.approx(0.5)
        assert lrv.covariances == (0.5,)

    def test_finite_chain_matches_simulation(self):
        fc = two_state_chain()
        lrv = long_run_variance(fc)
        ens = simulate(fc, None, 2000, 4000, seed=11)
        var_hat = ens.partial_sums[:, 0].var() / 2000
        assert var_hat == pytest.approx(lrv.sigma2, rel=0.1)

    def test_resonance_detected(self):
        walk = CircleWalk(SplitReal(1.0 / 3.0 + 1e-14))
        with pytest.raises(DivergenceError):
            long_run_variance(walk, cosine(3))

    def test_reducible_chain_rejected(self):
        # eigenvalue 1 is double, so pi is not unique and the fundamental matrix is singular
        with pytest.raises(DomainError, match="reducible"):
            FiniteChain(np.eye(2), [1.0, -1.0])
        with pytest.raises(DomainError, match="reducible"):
            FiniteChain(np.eye(2), [1.0, -1.0], stationary=np.array([0.5, 0.5]))


class TestMartingale:
    def test_doubling_odd_frequency(self):
        assert is_martingale(DM, cosine(1))
        assert is_martingale(DM, sine(3))

    def test_doubling_even_frequency(self):
        assert not is_martingale(DM, cosine(2))

    def test_circle_not_martingale(self):
        assert not is_martingale(CW, cosine(1))


class TestIrrationalityGuard:
    def test_rational_rejected(self):
        for bad in (0.5, 0.25, 2.0 / 3.0):
            with pytest.raises(DomainError):
                CircleWalk(SplitReal(bad))

    def test_near_rational_rejected(self):
        with pytest.raises(DomainError):
            CircleWalk(SplitReal(1.0 / 3.0 + 1e-16))

    def test_sqrt2_accepted(self):
        CircleWalk(sqrt2_minus_one())


class TestSimulate:
    def test_rademacher_single_step(self):
        ens = simulate(iid_rademacher(), None, 1, 64, seed=3)
        assert set(np.unique(ens.partial_sums)) <= {-1.0, 1.0}

    def test_same_seed_identical(self):
        kw = dict(n=128, reps=300, checkpoints=[32, 128], seed=5)
        a = simulate(DM, cosine(1), **kw)
        b = simulate(DM, cosine(1), **kw)
        assert np.array_equal(a.partial_sums, b.partial_sums)

    def test_block_size_invariance(self):
        a = simulate(CW, cosine(1), 100, 257, seed=6, block_size=4096)
        b = simulate(CW, cosine(1), 100, 257, seed=6, block_size=31)
        assert np.array_equal(a.partial_sums, b.partial_sums)

    def test_doubling_mds_mean_and_variance(self):
        reps, n = 10_000, 1000
        ens = simulate(DM, cosine(1), n, reps, seed=9)
        s = ens.normalized(n)
        sigma = math.sqrt(0.5)
        assert abs(s.mean()) < 4 * sigma / math.sqrt(reps) * 1.1
        assert s.var() == pytest.approx(0.5, rel=0.06)

    def test_kernel_consistency_one_step(self):
        # empirical E(f(xi_1) | xi_0 = x) against the exact transfer image
        f = cosine(2)
        kf = transfer(DM, f, 1)
        gen = np.random.default_rng(123)
        reps = 100_000
        for x in np.linspace(0.025, 0.975, 20):
            b = gen.integers(0, 2, reps)
            vals = f.eval((x + b) / 2.0)
            se = vals.std() / math.sqrt(reps)
            assert abs(vals.mean() - kf.eval(float(x))) < 4 * se + 1e-12

    def test_stationarity_ks(self):
        reps = 4000
        crit = 1.63 / math.sqrt(reps)
        for spec in (DM, CW):
            for step in (0, 10, 100):
                xs = np.sort(sample_states(spec, step, reps, seed=21))
                grid = np.arange(1, reps + 1) / reps
                ks = max(np.abs(grid - xs).max(), np.abs(grid - 1.0 / reps - xs).max())
                assert ks < crit, (spec.label, step, ks)

    def test_checkpoint_validation(self):
        with pytest.raises(DomainError):
            simulate(DM, cosine(1), 10, 5, checkpoints=[0, 5], seed=0)
        with pytest.raises(DomainError):
            simulate(DM, cosine(1), 10, 5, checkpoints=[20], seed=0)

    def test_doubling_fixed_point_replay(self):
        # bit-exact contract: row r consumes substream(seed, r) as one word for
        # the initial state followed by packed step bits, low bit first
        from meanclt.numerics import substream
        from meanclt.processes import _row_bit_words
        f = cosine(1)
        n, reps, seed = 75, 6, 314
        ens = simulate(DM, f, n, reps, checkpoints=[n], seed=seed)
        for r in range(reps):
            g = substream(seed, r).generator()
            w = int(_row_bit_words(g, 1)[0])
            words = _row_bit_words(g, (n + 63) // 64)
            s = 0.0
            for t in range(n):
                bit = (int(words[t >> 6]) >> (t & 63)) & 1
                w = (w >> 1) | (bit << 63)
                s += float(f.eval(np.float64(w) * 2.0 ** -64))
            assert s == pytest.approx(float(ens.partial_sums[r, 0]), abs=1e-12)

    @pytest.mark.parametrize("spec, f, replay", [
        (CW, cosine(1), replay_circle),
        (two_state_chain(), None, replay_chain),
        (iid_gaussian(1.5), None, replay_iid)], ids=["circle", "chain", "iid"])
    def test_kernel_replay(self, spec, f, replay):
        # row r consumes substream(seed, r) only, in the order replayed here
        from meanclt.numerics import substream
        n, reps, seed = 75, 6, 314
        ens = simulate(spec, f, n, reps, checkpoints=[1, 40, n], seed=seed, block_size=4)
        for r in range(reps):
            partial = np.cumsum(replay(substream(seed, r).generator(), n))
            assert np.allclose(partial[[0, 39, n - 1]], ens.partial_sums[r], rtol=0, atol=1e-12)

    def test_finite_chain_states(self):
        fc = two_state_chain()
        ens = simulate(fc, None, 50, 200, checkpoints=[1, 50], seed=2)
        assert ens.partial_sums.shape == (200, 2)
        assert set(np.unique(ens.partial_sums[:, 0])) <= {-1.0, 2.0}

    def test_column_lookup(self):
        ens = simulate(DM, cosine(1), 64, 50, checkpoints=[16, 64], seed=1)
        assert np.array_equal(ens.column(16), ens.partial_sums[:, 0])
        with pytest.raises(DomainError):
            ens.column(32)


class TestSerialization:
    def test_round_trip(self):
        for spec in (DM, CW, iid_rademacher(), two_state_chain()):
            back = process_from_dict(spec.to_dict())
            assert type(back) is type(spec)

    def test_sqrt2_tag(self):
        spec = process_from_dict({"type": "circle_walk", "a": "sqrt2_minus_one"})
        assert isinstance(spec, CircleWalk)
        assert spec.a.lo != 0.0
