import math
from fractions import Fraction

import numpy as np
import pytest

from meanclt.errors import (DivergenceError, DomainError, PreconditionError)
from meanclt.fourier import FourierFn, cosine, sine
from meanclt.numerics import integrate_unit
from meanclt.processes import (_BAND_TAIL, _CHUNK_WORDS, CircleWalk, DoublingMap, FiniteChain,
                               SplitReal, _draw_bit_paths, _exp_i_tau_f, characteristic,
                               exact_frac, iid_gaussian, iid_rademacher, is_martingale,
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


def row_bit_words(g, n_words):
    """n_words full-range uint64 draws through Generator.integers: the words
    the interval maps take, one raw word each."""
    return g.integers(0, (1 << 64) - 1, size=n_words, dtype=np.uint64, endpoint=True)


def step_bits(words, n):
    return [(int(words[t >> 6]) >> (t & 63)) & 1 for t in range(n)]


def circle_start_and_walk(g, n):
    """A uniform start x0, then the walk k_1..k_n of packed +/-1 step bits."""
    x0 = g.random()
    return x0, np.cumsum(2 * np.array(step_bits(row_bit_words(g, (n + 63) // 64), n)) - 1)


def replay_circle(g, n, f=cosine(1)):
    """Circle-walk kernel by hand: f(x0 + k a) per frequency j by the angle-sum
    rule on (cos, sin)(2 pi j x0) and on tables of (cos, sin)(2 pi {j k a}),
    |k| <= n, built from exact_frac."""
    x0, k = circle_start_and_walk(g, n)
    xs = np.full(n, f.constant)
    for j in range(1, f.max_freq + 1):
        a, b = f.cos_coeffs[j - 1], f.sin_coeffs[j - 1]
        if a == 0.0 and b == 0.0:
            continue
        th = 2.0 * math.pi * np.array([exact_frac(CW.a, j * i) for i in range(-n, n + 1)])
        c, s = np.cos(th)[n + k], np.sin(th)[n + k]
        th0 = (2.0 * math.pi * j) * np.array([x0])
        cx, sx = np.cos(th0)[0], np.sin(th0)[0]
        if a != 0.0:
            xs = xs + a * (cx * c - sx * s)
        if b != 0.0:
            xs = xs + b * (sx * c + cx * s)
    return xs


def replay_circle_split(g, n, f=cosine(1)):
    """The circle-walk kernel before the phase tables: f at x0 + k*a.hi + k*a.lo
    mod 1, whose rounding grows with ulp(k*a)."""
    x0, k = circle_start_and_walk(g, n)
    return f.eval(np.mod(x0 + k * CW.a.hi + k * CW.a.lo, 1.0))


class FixedWords:
    """A stand-in generator whose raw words are `head`, then `fill` for ever."""

    def __init__(self, head, fill):
        self.bit_generator, self.head, self.fill = self, head, fill

    def random_raw(self, size):
        out = np.full(size, self.fill, dtype=np.uint64)
        if self.head is not None:
            out[0], self.head = self.head, None
        return out


class CountingGenerator:
    """Wraps a Generator's bit generator and counts its random_raw calls."""

    def __init__(self, g):
        self.bit_generator, self.raw, self.calls = self, g.bit_generator, 0

    def random_raw(self, size):
        self.calls += 1
        return self.raw.random_raw(size)


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
    return iid_gaussian(1.5).sampler(g, n)


class TestSplitReal:
    def test_sqrt2_value(self):
        a = sqrt2_minus_one()
        assert a.value == pytest.approx(A, abs=1e-15)
        assert abs(a.lo) < 1e-16
        # the pair satisfies a^2 + 2a = 1 far beyond double precision
        fr = a.as_fraction()
        assert abs(float(fr * fr + 2 * fr - 1)) < 1e-30

    @pytest.mark.parametrize("a", [sqrt2_minus_one(), (math.sqrt(5.0) - 1.0) / 2.0],
                             ids=["split", "float"])
    def test_exact_frac_matches_fraction_form(self, a):
        fr = a.as_fraction() if isinstance(a, SplitReal) else Fraction(a)
        for k in range(-4099, 4100, 7):
            assert exact_frac(a, k) == float(k * fr % 1)


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


MIXED = FourierFn(0.0, [0.5, 1.0, 0.25], [0.0, 0.3])  # not a martingale difference


def doubling_sum(f: FourierFn, n: int, k: int = 16) -> np.ndarray:
    """S_n = sum_{j<n} f(2^j x) on the 2^k midpoints x, the chain read backwards."""
    x = (np.arange(1 << k) + 0.5) / (1 << k)
    return sum(f.eval((2.0 ** j * x) % 1.0) for j in range(n))


def twisted_loop(f: FourierFn, n: int, tau: float, band: int) -> complex:
    """phi_n(tau) by n dense steps u <- A u of the twisted operator, A[l', l] = g_{2l'-l}."""
    x = np.arange(1 << 12) / (1 << 12)
    coeffs = np.fft.fft(np.exp(1j * tau * f.eval(x))) / x.size   # g_k at index k mod 4096
    a = np.zeros((2 * band + 1, 2 * band + 1), dtype=complex)
    for i, lp in enumerate(range(-band, band + 1)):
        for j, l in enumerate(range(-band, band + 1)):
            if abs(2 * lp - l) <= band:
                a[i, j] = coeffs[(2 * lp - l) % x.size]
    u = np.zeros(2 * band + 1, dtype=complex)
    u[band] = 1.0
    for _ in range(n):
        u = a @ u
    return u[band]


class TestCharacteristic:
    def test_one_step_is_bessel_j0(self):
        mp = pytest.importorskip("mpmath")
        taus = np.linspace(-25.0, 25.0, 101)
        law = characteristic(DM, cosine(1), 1, taus)
        want = np.array([float(mp.besselj(0, float(t))) for t in taus])
        assert np.max(np.abs(law.values - want)) < 1e-15
        # the bound covers the rounding of the coefficients (the error reaches 6e-16)
        assert np.all(np.abs(law.values - want) <= law.bound)
        assert np.all(law.bound < 1e-12)

    def test_coefficient_bound_holds_at_loose_tails(self):
        # the partial Fourier sum of exp(i tau f) stays within eps of it everywhere:
        # at loose tails truncation and aliasing dominate, at the default tail the
        # rounding of the samples and of their FFT.  Both sides are evaluated in
        # long double, so eps alone has to cover the difference
        x = np.arange(8192, dtype=np.longdouble) / 8192
        two_pi = 2 * np.arccos(np.longdouble(-1.0))
        taus = np.linspace(-40.0, 40.0, 81)
        order = np.argsort(np.abs(taus), kind="stable")
        batches = [order[s:s + 16] for s in range(0, taus.size, 16)]
        for f in (cosine(1), cosine(2), FourierFn(0.2, [0.0, -0.7], [0.4])):
            f_x = f.constant + sum(a * np.cos(two_pi * k * x) + b * np.sin(two_pi * k * x)
                                   for k, (a, b) in enumerate(zip(f.cos_coeffs, f.sin_coeffs), 1))
            want = np.exp(1j * np.outer(taus.astype(np.longdouble), f_x))
            for tail in (1e-2, 1e-4, 1e-8, _BAND_TAIL):
                gs, eps = _exp_i_tau_f(f, taus, batches, tail)
                for rows, g in zip(batches, gs):
                    band = (g.shape[1] - 1) // 2
                    spread = np.zeros((rows.size, x.size), dtype=np.clongdouble)
                    spread[:, np.arange(-band, band + 1) % x.size] = g
                    err = np.abs(np.fft.ifft(spread) * x.size - want[rows])
                    assert np.all(err.max(axis=1) <= eps[rows]), (f.describe(), tail)

    def test_matches_direct_quadrature(self):
        taus = np.array([-2.5, 0.0, 0.3, 1.0, 4.0])
        for f in (cosine(1), MIXED, FourierFn(0.2, [0.0, -0.7], [0.4])):
            for n in (2, 3, 6):
                want = np.exp(1j * np.outer(taus, doubling_sum(f, n))).mean(axis=1)
                got = characteristic(DM, f, n, taus)
                assert np.max(np.abs(got.values - want)) < 1e-14, (f.describe(), n)

    def test_both_power_paths_match_the_dense_loop(self):
        # small n at a wide band iterates by FFT; large n at a narrow band squares,
        # on the folded even space for a cosine and on the full one otherwise
        for f, n, tau, band in ((cosine(1), 4, 9.0, 60), (cosine(1), 64, 0.8, 30),
                                (MIXED, 3, 5.0, 130), (MIXED, 1024, 0.1, 60)):
            got = characteristic(DM, f, n, np.array([tau])).values[0]
            assert abs(got - twisted_loop(f, n, tau, band)) < 1e-13, (f.describe(), n)

    def test_curvature_is_finite_n_variance(self):
        # -phi_n''(0) = Var S_n = n (c_0 + 2 sum_{k<n} (1 - k/n) c_k)
        delta = 1e-4
        for f in (cosine(1), cosine(2), MIXED):
            covs = long_run_variance(DM, f).covariances
            for n in (5, 12):
                var = covs[0] + 2.0 * sum((1.0 - k / n) * c
                                          for k, c in enumerate(covs[1:n], 1))
                phi = characteristic(DM, f, n, np.array([delta])).values[0]
                curvature = 2.0 * (1.0 - phi.real) / delta ** 2 / n
                assert curvature == pytest.approx(var, rel=1e-6), (f.describe(), n)

    def test_truncation_bound_is_tiny(self):
        # the truncation leaves under 1e-15; the rounding of the samples of
        # exp(i tau f) and of their FFT, at most n sqrt(2B + 1) times its ~1e-14
        # per-sample bound, brings the bound to about 1.5e-11 here
        taus = np.linspace(0.0, 60.0, 200) / math.sqrt(64)
        law = characteristic(DM, cosine(1), 64, taus)
        assert law.values.shape == taus.shape
        assert np.max(law.bound) < 1e-10

    def test_other_families_have_no_exact_law(self):
        assert characteristic(CW, cosine(1), 8, [0.5]) is None
        assert characteristic(two_state_chain(), None, 8, [0.5]) is None
        assert characteristic(iid_rademacher(), None, 8, [0.5]) is None
        with pytest.raises(DomainError):
            characteristic(DM, cosine(1), 0, [0.5])


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
        for spec, f in ((DM, cosine(1)), (CW, FourierFn(0.0, [1.0, 0.5], [0.0, 0.3])),
                        (two_state_chain(), None), (iid_rademacher(), None)):
            sums = [simulate(spec, f, 130, 23, checkpoints=[1, 64, 65, 130], seed=8,
                             block_size=bs).partial_sums for bs in (1, 7, 4096)]
            assert np.array_equal(sums[0], sums[1]) and np.array_equal(sums[0], sums[2])

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

    @pytest.mark.parametrize("block_size", [0, -3])
    def test_block_size_validation(self, block_size):
        # -3 used to return sums read from uninitialised memory, 0 a bare ValueError
        with pytest.raises(DomainError, match="block_size"):
            simulate(DM, cosine(1), 10, 5, seed=0, block_size=block_size)

    @pytest.mark.parametrize("reps", [0, -2])
    def test_sample_states_reps_validation(self, reps):
        for spec in (DM, CW):
            with pytest.raises(DomainError, match="reps"):
                sample_states(spec, 3, reps, seed=0)

    def test_doubling_fixed_point_replay(self):
        # bit-exact contract: row r consumes substream(seed, r) as one word for
        # the initial state followed by packed step bits, low bit first
        from meanclt.numerics import substream
        f = cosine(1)
        n, reps, seed = 75, 6, 314
        ens = simulate(DM, f, n, reps, checkpoints=[n], seed=seed)
        for r in range(reps):
            g = substream(seed, r).generator()
            w = int(row_bit_words(g, 1)[0])
            s = 0.0
            for bit in step_bits(row_bit_words(g, (n + 63) // 64), n):
                w = (w >> 1) | (bit << 63)
                s += float(f.eval(np.float64(w) * 2.0 ** -64))
            assert s == ens.partial_sums[r, 0]

    @pytest.mark.parametrize("step", [0, 1, 64, 100])
    def test_sample_states_replay(self, step):
        # states are exact arithmetic on the drawn words (the circle walk's {k a}
        # rounded once), so equality is exact
        from meanclt.numerics import substream
        reps, seed = 9, 27
        dm, cw = sample_states(DM, step, reps, seed), sample_states(CW, step, reps, seed)
        for r in range(reps):
            g = substream(seed, r).generator()
            w = int(row_bit_words(g, 1)[0])
            for bit in step_bits(row_bit_words(g, (step + 63) // 64), step):
                w = (w >> 1) | (bit << 63)
            assert dm[r] == np.float64(w) * 2.0 ** -64
            x0, k = circle_start_and_walk(substream(seed, r).generator(), step)
            assert cw[r] == (x0 + exact_frac(CW.a, int(k[-1]) if step else 0)) % 1.0

    @pytest.mark.parametrize("step", [1, 5, 100])
    def test_sample_states_are_the_simulated_states(self, step):
        # cos 2 pi x at replicate r's state is the X_step that simulate adds to its S_n
        reps, seed = 6, 3
        for spec in (DM, CW):
            ens = simulate(spec, cosine(1), step, reps, checkpoints=[step - 1 or 1, step],
                           seed=seed)
            x_step = ens.partial_sums[:, -1] - (ens.partial_sums[:, 0] if step > 1 else 0.0)
            xs = sample_states(spec, step, reps, seed)
            assert np.max(np.abs(np.cos(2.0 * np.pi * xs) - x_step)) <= 1e-14, spec.label

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
            assert np.array_equal(partial[[0, 39, n - 1]], ens.partial_sums[r])

    def test_circle_kernel_near_split_formula(self):
        # per step the split formula loses up to ulp(k a) ~ 1e-14 in the position at
        # |k| < 256, so S_n may move by up to n * 2 pi * 1e-14 ~ 1e-9 at n = 16384
        from meanclt.numerics import substream
        n, reps, seed = 16384, 4, 11
        ens = simulate(CW, cosine(1), n, reps, seed=seed)
        for r in range(reps):
            old = replay_circle_split(substream(seed, r).generator(), n).sum()
            assert abs(old - ens.partial_sums[r, 0]) <= 1e-9

    def test_circle_kernel_per_step_accuracy(self):
        # with all step bits 1 (or 0) the walk is k_t = t (or -t), so X_t = cos 2 pi (x0 + k_t a)
        # is checked at |k| up to 4096 against 40 digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        n, head = 4096, 0x9E3779B97F4A7C15
        gens = [FixedWords(head, (1 << 64) - 1), FixedWords(head, 0)]
        xs = np.array(list(CW._simulate_block(cosine(1), n, gens)))
        x0 = (head >> 11) * 2.0 ** -53
        table_err, split_err = 0.0, 0.0
        for col, sign in ((0, 1), (1, -1)):
            for t in range(1, n + 1):
                k = sign * t
                pos = Fraction(x0) + k * CW.a.as_fraction()
                exact = mpmath.cos(2 * mpmath.pi * mpmath.mpf(pos.numerator) / pos.denominator)
                split = math.cos(2.0 * math.pi * np.mod(x0 + k * CW.a.hi + k * CW.a.lo, 1.0))
                table_err = max(table_err, abs(float(xs[t - 1, col] - exact)))
                split_err = max(split_err, abs(float(split - exact)))
        assert table_err <= 8 * 2.0 ** -52
        assert split_err > 100 * table_err

    def test_circle_kernel_replay_mixed_observable(self):
        # a constant, cosines at j = 1 and 3 and a sine at j = 3, step by step
        from meanclt.numerics import substream
        f = FourierFn(0.25, [1.0, 0.0, 0.5], [0.0, 0.0, 0.3])
        n, reps, seed = 200, 5, 17
        xs = np.array(list(CW._simulate_block(
            f, n, [substream(seed, r).generator() for r in range(reps)])))
        for r in range(reps):
            assert np.array_equal(xs[:, r], replay_circle(substream(seed, r).generator(), n, f))

    @pytest.mark.parametrize("n", [64 * _CHUNK_WORDS - 1, 64 * _CHUNK_WORDS,
                                   64 * _CHUNK_WORDS + 1, 1000])
    def test_chunk_boundaries_and_block_sizes(self, n):
        from meanclt.numerics import substream
        reps, seed = 9, 23
        for spec in (DM, CW):
            sums = [simulate(spec, cosine(1), n, reps, checkpoints=[1, 63, 64, 65, n], seed=seed,
                             block_size=bs).partial_sums for bs in (1, 7, 4096)]
            assert np.array_equal(sums[0], sums[1]) and np.array_equal(sums[0], sums[2])
        for r in (0, reps - 1):
            partial = np.cumsum(replay_circle(substream(seed, r).generator(), n))
            assert np.array_equal(partial[[0, 62, 63, 64, n - 1]], sums[0][r])

    @pytest.mark.parametrize("n", [0, 1, 64 * _CHUNK_WORDS - 1, 64 * _CHUNK_WORDS,
                                   64 * _CHUNK_WORDS + 1, 3 * 64 * _CHUNK_WORDS + 100])
    def test_chunked_draws_are_one_raw_draw(self, n):
        from meanclt.numerics import substream
        reps, seed, n_words = 3, 5, (n + 63) // 64
        gens = [CountingGenerator(substream(seed, r).generator()) for r in range(reps)]
        head, bits = _draw_bit_paths(gens, n)
        cols = np.array(list(bits), dtype=np.uint64).reshape(n, reps)
        for r, g in enumerate(gens):
            words = substream(seed, r).generator().bit_generator.random_raw(1 + n_words)
            assert head[r] == words[0]
            assert cols[:, r].tolist() == step_bits(words[1:], n)
            assert g.calls == max(1, -(-n_words // _CHUNK_WORDS))

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
