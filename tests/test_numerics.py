import gc
import math
import os
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from meanclt.errors import AccuracyError, DomainError
from meanclt.numerics import (Tolerance, gauss_cdf, gauss_cdf_antideriv, gauss_pdf,
                              gauss_quantile, integrate_many, integrate_unit, substream)
from meanclt.numerics import _EVAL_POINTS, _panel_estimates

SQRT_2_OVER_PI = 0.7978845608028654


class TestGaussian:
    def test_cdf_at_zero(self):
        assert gauss_cdf(0.0) == 0.5

    def test_pdf_at_zero(self):
        assert gauss_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-16)

    def test_quantile_median(self):
        assert gauss_quantile(0.5) == 0.0

    def test_quantile_domain_error(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                gauss_quantile(bad)

    def test_quantile_cdf_roundtrip(self):
        # relative error <= 1e-13 across the contract range
        us = np.concatenate([10.0 ** np.arange(-15, -1), np.linspace(0.01, 0.99, 61),
                             1.0 - 10.0 ** np.arange(-15, -1)])
        qs = gauss_quantile(us)
        back = np.asarray(gauss_cdf(qs))
        assert np.max(np.abs(back - us) / us) < 1e-13

    def test_quantile_inverts_cdf_pointwise(self):
        # upper limit 4.5: beyond that, rounding cdf(x) to a double already
        # moves the implied quantile by ulp(1)/pdf(x) > 1e-10
        xs = np.linspace(-8.0, 4.5, 101)
        qs = gauss_quantile(np.asarray(gauss_cdf(xs)))
        assert np.max(np.abs(qs - xs)) < 1e-10

    def test_cdf_symmetry(self):
        xs = np.linspace(-8, 8, 201)
        total = np.asarray(gauss_cdf(xs)) + np.asarray(gauss_cdf(-xs))
        assert np.max(np.abs(total - 1.0)) < 1e-13

    def test_cdf_nondecreasing(self):
        xs = np.linspace(-10, 10, 5001)
        assert np.all(np.diff(np.asarray(gauss_cdf(xs))) >= 0.0)

    def test_antideriv_derivative_is_cdf(self):
        xs = np.linspace(-6, 6, 241)
        h = 1e-5
        fd = (np.asarray(gauss_cdf_antideriv(xs + h))
              - np.asarray(gauss_cdf_antideriv(xs - h))) / (2 * h)
        assert np.max(np.abs(fd - np.asarray(gauss_cdf(xs)))) < 1e-8


class TestQuadrature:
    def test_constant(self):
        assert integrate_unit(lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-14)

    def test_abs_cosine(self):
        val = integrate_unit(lambda x: np.abs(np.cos(2 * np.pi * x)))
        assert val == pytest.approx(2.0 / math.pi, abs=1e-11)

    def test_abs_cosine_cubed(self):
        val = integrate_unit(lambda x: np.abs(np.cos(2 * np.pi * x)) ** 3)
        assert val == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-11)

    def test_depth_exhaustion_carries_estimate(self):
        # a jump discontinuity cannot be resolved in two levels
        with pytest.raises(AccuracyError) as err:
            integrate_unit(lambda x: (x > 1.0 / 3.0).astype(float),
                           Tolerance(1e-14, 0.0, 2))
        assert 0.5 < err.value.estimate < 0.8
        assert err.value.error_bound > 0.0

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            Tolerance(abs_tol=0.0)
        with pytest.raises(DomainError):
            Tolerance(rel_tol=-1.0)
        with pytest.raises(DomainError):
            Tolerance(max_depth=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 4))
    def test_linearity_on_random_trig_polynomials(self, seed, k):
        gen = np.random.default_rng(seed)
        a, b = gen.normal(size=(2, k))
        c, d = gen.normal(size=(2, k))

        def g(x):
            return sum(a[i] * np.cos(2 * np.pi * (i + 1) * x)
                       + b[i] * np.sin(2 * np.pi * (i + 1) * x) for i in range(k))

        def h(x):
            return sum(c[i] * np.cos(2 * np.pi * (i + 1) * x)
                       + d[i] * np.sin(2 * np.pi * (i + 1) * x) for i in range(k))

        tol = Tolerance(1e-10, 0.0, 40)
        lhs = integrate_unit(lambda x: g(x) + h(x), tol)
        rhs = integrate_unit(g, tol) + integrate_unit(h, tol)
        assert abs(lhs - rhs) <= 3e-10

    def test_interval_mapping(self):
        # an interval [lo, hi] is integrated on [0, 1] through x = lo + w u, the
        # integrand scaled by w, as criterion 09 integrates its segments
        lo, w = -1.0, 3.0
        val = integrate_unit(lambda u: (lo + w * u) ** 2 * w)
        assert val == pytest.approx(3.0, abs=1e-11)


def _trig_integrands(seed: int, count: int) -> list:
    """|random trig polynomial| of 1 to 6 frequencies, each a kinked integrand."""
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(gen.integers(1, 7))
        a, b = gen.normal(size=(2, k))
        freqs = 2 * np.pi * np.arange(1, k + 1)
        out.append(lambda x, a=a, b=b, freqs=freqs:
                   np.abs(np.cos(np.multiply.outer(x, freqs)) @ a
                          + np.sin(np.multiply.outer(x, freqs)) @ b))
    return out


def _batched(gs):
    """g(owner, x) for integrate_many: row i of x goes to gs[owner[i]]."""
    def g(owner, x):
        out = np.empty_like(x)
        for i, o in enumerate(owner):
            out[i] = gs[o](x[i])
        return out
    return g


class TestIntegrateMany:
    TOL = Tolerance(1e-12, 1e-12, 44)

    def test_one_integrand_is_integrate_unit(self):
        for g in _trig_integrands(1, 6):
            alone = integrate_many(lambda owner, x: g(x.reshape(-1)).reshape(x.shape), 1, self.TOL)
            assert alone == [integrate_unit(g, self.TOL)]

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_members_bit_equal_whatever_the_batch(self, seed):
        # every integrand gets the bits it gets alone, in any batch and position
        gs = _trig_integrands(seed, 7)
        alone = [integrate_unit(g, self.TOL) for g in gs]
        assert integrate_many(_batched(gs), len(gs), self.TOL) == alone
        order = np.random.default_rng(seed).permutation(len(gs))
        shuffled = integrate_many(_batched([gs[i] for i in order]), len(gs), self.TOL)
        assert shuffled == [alone[i] for i in order]
        mates = _trig_integrands(seed + 100, 3)
        mixed = integrate_many(_batched(mates + gs[:2] + mates), 8, self.TOL)
        assert mixed[3:5] == alone[:2]

    def test_many_panels_split_into_evaluation_calls(self):
        # a level with more open panels than one call of g takes is evaluated
        # in several calls, and each member still gets its value alone
        gs = _trig_integrands(5, 40)
        sizes = []
        batched = _batched(gs)
        values = integrate_many(lambda owner, x: sizes.append(x.size) or batched(owner, x),
                                len(gs), self.TOL)
        full = _EVAL_POINTS // 15 * 15
        assert max(sizes) == full and sizes.count(full) > 1
        assert values == [integrate_unit(g, self.TOL) for g in gs]

    def test_panel_estimates_independent_of_the_panels_beside_them(self):
        # every panel's two sums have the same bits in any slice of panels;
        # a BLAS product rounds some rows differently by the batch's shape
        gen = np.random.default_rng(6)
        a = gen.integers(0, 2 ** 12, size=3000) / 2.0 ** 12
        owner = gen.integers(0, 5, size=a.size)
        g = lambda o, x: np.sin(1e3 * x + o[:, None]) * np.exp(x)
        k15, err = _panel_estimates(g, owner, a, 2.0 ** -12)
        for size in (1, 2, 3, 5, 8, 13, 100, 137, 999):
            for lo in range(0, a.size, 7 * size):
                part = slice(lo, lo + size)
                got = _panel_estimates(g, owner[part], a[part], 2.0 ** -12)
                assert got[0].tobytes() == k15[part].tobytes()
                assert got[1].tobytes() == err[part].tobytes()

    def test_failing_member_raises_its_own_estimate(self):
        step = lambda x: (x > 1.0 / 3.0).astype(float)
        tol = Tolerance(1e-14, 0.0, 2)
        with pytest.raises(AccuracyError) as alone:
            integrate_unit(step, tol)
        smooth = lambda x: x * x  # exact for both rules: converges at once
        for gs in ([smooth, step], [step, smooth, step], [smooth, smooth, step]):
            with pytest.raises(AccuracyError) as err:
                integrate_many(_batched(gs), len(gs), tol)
            assert err.value.estimate == alone.value.estimate
            assert err.value.error_bound == alone.value.error_bound


    def test_non_finite_estimate_raises_at_once(self):
        # an inf - inf error indicator is NaN, which no budget accepts: without
        # the check every panel would be bisected to max_depth
        calls = []

        def g(owner, x):
            calls.append(x.shape[0])
            return np.where(owner[:, None] == 1, np.inf, x)

        with pytest.raises(AccuracyError, match="not finite") as err:
            integrate_many(g, 3, self.TOL)
        assert calls == [3]
        assert math.isinf(err.value.estimate)

    def test_overflowing_integrand_raises_at_depth_zero(self):
        calls = []

        def cube(x):
            calls.append(x.size)
            return np.abs(1e150 * np.cos(2 * np.pi * x)) ** 3

        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(AccuracyError, match="not finite"):
                integrate_unit(cube, self.TOL)
        assert calls == [15]
        with pytest.raises(AccuracyError, match="not finite"):
            integrate_unit(lambda x: np.full_like(x, np.nan), self.TOL)


class TestPhiDerivL1:
    # the L1 norms of the Gaussian density's derivatives: kinked integrands over
    # |x| <= 12, mapped onto [0, 1]
    @staticmethod
    def phi_deriv_l1(d) -> float:
        return integrate_unit(lambda t: np.abs(d(-12.0 + 24.0 * t)) * 24.0,
                              Tolerance(1e-12, 1e-12, 44))

    def test_first(self):
        v = self.phi_deriv_l1(lambda x: -x * gauss_pdf(x))
        assert v == pytest.approx(0.79788456080286535588, abs=1e-8)
        assert v <= 4.0 / 5.0

    def test_second(self):
        v = self.phi_deriv_l1(lambda x: (x * x - 1.0) * gauss_pdf(x))
        assert v == pytest.approx(0.96788289807657339919, abs=1e-8)
        assert v <= 1.0

    def test_third(self):
        v = self.phi_deriv_l1(lambda x: (3.0 * x - x ** 3) * gauss_pdf(x))
        assert v == pytest.approx(1.5100130001304771326, abs=1e-8)
        assert v <= 8.0 / 5.0


class TestRandomStream:
    def test_determinism(self):
        a = substream(42, 0).generator().random(10_000)
        b = substream(42, 0).generator().random(10_000)
        assert np.array_equal(a, b)

    def test_substream_independence(self):
        a = substream(42, 0).generator().random(100_000)
        b = substream(42, 1).generator().random(100_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_uniformity_ks(self):
        u = np.sort(substream(42, 0).generator().random(100_000))
        m = u.size
        grid = np.arange(1, m + 1) / m
        ks = max(np.abs(grid - u).max(), np.abs(grid - 1.0 / m - u).max())
        assert ks < 1.63 / math.sqrt(m)

    def test_negative_seed_allowed(self):
        g = substream(-5, -7).generator()
        assert 0.0 <= g.random() < 1.0

    @pytest.mark.parametrize("seed, index", [
        (0, 0), (42, 7), (-5, -7), (-1, 3), (9, -(1 << 64)),
        (1 << 64, 5), ((1 << 64) + 3, (1 << 70) + 9), (-(1 << 65) - 1, (1 << 64) - 1)])
    def test_stream_is_philox_keyed_by_the_pair(self, seed, index):
        # a new generator and one re-keyed in place draw the same stream
        u64 = (1 << 64) - 1
        used = substream(index, seed).generator()
        used.bit_generator.random_raw(3)  # a partly used Philox buffer
        used.integers(0, 10, 3, dtype=np.int32)  # and a buffered half-word
        old = used.bit_generator.state
        assert old["buffer_pos"] < 4 and old["has_uint32"] == 1
        rekeyed = substream(seed, index).generator(used)
        assert rekeyed is used
        for got in (substream(seed, index).generator(), rekeyed):
            # a uint64 array: Philox(key=list) casts a list holding a word >= 2^63 through float
            want = Generator(Philox(key=np.array([seed & u64, index & u64], dtype=np.uint64)))
            state = got.bit_generator.state
            assert state["state"]["key"].tolist() == [seed & u64, index & u64]
            assert state["state"]["counter"].tolist() == [0, 0, 0, 0]
            assert state["buffer_pos"] == 4 and state["has_uint32"] == 0
            assert np.array_equal(got.bit_generator.random_raw(9),
                                  want.bit_generator.random_raw(9))
            assert np.array_equal(got.random(7), want.random(7))
            for dtype in (np.int32, np.int64):
                assert np.array_equal(got.integers(0, 10**9, 7, dtype=dtype),
                                      want.integers(0, 10**9, 7, dtype=dtype))
            assert np.array_equal(got.standard_normal(7), want.standard_normal(7))

    def test_generator_draws_no_os_entropy(self, monkeypatch):
        def no_entropy(size):
            raise OSError("no OS entropy in this test")
        monkeypatch.setattr(os, "urandom", no_entropy)
        monkeypatch.setattr(random, "_urandom", no_entropy)  # what secrets.randbits reads
        with pytest.raises(OSError):
            Philox(key=[1, 2])  # the patch does block an entropy draw
        g = substream(1, 2).generator()
        assert np.array_equal(g.bit_generator.random_raw(4),
                              substream(1, 2).generator().bit_generator.random_raw(4))

    def test_concurrent_generators_keep_their_keys(self):
        # every stream hands its key over through one shared holder; threads
        # building generators at once must each get their own key
        count, threads = 400, 4
        want = {(t, i): substream(t, i).generator().bit_generator.random_raw()
                for t in range(threads) for i in range(count)}
        got, errors = {}, []

        def build(t):
            try:
                for i in range(count):
                    got[t, i] = substream(t, i).generator().bit_generator.random_raw()
            except Exception as e:  # reported below: a thread's exception is otherwise lost
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=build, args=(t,)) for t in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == [] and got == want

    def test_generator_retains_no_more_than_keyed_philox(self):
        # memory held by 4096 more live generators, so fixed one-off
        # allocations cancel; a key holder per generator would add about 80 B
        def traced_bytes(make, count):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                gens = [make(i) for i in range(count)]
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(gens) == count
            return after - before

        def retained_per_generator(make):
            return (traced_bytes(make, 8192) - traced_bytes(make, 4096)) / 4096

        ours = retained_per_generator(lambda i: substream(7, i).generator())
        keyed = retained_per_generator(
            lambda i: Generator(Philox(key=np.array([7, i], dtype=np.uint64))))
        assert ours <= keyed, (ours, keyed)
