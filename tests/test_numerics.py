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
                              gauss_quantile, integrate_interval, integrate_unit,
                              phi_deriv_l1, substream)

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
        val = integrate_interval(lambda x: x * x, -1.0, 2.0)
        assert val == pytest.approx(3.0, abs=1e-11)


class TestPhiDerivL1:
    def test_first(self):
        v = phi_deriv_l1(1)
        assert v == pytest.approx(0.79788456080286535588, abs=1e-8)
        assert v <= 4.0 / 5.0

    def test_second(self):
        v = phi_deriv_l1(2)
        assert v == pytest.approx(0.96788289807657339919, abs=1e-8)
        assert v <= 1.0

    def test_third(self):
        v = phi_deriv_l1(3)
        assert v == pytest.approx(1.5100130001304771326, abs=1e-8)
        assert v <= 8.0 / 5.0

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_deriv_l1(4)


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
        u64 = (1 << 64) - 1
        got = substream(seed, index).generator()
        # a uint64 array: Philox(key=list) casts a list holding a word >= 2^63 through float
        want = Generator(Philox(key=np.array([seed & u64, index & u64], dtype=np.uint64)))
        state = got.bit_generator.state["state"]
        assert state["key"].tolist() == [seed & u64, index & u64]
        assert state["counter"].tolist() == [0, 0, 0, 0]
        assert np.array_equal(got.bit_generator.random_raw(9), want.bit_generator.random_raw(9))
        assert np.array_equal(got.random(7), want.random(7))
        assert np.array_equal(got.integers(0, 10**9, 7), want.integers(0, 10**9, 7))
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
