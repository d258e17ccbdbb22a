import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanclt.fourier as fourier
from meanclt.errors import AccuracyError, DomainError
from meanclt.fourier import (FourierFn, FourierStack, constant_fn, cosine, l1_norms,
                             lebesgue_inner, product, sine)
from meanclt.numerics import Tolerance, integrate_unit


def random_fn(seed: int, k: int = 4) -> FourierFn:
    gen = np.random.default_rng(seed)
    return FourierFn(float(gen.normal()), gen.normal(size=k), gen.normal(size=k))


class TestEval:
    def test_cos_at_zero(self):
        assert cosine(1).eval(0.0) == 1.0

    def test_sin_at_quarter(self):
        assert sine(1).eval(0.25) == pytest.approx(1.0, abs=1e-15)

    def test_cos2_at_quarter(self):
        assert cosine(2).eval(0.25) == pytest.approx(-1.0, abs=1e-15)

    def test_vectorized(self):
        f = random_fn(1)
        xs = np.linspace(0, 1, 17)
        assert np.allclose(f.eval(xs), [f.eval(float(x)) for x in xs])

    @pytest.mark.parametrize("with_sin", [False, True])
    @pytest.mark.parametrize("k", [2, 4, 12, 24])
    def test_against_mpmath(self, k, with_sin):
        # rounding of the phase 2 pi x grows k-fold in z^k (2 pi k u) and the
        # k complex Horner steps add about 4 k u, both relative to coeff_l1;
        # k = 2 without sines has two terms and is summed term by term
        gen = np.random.default_rng(k)
        f = FourierFn(float(gen.normal()), gen.normal(size=k),
                      gen.normal(size=k) if with_sin else np.zeros(k))
        xs = np.concatenate([gen.random(40), np.linspace(0.0, 1.0, 24, endpoint=False)])
        worst = 0.0
        with mpmath.workdps(30):
            for x, got in zip(xs, f.eval(xs)):
                th = 2 * mpmath.pi * mpmath.mpf(float(x))
                ref = mpmath.mpf(f.constant) + mpmath.fsum(
                    float(a) * mpmath.cos(j * th) + float(b) * mpmath.sin(j * th)
                    for j, (a, b) in enumerate(zip(f.cos_coeffs, f.sin_coeffs), 1))
                worst = max(worst, abs(float(mpmath.mpf(float(got)) - ref)))
        assert worst <= 12.0 * k * 2.0 ** -53 * f.coeff_l1()

    @pytest.mark.parametrize("coeffs", [([], []), ([0.7], []), ([], [-1.3]), ([0.7], [-1.3]),
                                        ([0.0, 1.0], []), ([0.7, 0.0, 0.0, 0.5], []),
                                        ([0.7], [0.0, 0.0, -1.3]), ([], [0.0, 0.0, 0.0, 0.0, 2.0])])
    def test_two_terms_or_fewer_term_by_term(self, coeffs):
        f = FourierFn(0.25, *coeffs)
        xs = np.random.default_rng(5).random(257)
        expected = np.full(xs.shape, 0.25)
        for k in range(1, f.max_freq + 1):
            th = (2.0 * math.pi * k) * xs
            a, b = f.cos_coeffs[k - 1], f.sin_coeffs[k - 1]
            if a:
                expected += a * np.cos(th)
            if b:
                expected += b * np.sin(th)
        assert f.eval(xs).tobytes() == expected.tobytes()


# mixed degrees, so most of the stack has zeros on top; a constant; and
# polynomials of at most two nonzero terms, which FourierFn.eval sums term by term
STACK = [FourierFn(0.3, [1.0, -0.5, 0.25, 0.125, 0.7, -0.2, 0.1, 0.05, -0.3, 0.2, 0.6, -0.4],
                   [0.0, 0.3, -0.1, 0.0, 0.2, 0.0, 0.4, 0.0, 0.0, -0.6, 0.0, 0.1]),
         cosine(1), FourierFn(0.0, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.5]),
         FourierFn(-0.25, [], [0.0, 0.8]), constant_fn(2.0), sine(5, -0.7),
         FourierFn(0.1, [0.5, 0.0, -1.2], [0.2, 0.9, 0.0]),
         FourierFn(0.0, [0.0, 2.0], [0.0, 0.0, 0.0, 1.0])]


class TestFourierStack:
    def _points(self):
        gen = np.random.default_rng(11)
        x = np.concatenate([gen.random(45), np.linspace(0.0, 1.0, 15, endpoint=False)])
        which = gen.integers(0, len(STACK), size=x.size)
        return x, which

    def test_against_mpmath(self):
        # each point reads its own polynomial; the error bound is the one of
        # its own degree K, since the zeros on top add nothing
        x, which = self._points()
        got = FourierStack(STACK).eval(x, which)
        with mpmath.workdps(30):
            for xi, j, v in zip(x, which, got):
                f = STACK[j]
                th = 2 * mpmath.pi * mpmath.mpf(float(xi))
                ref = mpmath.mpf(f.constant) + mpmath.fsum(
                    float(a) * mpmath.cos(k * th) + float(b) * mpmath.sin(k * th)
                    for k, (a, b) in enumerate(zip(f.cos_coeffs, f.sin_coeffs), 1))
                err = abs(float(mpmath.mpf(float(v)) - ref))
                assert err <= 12.0 * max(f.max_freq, 1) * 2.0 ** -53 * f.coeff_l1(), (j, xi)

    def test_value_is_the_one_of_a_stack_of_its_own(self):
        x, which = self._points()
        got = FourierStack(STACK).eval(x, which)
        for j, f in enumerate(STACK):
            mine = which == j
            assert got[mine].tobytes() == FourierStack([f]).eval(x[mine]).tobytes()

    def test_rows_of_points_per_polynomial(self):
        # a column of polynomial indices broadcasts against rows of points
        x = np.random.default_rng(12).random((len(STACK), 15))
        which = np.arange(len(STACK))[:, None]
        got = FourierStack(STACK).eval(x, which)
        assert got.shape == x.shape
        for j, f in enumerate(STACK):
            assert got[j].tobytes() == FourierStack([f]).eval(x[j]).tobytes()

    def test_eval_is_the_stack_of_one(self):
        f = STACK[0]
        x = np.random.default_rng(13).random(33)
        assert f.eval(x).tobytes() == FourierStack([f]).eval(x).tobytes()


def _l1_norm_alone(p, ds, f, tol):
    """integral |p(x)| prod_{d in ds} |f(2^d x)| dx by a quadrature of its own."""
    def g(x):
        y = FourierStack([p]).eval(x)
        for d in ds:
            y = y * f.eval(np.ldexp(1.0, d) * x)
        return np.abs(y)
    return integrate_unit(g, tol)


class TestL1Norms:
    TOL = Tolerance(1e-12, 1e-12, 44)
    F = FourierFn(0.0, [0.0, 1.0], [0.3])  # the dilated factor
    ITEMS = [(p, ds) for k, p in enumerate(STACK)
             for ds in [(), (1,), (3, 1), (2, 2), (0,)][k % 5:] + [(5,)]]

    def test_each_norm_is_its_value_alone(self):
        # 8 polynomials of degree 0 to 12, with 0 to 2 dilated factors each,
        # over two batches: every norm is bit for bit its quadrature alone
        want = [_l1_norm_alone(p, ds, self.F, self.TOL) for p, ds in self.ITEMS]
        assert len(self.ITEMS) > 32
        assert list(l1_norms(self.ITEMS, self.TOL, self.F)) == want
        assert list(l1_norms(self.ITEMS[::-1], self.TOL, self.F)) == want[::-1]

    def test_dilated_factors_against_a_midpoint_sum(self):
        # |cos 2 pi x| |f(2 x)| |f(8 x)|: kinks in the integrand, so O(h^2)
        x = (np.arange(1 << 20) + 0.5) / (1 << 20)
        oracle = float(np.mean(np.abs(np.cos(2 * np.pi * x) * self.F.eval(2 * x)
                                      * self.F.eval(8 * x))))
        got, = l1_norms([(cosine(1), (1, 3))], self.TOL, self.F)
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_reads_one_batch_at_a_time(self):
        pulled = []

        def items():
            for k in range(70):
                pulled.append(k)
                yield cosine(1 + k % 3), ()

        norms = l1_norms(items(), self.TOL)
        assert next(norms) == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert len(pulled) == 32
        assert len(list(norms)) == 69 and len(pulled) == 70

    def test_failure_is_the_first_failing_item(self, monkeypatch):
        # at max_depth 3 only a few items converge; the error is the one of
        # the first failing item alone, whatever its batch
        tol = Tolerance(1e-12, 1e-12, 3)
        items = [(constant_fn(1.0), ()), (STACK[5], (1,)), (STACK[1], ())]
        with pytest.raises(AccuracyError) as want:
            for p, ds in items:
                _l1_norm_alone(p, ds, self.F, tol)
        for batch in (32, 1):
            monkeypatch.setattr(fourier, "_NORM_BATCH", batch)
            with pytest.raises(AccuracyError) as got:
                list(l1_norms(items, tol, self.F))
            assert (got.value.estimate, got.value.error_bound) == \
                (want.value.estimate, want.value.error_bound)


class TestAlgebra:
    def test_product_cos_squared(self):
        fn, dropped = product(cosine(1), cosine(1))
        assert dropped == 0.0
        assert fn.constant == pytest.approx(0.5)
        assert fn.cos_coeffs[1] == pytest.approx(0.5)
        assert abs(fn.cos_coeffs[0]) < 1e-15

    def test_product_identity(self):
        f = random_fn(2)
        fn, dropped = product(f, constant_fn(1.0))
        assert dropped == 0.0
        assert fn.allclose(f, 1e-14)

    def test_product_cos_sin(self):
        fn, _ = product(cosine(1), sine(1))
        assert fn.sin_coeffs[1] == pytest.approx(0.5)
        assert fn.constant == pytest.approx(0.0, abs=1e-16)
        assert abs(fn.cos_coeffs).max() < 1e-15

    def test_product_above_the_old_cap_keeps_its_top_frequency(self):
        # cos^2(2 pi 2100 x) = 1/2 + cos(2 pi 4200 x)/2, whose top frequency is
        # above 4096, the cap at which products once truncated
        fn, dropped = product(cosine(2100), cosine(2100))
        assert dropped == 0.0
        assert fn.max_freq == 4200
        assert fn.cos_coeffs[-1] == pytest.approx(0.5, abs=1e-15)
        assert fn.constant == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
    def test_product_matches_pointwise(self, s1, s2):
        f, g = random_fn(s1), random_fn(s2)
        fn, dropped = product(f, g)
        assert dropped == 0.0
        xs = np.linspace(0, 1, 29, endpoint=False)
        assert np.allclose(fn.eval(xs), f.eval(xs) * g.eval(xs), atol=1e-12)

    def test_lebesgue_inner_matches_quadrature(self):
        f, g = random_fn(5), random_fn(6)
        grid = (np.arange(200_000) + 0.5) / 200_000
        riemann = float((f.eval(grid) * g.eval(grid)).mean())
        assert lebesgue_inner(f, g) == pytest.approx(riemann, abs=1e-9)


class TestStructure:
    def test_centered_flag(self):
        assert cosine(1).centered
        assert not FourierFn(0.3).centered

    def test_trailing_zero_trim(self):
        f = FourierFn(0.0, [1.0, 0.0], [0.0, 0.0])
        assert f.max_freq == 1

    def test_serialization_roundtrip(self):
        f = random_fn(9)
        g = FourierFn.from_json(f.to_json())
        assert g.allclose(f)
        d = f.to_dict()
        assert set(d) == {"constant", "cos", "sin"}

    def test_invalid_coeffs(self):
        with pytest.raises(DomainError):
            FourierFn(0.0, [np.inf], [0.0])
        with pytest.raises(DomainError):
            cosine(0)

    def test_coeff_l1_bounds_sup(self):
        f = random_fn(11)
        xs = np.linspace(0, 1, 4096, endpoint=False)
        assert np.abs(f.eval(xs)).max() <= f.coeff_l1() + 1e-12

    def test_derivative_bound(self):
        f = random_fn(12)
        xs = np.linspace(0, 1, 4096, endpoint=False)
        h = 1e-6
        deriv = (f.eval(xs + h) - f.eval(xs - h)) / (2 * h)
        assert np.abs(deriv).max() <= f.derivative_sup_bound() + 1e-3
