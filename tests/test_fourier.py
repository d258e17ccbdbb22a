import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanclt.errors import DomainError
from meanclt.fourier import (FourierFn, constant_fn, cosine, lebesgue_inner, product,
                             sine)


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

    def test_truncation_reported_not_raised(self):
        f = cosine(3)
        fn, dropped = product(f, f, cap=4)
        # the frequency-6 term is dropped; constant survives
        assert fn.max_freq <= 4
        assert dropped == pytest.approx(0.5, abs=1e-15)
        assert fn.constant == pytest.approx(0.5)

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
