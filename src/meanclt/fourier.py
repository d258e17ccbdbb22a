"""Real trigonometric polynomials on [0,1): the universal observable format.

A FourierFn stores constant + sum_k (a_k cos 2*pi*k*x + b_k sin 2*pi*k*x).
Keeping observables in coefficient form is what makes the transfer-operator
action (and hence every conditional expectation downstream) exact.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError, SchemaError, json_numbers, json_typed, reject_unknown_keys

ArrayLike = Union[float, np.ndarray]

DEFAULT_PRODUCT_CAP = 4096


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 1:
        raise DomainError("coefficient sequences must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("coefficients must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class FourierFn:
    """Immutable trigonometric polynomial; safe to share across threads."""

    constant: float = 0.0
    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sin_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if not math.isfinite(self.constant):
            raise DomainError("constant must be finite")
        a = _as_coeff_array(self.cos_coeffs)
        b = _as_coeff_array(self.sin_coeffs)
        k = max(a.size, b.size)
        a = np.concatenate([a, np.zeros(k - a.size)])
        b = np.concatenate([b, np.zeros(k - b.size)])
        # trim trailing all-zero frequencies so max_freq is canonical
        while k > 0 and a[k - 1] == 0.0 and b[k - 1] == 0.0:
            k -= 1
        object.__setattr__(self, "cos_coeffs", a[:k].copy())
        object.__setattr__(self, "sin_coeffs", b[:k].copy())
        self.cos_coeffs.setflags(write=False)
        self.sin_coeffs.setflags(write=False)

    # -- structure ---------------------------------------------------------

    @property
    def max_freq(self) -> int:
        return self.cos_coeffs.size

    @property
    def centered(self) -> bool:
        return self.constant == 0.0

    @property
    def mean(self) -> float:
        """Integral against Lebesgue measure on [0,1)."""
        return self.constant

    def is_zero(self, tol: float = 0.0) -> bool:
        if abs(self.constant) > tol:
            return False
        return bool(np.all(np.abs(self.cos_coeffs) <= tol)
                    and np.all(np.abs(self.sin_coeffs) <= tol))

    def coeff_l1(self) -> float:
        """l1 mass of all coefficients; an upper bound for sup |f|."""
        return abs(self.constant) + float(np.abs(self.cos_coeffs).sum()
                                           + np.abs(self.sin_coeffs).sum())

    def derivative_sup_bound(self) -> float:
        """Certified upper bound for sup |f'|."""
        k = np.arange(1, self.max_freq + 1)
        return 2.0 * math.pi * float((k * (np.abs(self.cos_coeffs)
                                           + np.abs(self.sin_coeffs))).sum())

    # -- evaluation and algebra --------------------------------------------

    @functools.cached_property
    def _nonzero_terms(self) -> int:
        return int(np.count_nonzero(self.cos_coeffs) + np.count_nonzero(self.sin_coeffs))

    def eval(self, x: ArrayLike) -> ArrayLike:
        """constant + Re(sum_k C_k z^k) with C_k = a_k - i b_k and z = e^{2 pi i x}.

        Term by term, each nonzero a_k or b_k costs one cos or sin per point;
        Horner's rule in z costs one cos and one sin per point and a complex
        multiply-add per frequency.  Horner is taken from three nonzero terms
        on, so a sparse observable such as cos 4 pi x keeps its single cosine.
        """
        x = np.asarray(x, dtype=float)
        if self._nonzero_terms <= 2:
            out = np.full(x.shape, self.constant, dtype=float)
            for k in range(1, self.max_freq + 1):
                th = (2.0 * math.pi * k) * x
                a, b = self.cos_coeffs[k - 1], self.sin_coeffs[k - 1]
                if a != 0.0:
                    out += a * np.cos(th)
                if b != 0.0:
                    out += b * np.sin(th)
            return out if out.ndim else float(out)
        th = (2.0 * math.pi) * x
        z = np.cos(th) + 1j * np.sin(th)
        c = self.cos_coeffs - 1j * self.sin_coeffs
        s = c[-1] * z
        for ck in c[-2::-1]:
            s += ck
            s *= z
        out = s.real + self.constant
        return out if out.ndim else float(out)

    def __call__(self, x: ArrayLike) -> ArrayLike:
        return self.eval(x)

    def __add__(self, other: "FourierFn") -> "FourierFn":
        k = max(self.max_freq, other.max_freq)
        pad = lambda v, n: np.concatenate([v, np.zeros(n - v.size)])
        return FourierFn(self.constant + other.constant,
                         pad(self.cos_coeffs, k) + pad(other.cos_coeffs, k),
                         pad(self.sin_coeffs, k) + pad(other.sin_coeffs, k))

    def __sub__(self, other: "FourierFn") -> "FourierFn":
        return self + (other * -1.0)

    def __mul__(self, c: float) -> "FourierFn":
        return FourierFn(self.constant * c, self.cos_coeffs * c, self.sin_coeffs * c)

    __rmul__ = __mul__

    def shift_constant(self, delta: float) -> "FourierFn":
        return FourierFn(self.constant + delta, self.cos_coeffs, self.sin_coeffs)

    def allclose(self, other: "FourierFn", tol: float = 0.0) -> bool:
        return (self - other).is_zero(tol)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"constant": self.constant,
                "cos": list(map(float, self.cos_coeffs)),
                "sin": list(map(float, self.sin_coeffs))}

    @classmethod
    def from_dict(cls, d: dict) -> "FourierFn":
        if not isinstance(d, dict):
            raise SchemaError(f"an observable must be an object, got {d!r} (field: observable)")
        reject_unknown_keys(d, ("constant", "cos", "sin"), "observable")
        return cls(float(json_typed(d.get("constant", 0.0), float, "observable.constant")),
                   json_numbers(d.get("cos", []), "observable.cos"),
                   json_numbers(d.get("sin", []), "observable.sin"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "FourierFn":
        return cls.from_dict(json.loads(s))

    def describe(self) -> str:
        parts = []
        if self.constant != 0.0:
            parts.append(f"{self.constant:g}")
        for k in range(1, self.max_freq + 1):
            a, b = self.cos_coeffs[k - 1], self.sin_coeffs[k - 1]
            if a != 0.0:
                parts.append(f"{a:g}*cos{k}")
            if b != 0.0:
                parts.append(f"{b:g}*sin{k}")
        return "+".join(parts) if parts else "0"


def cosine(freq: int, amplitude: float = 1.0) -> FourierFn:
    if freq < 1:
        raise DomainError("frequency must be >= 1")
    a = np.zeros(freq)
    a[freq - 1] = amplitude
    return FourierFn(0.0, a, np.zeros(freq))


def sine(freq: int, amplitude: float = 1.0) -> FourierFn:
    if freq < 1:
        raise DomainError("frequency must be >= 1")
    b = np.zeros(freq)
    b[freq - 1] = amplitude
    return FourierFn(0.0, np.zeros(freq), b)


def constant_fn(value: float) -> FourierFn:
    return FourierFn(float(value))


def lebesgue_inner(f: FourierFn, g: FourierFn) -> float:
    """Exact integral of f*g over [0,1) from coefficient orthogonality."""
    k = min(f.max_freq, g.max_freq)
    inner = f.constant * g.constant
    if k:
        inner += 0.5 * float(np.dot(f.cos_coeffs[:k], g.cos_coeffs[:k])
                             + np.dot(f.sin_coeffs[:k], g.sin_coeffs[:k]))
    return inner


def _to_complex(f: FourierFn) -> np.ndarray:
    """Coefficients c_{-K}..c_K with c_k = (a_k - i b_k)/2."""
    k = f.max_freq
    c = np.zeros(2 * k + 1, dtype=complex)
    c[k] = f.constant
    if k:
        pos = 0.5 * (f.cos_coeffs - 1j * f.sin_coeffs)
        c[k + 1:] = pos
        c[:k] = np.conj(pos[::-1])
    return c


def _from_complex(c: np.ndarray) -> FourierFn:
    k = (c.size - 1) // 2
    constant = float(c[k].real)
    if k == 0:
        return FourierFn(constant)
    pos = c[k + 1:]
    return FourierFn(constant, 2.0 * pos.real, -2.0 * pos.imag)


class ProductResult(NamedTuple):
    fn: FourierFn
    dropped_l1: float


def product(f: FourierFn, g: FourierFn, cap: int = DEFAULT_PRODUCT_CAP) -> ProductResult:
    """Pointwise product by coefficient convolution.

    Exact when max_freq(f) + max_freq(g) <= cap; otherwise frequencies above
    cap are dropped and their l1 coefficient mass (a sup-norm bound on the
    discarded part) is reported rather than raised.
    """
    if cap < 0:
        raise DomainError("cap must be nonnegative")
    cf, cg = _to_complex(f), _to_complex(g)
    conv = np.convolve(cf, cg)
    k = f.max_freq + g.max_freq
    dropped = 0.0
    if k > cap:
        mid = k
        keep = np.zeros(2 * cap + 1, dtype=complex)
        keep[:] = conv[mid - cap: mid + cap + 1]
        dropped = float(np.abs(conv[: mid - cap]).sum() + np.abs(conv[mid + cap + 1:]).sum())
        conv = keep
    return ProductResult(_from_complex(conv), dropped)
