"""Real trigonometric polynomials on [0,1): the universal observable format.

A FourierFn stores constant + sum_k (a_k cos 2*pi*k*x + b_k sin 2*pi*k*x).
Keeping observables in coefficient form is what makes the transfer-operator
action (and hence every conditional expectation downstream) exact.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, SchemaError, json_numbers, json_typed, reject_unknown_keys
from .numerics import _EVAL_POINTS, Tolerance, integrate_many

ArrayLike = Union[float, np.ndarray]

_NORM_BATCH = 32  # norms integrated in one lockstep quadrature


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
    def _stack(self) -> "FourierStack":
        return FourierStack([_to_complex(self)])

    def eval(self, x: ArrayLike) -> ArrayLike:
        """constant + sum_k (a_k cos 2 pi k x + b_k sin 2 pi k x), by Horner's
        rule in z = e^{2 pi i x} (`FourierStack`), _EVAL_POINTS points a call
        so that no complex temporary reaches 256 KiB."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        xs, ys = x.reshape(-1), out.reshape(-1)
        for lo in range(0, xs.size, _EVAL_POINTS):
            ys[lo:lo + _EVAL_POINTS] = self._stack.eval(xs[lo:lo + _EVAL_POINTS])
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


class FourierStack:
    """Trigonometric polynomials p_j evaluated together by Horner's rule in z.

    p_j(x) = c_j0 + Re(sum_{k<=K} 2 c_jk z^k) for p_j's coefficients c_j
    (`_to_complex`), z = e^{2 pi i x} and K the largest degree of the stack; a
    polynomial of lower degree has zeros on top, which leave its Horner sum
    exact, so each value is the one its polynomial gets in a stack of its own.
    The coefficient table is built once, here, for every later evaluation.
    """

    def __init__(self, coeffs: Sequence[np.ndarray]):
        top = max(c.size for c in coeffs) // 2
        table = np.zeros((top, len(coeffs)), dtype=complex)  # row k-1 holds C_k
        for j, c in enumerate(coeffs):
            table[:c.size // 2, j] = 2.0 * c[c.size // 2 + 1:]
        self._rows = table[::-1]  # C_K first
        self._constants = np.array([c[c.size // 2].real for c in coeffs])

    def eval(self, x: np.ndarray, which=None) -> np.ndarray:
        """p_which[i](x[i]), `which` broadcasting against x; with which None,
        the stack's one polynomial at every x."""
        if which is None:
            rows, const = iter(self._rows[:, 0]), self._constants[0]
        else:
            rows, const = (row[which] for row in self._rows), self._constants[which]
        if not self._rows.size:
            return np.zeros(np.shape(x)) + const
        th = (2.0 * math.pi) * x
        z = np.cos(th) + 1j * np.sin(th)
        s = next(rows) * z
        for c in rows:
            s += c
            s *= z
        return s.real + const


def l1_norms(items: Iterable[tuple[np.ndarray, tuple]], tol: Tolerance,
             f: Optional[FourierFn] = None) -> Iterator[float]:
    """Yield the integral over [0, 1] of |p(x)| prod_{d in ds} |f(2^d x)|,
    factors in ds order, for each (p, ds) of items, in order; p is given by
    its coefficient array (`_to_complex`).

    Items are read _NORM_BATCH at a time (a generator keeps one batch alive),
    each batch one integrate_many of a `FourierStack` of its p.  A norm keeps
    its own panels, so it is its value alone; the first failing item raises.
    """
    items = iter(items)
    while batch := list(itertools.islice(items, _NORM_BATCH)):
        stack = FourierStack([p for p, _ in batch])
        width = max(len(ds) for _, ds in batch)
        exps = np.array([ds + (-1,) * (width - len(ds)) for _, ds in batch], dtype=int)

        def integrand(owner, x):
            y = stack.eval(x, owner[:, None])
            for e in exps.T[:, owner]:  # each row's t-th d, or -1 where it has none
                rows = e >= 0
                y[rows] *= f.eval(np.ldexp(x[rows], e[rows, None]))
            return np.abs(y)

        yield from integrate_many(integrand, len(batch), tol)


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
    pos = c[k + 1:]
    return FourierFn(float(c[k].real), 2.0 * pos.real, -2.0 * pos.imag)


def _times(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The product of the polynomials of coefficients c and d: their convolution,
    its constant made real and its negative half the conjugate of its positive half."""
    out = np.convolve(c, d)
    k = out.size // 2
    out[k] = out[k].real
    out[:k] = np.conj(out[:k:-1])
    return out


class ProductResult(NamedTuple):
    fn: FourierFn
    dropped_l1: float


def product(f: FourierFn, g: FourierFn) -> ProductResult:
    """Pointwise product by coefficient convolution, exact at every frequency;
    `dropped_l1` is always 0.0."""
    return ProductResult(_from_complex(_times(_to_complex(f), _to_complex(g))), 0.0)
