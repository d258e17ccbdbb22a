"""Stationary process definitions and exact transfer-operator machinery.

Four process families are supported:

* ``DoublingMap`` -- the dyadic Markov chain on [0,1) whose kernel averages
  the two inverse branches of x -> 2x mod 1; invariant law is Lebesgue.
* ``CircleWalk`` -- the symmetric +/-a random walk on the circle for an
  irrational step a; invariant law is Lebesgue.
* ``FiniteChain`` -- a finite-state chain given by a row-stochastic matrix,
  observed through a state-to-value map (no Fourier representation).
* ``IIDLaw`` -- an i.i.d. sequence sampled directly; the observable is the
  identity and moments are carried explicitly.

For the two interval maps the one-step conditional expectation operator K
acts exactly on FourierFn coefficients, which is what every bound evaluation
downstream relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (DegenerateVarianceError, DivergenceError, DomainError,
                     PreconditionError, SchemaError, reject_unknown_keys)
from .fourier import FourierFn, constant_fn, lebesgue_inner
from .numerics import substream

MARTINGALE_TOL = 1e-14
# l1 mass the band of exp(i tau f) may drop from the Jacobi-Anger tails, per step of S_n
_BAND_TAIL = 1e-17
# characteristic-function points handled in one batch of the twisted operator
_TAU_BATCH = 32
_VARIANCE_FLOOR = -1e-12
_COV_TERMS = 64  # lambda(f K^n f), n < _COV_TERMS, that long_run_variance reports
_SIMPLE_EIGENVALUE_TOL = 1e-9

# ---------------------------------------------------------------------------
# High/low split representation of the walk step a
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitReal:
    """A real number stored as an exact double pair hi + lo with |lo| <= ulp(hi).

    The pair is a dyadic rational, so `exact_frac` gives {k*a} of it exactly
    for every k; plain double arithmetic loses ulp(k*a) there.
    """

    hi: float
    lo: float = 0.0

    @property
    def value(self) -> float:
        return self.hi + self.lo

    def as_fraction(self) -> Fraction:
        return Fraction(self.hi) + Fraction(self.lo)

    @cached_property
    def ratio(self) -> tuple:  # hi + lo as (numerator, denominator), computed once
        return self.as_fraction().as_integer_ratio()

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "SplitReal":
        hi = float(fr)
        lo = float(fr - Fraction(hi))
        return cls(hi, lo)


def sqrt2_minus_one() -> SplitReal:
    """sqrt(2) - 1 to ~1e-32, via integer square root."""
    scale = 1 << 220
    num = isqrt(2 * scale * scale)
    return SplitReal.from_fraction(Fraction(num, scale) - 1)


def _continued_fraction_guard(a: float, max_den: int = 10 ** 6, tol: float = 1e-15) -> None:
    """Reject step sizes indistinguishable from a small-denominator rational."""
    x = a
    p0, q0, p1, q1 = 0, 1, 1, 0
    for _ in range(64):
        n = math.floor(x)
        p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0
        if q1 > max_den:
            return
        if q1 > 0 and abs(a - p1 / q1) < tol:
            raise DomainError(
                f"step {a!r} is within {tol:g} of the rational {p1}/{q1}; "
                "an irrational step is required")
        frac = x - n
        if frac <= 0.0:
            raise DomainError(f"step {a!r} is exactly rational")
        x = 1.0 / frac


def exact_frac(a: Union[SplitReal, float], k: int) -> float:
    """Exact fractional part {k*a}, rounded once to double at the end."""
    num, den = a.ratio if isinstance(a, SplitReal) else float(a).as_integer_ratio()
    return (k * num) % den / den  # int / int rounds correctly


# ---------------------------------------------------------------------------
# Process specifications
# ---------------------------------------------------------------------------


class ProcessSpec:
    """Base class of the process families; concrete variants are frozen dataclasses.

    A family implements four hooks, and a fifth, `_characteristic`, where it
    has an exact law of S_n.  The module functions `transfer`,
    `resolvent_tail`, `long_run_variance`, `simulate` and `characteristic`
    check their arguments and then call the hook of the same name.
    """

    label: str = "process"

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _transfer(self, f, steps: int):
        """K^steps f for a checked observable f and steps >= 1 (>= 0 for a FiniteChain)."""
        raise NotImplementedError

    def _resolvent_tail(self, f: FourierFn, m: int) -> FourierFn:
        """sum_{l>=m} K^l f for a centered FourierFn f and m >= 1."""
        raise NotImplementedError

    def _long_run_variance(self, f) -> tuple:
        """(sigma2, covariances) before the sign check; validates f itself."""
        raise NotImplementedError

    def _simulate_block(self, f, n: int, gens):
        """Yield X_1, ..., X_n, one array over the block's replicates per step;
        replicate r draws from gens[r] only, always in the same order."""
        raise NotImplementedError

    def _characteristic(self, f, n: int, taus: np.ndarray) -> Optional["Characteristic"]:
        """E exp(i tau S_n) at each tau for a checked observable, or None where the
        family has no exact law (the default)."""
        return None


@dataclass(frozen=True)
class DoublingMap(ProcessSpec):
    label: str = field(default="doubling_map", init=False)

    def to_dict(self) -> dict:
        return {"type": "doubling_map"}

    def _transfer(self, f, steps):
        # frequency 2^steps * j moves to j; every other frequency averages out
        idx = ((np.arange(f.max_freq >> steps) + 1) << steps) - 1
        return FourierFn(f.constant, f.cos_coeffs[idx], f.sin_coeffs[idx])

    def _resolvent_tail(self, f, m):
        # K^l f = 0 once 2^l exceeds max_freq
        out = constant_fn(0.0)
        l = m
        while f.max_freq >> l:
            out = out + transfer(self, f, l)
            l += 1
        return out

    def _long_run_variance(self, f):
        # the covariance series ends once 2^n exceeds max_freq
        f = _require_fourier(self, f, "long_run_variance")
        covs = [lebesgue_inner(f, f)]
        sigma2 = covs[0]
        n = 1
        while f.max_freq >> n:
            c = lebesgue_inner(f, transfer(self, f, n))
            covs.append(c)
            sigma2 += 2.0 * c
            n += 1
        return sigma2, covs

    def _simulate_block(self, f, n, gens):
        for w in _doubling_states(*_draw_bit_paths(gens, n)):
            yield f.eval(w.astype(np.float64) * 2.0 ** -64)

    def _characteristic(self, f, n, taus):
        # phi_n = pi(g K(g K(... g))) with g = exp(i tau f), its coefficients on
        # |k| <= B from the FFT of its samples; bound: truncation, aliasing and
        # rounding leave |g_B| <= 1 + eps and K contracts sup norms, so the n-fold product
        # moves by at most (1 + eps)^n - 1
        flat = taus.reshape(-1)
        order = np.argsort(np.abs(flat), kind="stable")
        batches = [order[s:s + _TAU_BATCH] for s in range(0, flat.size, _TAU_BATCH)]
        gs, eps = _exp_i_tau_f(f, flat, batches, _BAND_TAIL / n)
        even = not f.sin_coeffs.any()
        values = np.empty(flat.size, dtype=complex)
        for rows, g in zip(batches, gs):
            values[rows] = _twisted_power(g, n, even)
        bound = np.expm1(n * np.log1p(eps))
        return Characteristic(values.reshape(taus.shape), bound.reshape(taus.shape))


@dataclass(frozen=True, eq=False)
class CircleWalk(ProcessSpec):
    a: SplitReal
    label: str = field(default="circle_walk", init=False)

    def __post_init__(self):
        a = self.a
        if isinstance(a, (int, float)):
            a = SplitReal(float(a))
            object.__setattr__(self, "a", a)
        if not 0.0 < a.value < 1.0:
            raise DomainError("circle-walk step must lie in (0,1)")
        _continued_fraction_guard(a.value)

    def cos_step(self, k: int) -> float:
        """cos(2*pi*k*a) from the exact fractional part of k*a."""
        return math.cos(2.0 * math.pi * exact_frac(self.a, k))

    def sin_sq_half_step(self, k: int) -> float:
        """(1 - cos(2*pi*k*a))/2 = sin^2(pi*{k*a}), computed without cancellation."""
        return math.sin(math.pi * exact_frac(self.a, k)) ** 2

    def to_dict(self) -> dict:
        return {"type": "circle_walk", "a_hi": self.a.hi, "a_lo": self.a.lo}

    def _transfer(self, f, steps):
        mult = np.array([self.cos_step(j) ** steps for j in range(1, f.max_freq + 1)])
        return FourierFn(f.constant, f.cos_coeffs * mult, f.sin_coeffs * mult)

    def _resolvent_tail(self, f, m):
        # geometric series per frequency
        mult = np.zeros(f.max_freq)
        for j in range(1, f.max_freq + 1):
            if f.cos_coeffs[j - 1] == 0.0 and f.sin_coeffs[j - 1] == 0.0:
                continue
            denom = 2.0 * self.sin_sq_half_step(j)  # = 1 - cos(2 pi j a)
            if denom < 1e-24:
                raise DivergenceError(
                    f"resonance: cos(2*pi*{j}*a) = 1 within tolerance; tail diverges")
            mult[j - 1] = self.cos_step(j) ** m / denom
        return FourierFn(0.0, f.cos_coeffs * mult, f.sin_coeffs * mult)

    def _long_run_variance(self, f):
        # cotangent closed form per frequency
        f = _require_fourier(self, f, "long_run_variance")
        sigma2 = 0.0
        for j in range(1, f.max_freq + 1):
            w = 0.5 * (f.cos_coeffs[j - 1] ** 2 + f.sin_coeffs[j - 1] ** 2)
            if w == 0.0:
                continue
            frac = exact_frac(self.a, j)
            if min(frac, 1.0 - frac) < 1e-12:
                raise DivergenceError(f"resonance at frequency {j}: variance series diverges")
            sigma2 += w / math.tan(math.pi * frac) ** 2
        covs = [lebesgue_inner(f, f)]
        for n in range(1, _COV_TERMS):
            covs.append(lebesgue_inner(f, transfer(self, f, n)))
        return sigma2, covs

    def _simulate_block(self, f, n, gens):
        # x_t = x0 + k_t a: per frequency j, the angle-sum rule on 2 pi j x0 and 2 pi {j k_t a}
        w0, bits = _draw_bit_paths(gens, n)
        x0 = (w0 >> np.uint64(11)) * 2.0 ** -53  # what Generator.random makes of w0
        num, den = self.a.ratio
        terms = []
        for j in np.flatnonzero((f.cos_coeffs != 0.0) | (f.sin_coeffs != 0.0)) + 1:
            th = 2.0 * math.pi * np.fromiter(  # exact_frac(a, j k) at row n + k, |k| <= n
                (jk * num % den / den for jk in range(-n * j, n * j + 1, j)), float, 2 * n + 1)
            cx, sx = np.cos((2.0 * math.pi * j) * x0), np.sin((2.0 * math.pi * j) * x0)
            parts = ((f.cos_coeffs[j - 1], cx, sx), (f.sin_coeffs[j - 1], sx, -cx))
            terms.append((np.cos(th), np.sin(th), [p for p in parts if p[0] != 0.0]))
        row = np.full(len(gens), n)
        for b in bits:
            row += 2 * b.view(np.int64) - 1
            x = f.constant  # FourierFn.eval's order of terms
            for cos_t, sin_t, parts in terms:
                c, s = cos_t.take(row), sin_t.take(row)
                for coef, p, q in parts:  # a_j (cx c - sx s), then b_j (sx c + cx s)
                    x = x + coef * (p * c - q * s)
            yield x


@dataclass(frozen=True, eq=False)
class FiniteChain(ProcessSpec):
    transition: np.ndarray
    values: np.ndarray
    stationary: Optional[np.ndarray] = None
    label: str = field(default="finite_chain", init=False)

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DomainError("transition matrix must be square")
        if v.shape != (p.shape[0],):
            raise DomainError("values must map each state to one real")
        if np.any(p < -1e-15):
            raise DomainError("transition probabilities must be nonnegative")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise DomainError("transition rows must sum to 1 within 1e-12")
        w, vecs = np.linalg.eig(p.T)
        if np.count_nonzero(np.abs(w - 1.0) < _SIMPLE_EIGENVALUE_TOL) > 1:
            raise DomainError("eigenvalue 1 is not simple within 1e-9: the chain is reducible")
        pi = self.stationary
        if pi is None:
            idx = int(np.argmin(np.abs(w - 1.0)))
            pi = np.real(vecs[:, idx])
            pi = pi / pi.sum()
        pi = np.asarray(pi, dtype=float)
        if np.max(np.abs(pi @ p - pi)) > 1e-12:
            raise DomainError("stationary vector does not satisfy pi P = pi within 1e-12")
        if abs(pi.sum() - 1.0) > 1e-12 or np.any(pi < -1e-13):
            raise DomainError("stationary vector must be a probability vector")
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "stationary", pi)
        for arr in (self.transition, self.values, self.stationary):
            arr.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def to_dict(self) -> dict:
        return {"type": "finite_chain",
                "transition": self.transition.tolist(),
                "stationary": self.stationary.tolist(),
                "values": self.values.tolist()}

    def _transfer(self, f, steps):
        # the observable is a state-value vector and K^m the matrix power
        v = None if isinstance(f, FourierFn) else np.asarray(f, dtype=float)
        if v is None or v.shape != (self.n_states,):
            raise TypeError("FiniteChain transfer expects a state-value vector")
        return np.linalg.matrix_power(self.transition, steps) @ v

    def _long_run_variance(self, f):
        if f is not None:
            raise TypeError("FiniteChain carries its own state-value observable")
        pi = self.stationary
        v = self.values - float(pi @ self.values)
        var0 = float(pi @ (v * v))
        proj = np.outer(np.ones(self.n_states), pi)
        fundamental = np.linalg.solve(np.eye(self.n_states) - self.transition + proj, v)
        sigma2 = var0 + 2.0 * float(pi @ (v * (fundamental - v)))
        covs = [var0]
        pv = v.copy()
        for _ in range(1, _COV_TERMS):
            pv = self.transition @ pv
            covs.append(float(pi @ (v * pv)))
        return sigma2, covs

    def _simulate_block(self, f, n, gens):
        u = np.empty((len(gens), n + 1))
        for r, g in enumerate(gens):
            u[r] = g.random(n + 1)
        last = self.n_states - 1
        state = np.searchsorted(np.cumsum(self.stationary), u[:, 0], side="right").clip(0, last)
        p_cum = np.cumsum(self.transition, axis=1)
        for t in range(1, n + 1):
            state = (p_cum[state] < u[:, t][:, None]).sum(axis=1).clip(0, last)
            yield self.values[state]


@dataclass(frozen=True, eq=False)
class IIDLaw(ProcessSpec):
    """An i.i.d. sequence of centered draws with known moments.

    sampler(generator, size) must return `size` independent draws; moments
    are supplied rather than inferred so exact-oracle paths stay exact.
    """

    sampler: Callable[[np.random.Generator, int], np.ndarray]
    var: float
    abs3: float
    third: float = 0.0
    sup: float = math.inf
    name: str = "iid"
    label: str = field(default="iid", init=False)

    def __post_init__(self):
        if self.var < 0.0 or self.abs3 < 0.0:
            raise DomainError("moments must be nonnegative")

    def to_dict(self) -> dict:
        return {"type": "iid", "law": self.name}

    def _transfer(self, f, steps):
        return constant_fn(f.constant)

    def _resolvent_tail(self, f, m):
        return constant_fn(0.0)

    def _long_run_variance(self, f):
        return self.var, (self.var,)

    def _simulate_block(self, f, n, gens):
        draws = np.empty((len(gens), n))
        for r, g in enumerate(gens):
            draws[r] = self.sampler(g, n)
        yield from draws.T


def iid_rademacher() -> IIDLaw:
    return IIDLaw(sampler=lambda g, n: 2.0 * g.integers(0, 2, n) - 1.0,
                  var=1.0, abs3=1.0, third=0.0, sup=1.0, name="rademacher")


def iid_gaussian(scale: float = 1.0) -> IIDLaw:
    if not 0.0 < scale < math.inf:
        raise DomainError(f"scale must be a positive finite real, got {scale!r}")
    return IIDLaw(sampler=lambda g, n: scale * g.standard_normal(n),
                  var=scale ** 2, abs3=scale ** 3 * math.sqrt(8.0 / math.pi),
                  third=0.0, sup=math.inf, name=f"gaussian:{scale:g}")


def process_from_dict(d: dict) -> ProcessSpec:
    if not isinstance(d, dict):
        raise SchemaError(f"a process must be an object, got {d!r} (field: process)")
    kind = d.get("type")
    if kind == "doubling_map":
        reject_unknown_keys(d, ("type",), "process")
        return DoublingMap()
    if kind == "circle_walk":
        reject_unknown_keys(d, ("type", "a", "a_hi", "a_lo"), "process")
        if "a" in d and (d["a"] != "sqrt2_minus_one" or "a_hi" in d or "a_lo" in d):
            raise DomainError(f"a must be 'sqrt2_minus_one', with no a_hi or a_lo: {d} (field: process.a)")
        return CircleWalk(sqrt2_minus_one() if "a" in d else
                          SplitReal(float(d["a_hi"]), float(d.get("a_lo", 0.0))))
    if kind == "finite_chain":
        reject_unknown_keys(d, ("type", "transition", "values", "stationary"), "process")
        return FiniteChain(np.array(d["transition"], dtype=float),
                           np.array(d["values"], dtype=float),
                           np.array(d["stationary"], dtype=float) if "stationary" in d else None)
    if kind == "iid":
        reject_unknown_keys(d, ("type", "law"), "process")
        law = d.get("law", "rademacher")
        if law == "rademacher":
            return iid_rademacher()
        if not isinstance(law, str) or law.partition(":")[0] != "gaussian":
            raise DomainError(f"unknown iid law {law!r}; valid: rademacher, gaussian[:<scale>] "
                              "(field: process.law)")
        try:
            return iid_gaussian(1.0 if law == "gaussian" else float(law[len("gaussian:"):]))
        except ValueError as exc:
            raise DomainError(f"{exc} (field: process.law)") from None
    raise DomainError(f"unknown process type {kind!r}")


# ---------------------------------------------------------------------------
# Exact laws of S_n from the twisted transfer operator
# ---------------------------------------------------------------------------


class Characteristic(NamedTuple):
    """phi_n(tau) = E exp(i tau S_n) at the requested points, and per point a bound
    on the error the truncation and rounding of the coefficients leave in it."""

    values: np.ndarray
    bound: np.ndarray


def _jacobi_anger_cut(x: np.ndarray, tail: float) -> tuple:
    """Smallest order M with sum_{|m|>M} |J_m(x)| <= tail at every x, and that
    sum's bound at each x, from |J_m(x)| <= (x/2)^m / m!; past m the terms
    fall at least by the ratio (x/2) / (m + 2) < 1."""
    top = 0.5 * float(np.max(x, initial=0.0))
    m = np.arange(int(top), 3 * int(top) + 64)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, m[-1] + 2.0)))])

    def tail_bound(half, m):
        with np.errstate(divide="ignore"):
            lead = np.exp((m + 1) * np.log(half) - log_fact[m + 1])
        return 2.0 * lead / (1.0 - half / (m + 2))

    cut = int(m[np.argmax(tail_bound(top, m) <= tail)])
    return cut, tail_bound(0.5 * x, cut)


def _exp_i_tau_f(f: FourierFn, taus: np.ndarray, batches: list, tail: float) -> tuple:
    """Coefficients of exp(i tau f), per batch of taus one array with a row per
    tau on the batch's frequencies -B..B, and per tau a bound eps on the sup
    norm of the error of their trigonometric polynomial.

    The coefficients are the DFT of exp(i tau f) sampled at 2^k > 2B + 1 points.
    By Jacobi-Anger, frequency j of f contributes the factor sum_m i^|m| J_|m|
    e^{2 pi i m j x} (up to phases); cutting it at |m| <= c_j, where the dropped
    mass d_j falls below tail, gives B = sum_j j c_j.  As sum_m J_m^2 = 1 the
    kept part has l1 mass at most a_j = sqrt(2 c_j + 1), so the coefficients
    beyond B carry at most delta = prod(a_j + d_j) - prod(a_j).  Dropping them
    and their aliases onto -B..B each move the result by at most delta.

    Rounding (u = 2^-53; numpy's cos, sin, exp within 4 ulp): f.eval's term k is
    off by (2.4 u 2 pi k + 5 u)(|a_k| + |b_k|) and each of its m sums by u L, L =
    f.coeff_l1(), and tau f adds u |tau| L, so a sample is off by at most
    s = |tau| u (3 D + (6 + m) L) + 6 u, D = f.derivative_sup_bound().  By
    Parseval the coefficients then err by at most s in 2-norm, and an FFT of 2^t
    points adds t 7u (1 + 6u) < 8 u t (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 24.2); the 2B + 1 kept ones err by sqrt(2B + 1)
    times that in l1 mass, which is what rounding adds to eps.
    """
    radii = np.hypot(f.cos_coeffs, f.sin_coeffs)
    u = 2.0 ** -53
    terms = np.count_nonzero(f.cos_coeffs) + np.count_nonzero(f.sin_coeffs)
    sample_err = u * (3.0 * f.derivative_sup_bound() + (6 + terms) * f.coeff_l1())
    gs, eps = [], np.zeros(taus.size)
    for rows in batches:
        band, delta, kept = 0, 0.0, 1.0
        for j in (np.flatnonzero(radii) + 1).tolist():
            cut, drop = _jacobi_anger_cut(radii[j - 1] * np.abs(taus[rows]), tail)
            band += j * cut
            # one factor at a time: the product difference would round d ~ 1e-18 away
            a = math.sqrt(2 * cut + 1)
            delta = delta * (a + drop) + kept * drop
            kept *= a
        points = 1 << (2 * band + 1).bit_length()
        rounding = np.abs(taus[rows]) * sample_err + 6.0 * u + 8.0 * u * math.log2(points)
        eps[rows] = 2.0 * delta + math.sqrt(2 * band + 1) * rounding
        samples = np.exp(1j * np.outer(taus[rows], f.eval(np.arange(points) / points)))
        gs.append(np.fft.fft(samples)[:, np.arange(-band, band + 1) % points] / points)
    return gs, eps


def _twisted_power(g: np.ndarray, n: int, even: bool) -> np.ndarray:
    """(A^n)_{00} per row of g, for A[l', l] = g_{2l' - l} on |l|, |l'| <= B.

    A is h -> g K(h) on the even coefficients u_l = h_{2l}, the only ones K
    reads.  Small n against the band iterate u <- A u by FFT convolution; large
    n square A, O(log n) products.  For an even g (a cosine-only f) A keeps
    even vectors even and acts on u_0..u_B alone.
    """
    rows, width = g.shape
    band = (width - 1) // 2
    size = 1 << (4 * band).bit_length()          # > 4B: g * u has no wrap-around
    dim = band + 1 if even else width
    # per step, two FFTs cost about four times their 2 size log2(size) flops
    # against the squarings' batched products.  At n = 2..16 and 80-760
    # coefficients per row the FFT steps took 1/3 to 1/40 of the time of n
    # dense row-vector products with A (2 cores)
    if 8 * n * size * math.log2(size) < (n.bit_length() - 1) * dim ** 3:
        spread = np.zeros((rows, size), dtype=complex)
        spread[:, np.arange(-band, band + 1) % size] = g
        g_hat = np.fft.fft(spread)
        u = np.zeros((rows, size), dtype=complex)
        u[:, 0] = 1.0
        pick = (2 * np.arange(-band, band + 1)) % size
        keep = np.arange(-band, band + 1) % size
        for _ in range(n):
            conv = np.fft.ifft(g_hat * np.fft.fft(u))
            u = np.zeros((rows, size), dtype=complex)
            u[:, keep] = conv[:, pick]
        return u[:, 0]
    l = np.arange(band + 1) if even else np.arange(-band, band + 1)
    padded = np.zeros((rows, 6 * band + 1), dtype=complex)
    padded[:, 2 * band:4 * band + 1] = g
    centre = 0 if even else band
    out = np.empty(rows, dtype=complex)
    step = max(1, (1 << 18) // (dim * dim))
    for s in range(0, rows, step):
        base = padded[s:s + step, 2 * l[:, None] - l[None, :] + 3 * band]
        if even:
            # an even u has u_{-l} = u_l: column -l folds onto column l
            base[:, :, 1:] += padded[s:s + step, 2 * l[:, None] + l[None, 1:] + 3 * band]
        row = np.zeros((base.shape[0], 1, dim), dtype=complex)
        row[:, 0, centre] = 1.0
        k = n
        while k:
            if k & 1:
                row = row @ base
            k >>= 1
            if k:
                base = base @ base
        out[s:s + step] = row[:, 0, centre]
    return out


def _require_fourier(spec: ProcessSpec, f, centered_for: Optional[str] = None) -> FourierFn:
    if isinstance(spec, FiniteChain):
        raise TypeError("FiniteChain observables are state-value vectors; "
                        "FourierFn-based operations do not apply")
    if not isinstance(f, FourierFn):
        raise TypeError("observable must be a FourierFn for this process")
    if centered_for and not f.centered:
        raise PreconditionError(f"{centered_for} requires a centered observable")
    return f


# ---------------------------------------------------------------------------
# Transfer operator
# ---------------------------------------------------------------------------


def transfer(spec: ProcessSpec, f, steps: int = 1):
    """m-step conditional expectation operator K^m applied to an observable.

    Exact: the doubling map sends the coefficient at frequency 2^m * j to
    frequency j (odd parts vanish); the circle walk multiplies frequency k by
    cos^m(2*pi*k*a); an i.i.d. law collapses everything to the mean.  For a
    FiniteChain the observable is a state-value vector and K^m is the matrix
    power applied to it.
    """
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    if isinstance(spec, FiniteChain):
        return spec._transfer(f, steps)
    f = _require_fourier(spec, f)
    return f if steps == 0 else spec._transfer(f, steps)


def resolvent_tail(spec: ProcessSpec, f: FourierFn, m: int = 1) -> FourierFn:
    """Sum of K^l f over l >= m, in closed form.

    The doubling map truncates (K^l f = 0 once 2^l exceeds max_freq); the
    circle walk sums the geometric series per frequency.  Raises
    DivergenceError at a rational resonance cos(2*pi*k*a) = 1.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    return spec._resolvent_tail(_require_fourier(spec, f, "resolvent tail"), m)


def is_martingale(spec: ProcessSpec, f) -> bool:
    """True when the one-step conditional expectation of f vanishes."""
    kf = transfer(spec, f, 1)
    if isinstance(kf, FourierFn):
        return kf.is_zero(MARTINGALE_TOL)
    return bool(np.max(np.abs(kf), initial=0.0) < MARTINGALE_TOL)


def characteristic(spec: ProcessSpec, f, n: int, taus) -> Optional[Characteristic]:
    """phi_n(tau) = E exp(i tau S_n) of the stationary partial sum S_n, exactly.

    Returns the values with a bound on each one's error, or None
    where the family has no exact law.  The doubling map iterates the twisted
    transfer operator h -> exp(i tau f) K(h) (Nagaev-Guivarc'h) on Fourier
    coefficients: phi_n = integral of h_n, with h_0 = 1.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if not isinstance(spec, (FiniteChain, IIDLaw)):
        f = _require_fourier(spec, f)
    return spec._characteristic(f, n, np.asarray(taus, dtype=float))


# ---------------------------------------------------------------------------
# Long-run variance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LongRunVariance:
    sigma2: float
    covariances: tuple  # lambda(f * K^n f) for n = 0..len-1 (n=0 is the marginal variance)


def long_run_variance(spec: ProcessSpec, f=None) -> LongRunVariance:
    """Marginal variance plus twice the summed autocovariances, exactly.

    The circle walk uses the cotangent closed form per frequency; the
    doubling map's covariance series terminates once 2^n exceeds max_freq.
    """
    sigma2, covs = spec._long_run_variance(f)
    if sigma2 < _VARIANCE_FLOOR:
        raise DegenerateVarianceError(f"long-run variance {sigma2!r} is negative")
    return LongRunVariance(max(sigma2, 0.0), tuple(covs))


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Replicated partial-sum trajectories with full seed provenance.

    Row r of partial_sums was produced from substream(seed, r); column c
    holds S_{checkpoints[c]} for that replicate.
    """

    n: int
    reps: int
    checkpoints: tuple
    partial_sums: np.ndarray
    seed: int

    def column(self, n: int) -> np.ndarray:
        try:
            idx = self.checkpoints.index(n)
        except ValueError:
            raise DomainError(f"{n} is not a checkpoint of this ensemble") from None
        return self.partial_sums[:, idx]

    def normalized(self, n: int) -> np.ndarray:
        return self.column(n) / math.sqrt(n)


_BITS_PER_WORD = 64
_CHUNK_WORDS = 16  # step words per replicate and raw call: a block holds reps * 16 at a time


def _draw_bit_paths(gens, n: int):
    """Per replicate, 1 + ceil(n/64) raw 64-bit words, _CHUNK_WORDS per call as the
    steps reach them: a head word (in the first call), then n step bits packed low
    bit first.  They are the words of a full-range uint64 `Generator.integers` call,
    and `Generator.random` is (head >> 11) * 2^-53 of the head word.  Returns the
    head words and an iterator over the n per-step bit columns."""
    n_words = (n + _BITS_PER_WORD - 1) // _BITS_PER_WORD
    words = np.empty((1 + min(_CHUNK_WORDS, n_words), len(gens)), dtype=np.uint64)
    for r, g in enumerate(gens):
        words[:, r] = g.bit_generator.random_raw(len(words))

    def bits(chunk):
        for w in range(n_words):
            if w and w % _CHUNK_WORDS == 0:
                chunk = chunk[:n_words - w]
                for r, g in enumerate(gens):
                    chunk[:, r] = g.bit_generator.random_raw(len(chunk))
            for s in range(min(_BITS_PER_WORD, n - w * _BITS_PER_WORD)):
                yield (chunk[w % _CHUNK_WORDS] >> np.uint64(s)) & np.uint64(1)

    return words[0], bits(words[1:])


def _doubling_states(w, bits):
    """The doubling-map states xi_{t+1} = (xi_t + B_t)/2, t >= 0, from xi_0 = w and
    the step bits B_t, exactly, in 64-bit fixed point."""
    for b in bits:
        w = (w >> np.uint64(1)) | (b << np.uint64(63))
        yield w


def simulate(spec: ProcessSpec, f: Optional[FourierFn], n: int, reps: int,
             checkpoints: Optional[Sequence[int]] = None, seed: int = 0,
             block_size: int = 4096) -> PathEnsemble:
    """Simulate `reps` stationary partial-sum paths, recording S at checkpoints.

    Replicate r consumes substream(seed, r) only, so ensembles are
    reproducible bit for bit and independent of block scheduling.  The
    doubling map runs in 64-bit fixed point (the map (x+B)/2 is exact there);
    the circle walk reads (cos, sin)(2 pi {j k a}), {j k a} exact, from tables at its walk k.
    """
    if n < 1 or reps < 1:
        raise DomainError("n and reps must be >= 1")
    if block_size < 1:
        raise DomainError("block_size must be >= 1")
    checkpoints = tuple(sorted(set(int(c) for c in (checkpoints or [n]))))
    if checkpoints[0] < 1 or checkpoints[-1] > n:
        raise DomainError("checkpoints must lie in [1, n]")
    if isinstance(spec, (FiniteChain, IIDLaw)):
        f = None  # these families carry their own observable
    else:
        f = _require_fourier(spec, f, "simulate")

    column = {c: i for i, c in enumerate(checkpoints)}
    sums = np.empty((reps, len(checkpoints)))
    for start in range(0, reps, block_size):
        stop = min(start + block_size, reps)
        gens = [substream(seed, r).generator() for r in range(start, stop)]
        s = np.zeros(stop - start)
        for t, x in enumerate(spec._simulate_block(f, n, gens), 1):
            s += x
            if t in column:
                sums[start:stop, column[t]] = s
    sums.setflags(write=False)
    return PathEnsemble(n=n, reps=reps, checkpoints=checkpoints,
                        partial_sums=sums, seed=seed)


def sample_states(spec: ProcessSpec, step: int, reps: int, seed: int = 0) -> np.ndarray:
    """Each replicate's state at time `step` on the path `simulate` walks (diagnostics)."""
    if step < 0:
        raise DomainError("step must be nonnegative")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    gens = [substream(seed, r).generator() for r in range(reps)]
    if isinstance(spec, DoublingMap):
        w, bits = _draw_bit_paths(gens, step)
        for w in _doubling_states(w, bits):
            pass
        return w.astype(np.float64) * 2.0 ** -64
    if isinstance(spec, CircleWalk):
        w0, bits = _draw_bit_paths(gens, step)
        x0 = (w0 >> np.uint64(11)) * 2.0 ** -53
        k = sum((2 * b.view(np.int64) - 1 for b in bits), np.zeros(reps, dtype=np.int64))
        return np.array([(x + exact_frac(spec.a, int(c))) % 1.0 for x, c in zip(x0, k)])
    raise TypeError("sample_states supports the interval maps only")
