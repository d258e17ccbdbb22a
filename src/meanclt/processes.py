"""Stationary process definitions and exact transfer-operator machinery.

Four process families are supported:

* ``DoublingMap`` -- the dyadic Markov chain on [0,1) whose kernel averages
  the two inverse branches of x -> 2x mod 1; invariant law is Lebesgue.
* ``CircleWalk`` -- the symmetric +/-a random walk on the circle for an
  irrational step a; invariant law is Lebesgue.
* ``FiniteChain`` -- a finite-state chain given by a row-stochastic matrix,
  observed through its own state-to-value map (no Fourier representation).
* ``IIDLaw`` -- an i.i.d. sequence of centered draws, sampled directly, with
  its moments carried explicitly.

The two interval maps are observed through a FourierFn, on whose coefficients
the one-step conditional expectation operator K acts exactly, which is what
every bound evaluation downstream relies on.  The last two families carry
their observable and take none; `check_observable` decides this contract for
every entry point.
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
                     PreconditionError, SchemaError, json_numbers, json_typed,
                     reject_unknown_keys, required)
from .fourier import FourierFn, constant_fn, lebesgue_inner
from .numerics import substream
from .wasserstein import FinitePmf

MARTINGALE_TOL = 1e-14
# l1 mass the band of exp(i tau f) may drop from the Jacobi-Anger tails, per step of S_n
_BAND_TAIL = 1e-17
# characteristic-function points handled in one batch of the twisted operator
_TAU_BATCH = 32
_VARIANCE_FLOOR = -1e-12
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

    A family implements up to five hooks.  The module functions `transfer`,
    `resolvent_tail`, `long_run_variance`, `simulate` and `exact_law` check
    their arguments, the observable by `check_observable`, and then call the
    hook of the same name, which checks nothing.
    """

    label: str = "process"
    # True for a family whose observable is part of its definition, so that it
    # takes no FourierFn: a finite chain's state values, an i.i.d. law's draws
    carries_observable = False

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _transfer(self, f: FourierFn, steps: int) -> FourierFn:
        """K^steps f for a FourierFn f and steps >= 1; FourierFn families only."""
        raise NotImplementedError(f"the {self.label} process has no FourierFn transfer operator")

    def _resolvent_tail(self, f: FourierFn, m: int) -> FourierFn:
        """sum_{l>=m} K^l f for a centered FourierFn f and m >= 1; FourierFn families only."""
        raise NotImplementedError(f"the {self.label} process has no FourierFn transfer operator")

    def _long_run_variance(self, f) -> float:
        """sigma2 before the sign check."""
        raise NotImplementedError

    def _simulate_block(self, f, n: int, gens, checkpoints: tuple):
        """Yield (t, x) for increasing t up to the last of the sorted `checkpoints`:
        x the sum of X over the steps after the previous yield through step t, one
        array over the block's replicates; every checkpoint is the t of a yield.
        Replicate r draws from gens[r] only, always in the same order."""
        raise NotImplementedError

    def _exact_law(self, f, n: int):
        """The law of S_n / sqrt(n) for n >= 1, as a FinitePmf, or S_n's as a function
        tau -> Characteristic, or None where the family has no exact law (the default)."""
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
        sigma2 = lebesgue_inner(f, f)
        n = 1
        while f.max_freq >> n:
            sigma2 += 2.0 * lebesgue_inner(f, transfer(self, f, n))
            n += 1
        return sigma2

    def _simulate_block(self, f, n, gens, checkpoints):
        # one step per yield, from tiles of up to _TILE_ELEMS states over steps and
        # replicates.  Per frequency j the phase j w mod 2^64 is exact: (cos, sin) of its
        # top _PHASE_BITS bits come from tables, of its low bits (< 1.6e-3 rad) from a
        # short series, joined by the angle-sum rule.  The constant of the centered f is
        # dropped
        cos_h, sin_h = _phase_tables()
        top = np.uint64(64 - _PHASE_BITS)
        low = np.uint64((1 << (64 - _PHASE_BITS)) - 1)
        terms = [(np.uint64(j), f.cos_coeffs[j - 1], f.sin_coeffs[j - 1])
                 for j in np.flatnonzero((f.cos_coeffs != 0.0) | (f.sin_coeffs != 0.0)) + 1]
        rows = max(1, _TILE_ELEMS // len(gens))
        step = 0
        for w in _doubling_states(*_draw_words(gens, n), rows):
            x = None
            for j, a, b in terms:
                th = w if j == 1 else w * j
                h = (th >> top).view(np.int64)
                c, s = cos_h.take(h), sin_h.take(h)
                phi = (th & low).view(np.int64) * _TURN
                p = phi * phi
                # cos phi - 1 = p (-1/2 + p/24), sin phi = phi (1 + p (-1/6 + p/120)), in
                # place: a fresh temporary costs about as much as the arithmetic on it
                cm1 = p / 24.0
                cm1 += -0.5
                cm1 *= p
                sn = p / 120.0
                sn += -1.0 / 6.0
                sn *= p
                sn += 1.0
                sn *= phi
                if a != 0.0:  # a (c + (c cm1 - s sn)), then b (s + (s cm1 + c sn))
                    t = c * cm1
                    t -= s * sn
                    t += c
                    t *= a
                    x = t if x is None else x + t
                if b != 0.0:
                    t = s * cm1
                    t += c * sn
                    t += s
                    t *= b
                    x = t if x is None else x + t
            for row in [0.0] * len(w) if x is None else x:  # None: f = 0
                step += 1
                yield step, row

    def _exact_law(self, f, n):
        # phi_n = pi(g K(g K(... g))) with g = exp(i tau f), its coefficients on
        # |k| <= B from the FFT of its samples; bound: truncation, aliasing and
        # rounding leave |g_B| <= 1 + eps and K contracts sup norms, so the n-fold product
        # moves by at most (1 + eps)^n - 1
        def phi(taus) -> Characteristic:
            taus = np.asarray(taus, dtype=float)
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

        return phi


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
        sigma2 = 0.0
        for j in range(1, f.max_freq + 1):
            w = 0.5 * (f.cos_coeffs[j - 1] ** 2 + f.sin_coeffs[j - 1] ** 2)
            if w == 0.0:
                continue
            frac = exact_frac(self.a, j)
            if min(frac, 1.0 - frac) < 1e-12:
                raise DivergenceError(f"resonance at frequency {j}: variance series diverges")
            sigma2 += w / math.tan(math.pi * frac) ** 2
        return sigma2

    def _simulate_block(self, f, n, gens, checkpoints):
        # x_t = x0 + k_t a.  Per frequency j, e_k = (cos, sin) 2 pi {j k a} at row n + k of
        # exact tables, |k| <= n.  A segment of m steps with bits b from walk position k
        # visits k + d_s(b), s = 1..m, so it adds sum_s e_{k + d_s} = e_k D_m(b) with
        # D_m(b) = sum_s e_{d_s(b)}, tabulated per block for every m and M-bit b (D_m reads
        # b's low m bits), and the X it adds sum to Re(W e_k D_m(b)), with the start's
        # rotation W = (a_j - i b_j) e^{2 pi i j x0}.
        # Segments hold up to M steps and end at word ends and checkpoints
        head, words = _draw_words(gens, n)
        x0 = (head >> np.uint64(11)) * 2.0 ** -53  # what Generator.random makes of the head
        top = min(_SEGMENT_BITS, n)  # M: the rows n + d_s(b), |d_s| <= M, stay in the tables
        bits = np.arange(1 << top)[:, None] >> np.arange(top) & 1
        walk = np.cumsum(2 * bits - 1, axis=1)  # d_s(b) at [b, s - 1]
        num, den = self.a.ratio
        terms = []
        for j in np.flatnonzero((f.cos_coeffs != 0.0) | (f.sin_coeffs != 0.0)) + 1:
            th = 2.0 * math.pi * np.fromiter(  # exact_frac(a, j k) at row n + k, |k| <= n
                (jk * num % den / den for jk in range(-n * j, n * j + 1, j)), float, 2 * n + 1)
            cos_t, sin_t = np.cos(th), np.sin(th, out=th)
            # D_m(b) at [m - 1, b]: the sum of e over b's walk, in step order
            seg_cos = np.cumsum(cos_t[n + walk], axis=1).T.copy()
            seg_sin = np.cumsum(sin_t[n + walk], axis=1).T.copy()
            a, b = f.cos_coeffs[j - 1], f.sin_coeffs[j - 1]
            cx, sx = np.cos((2.0 * math.pi * j) * x0), np.sin((2.0 * math.pi * j) * x0)
            terms.append((cos_t, sin_t, seg_cos, seg_sin, a * cx + b * sx, a * sx - b * cx))
        moves = walk.T.copy()  # d_m(b) at [m - 1, b]
        mask = np.uint64((1 << top) - 1)
        row = np.full(len(gens), n)
        t, ends = 0, iter(checkpoints)
        end = next(ends)
        for word, k in words:
            s = 0
            while s < k:
                m = min(top, k - s, end - t)
                pat = (word >> np.uint64(s) & mask).view(np.int64)
                x = None
                for cos_t, sin_t, seg_cos, seg_sin, wr, wi in terms:
                    c, sn = cos_t.take(row), sin_t.take(row)
                    dc, ds = seg_cos[m - 1].take(pat), seg_sin[m - 1].take(pat)
                    v = c * dc  # Re(W e_k D_m(b)) = wr (c dc - sn ds) - wi (c ds + sn dc)
                    v -= sn * ds
                    v *= wr
                    c *= ds
                    c += sn * dc
                    c *= wi
                    v -= c
                    x = v if x is None else x + v
                row += moves[m - 1].take(pat)
                s += m
                t += m
                yield t, 0.0 if x is None else x  # None: f = 0
                if t == end:
                    end = next(ends, None)
                    if end is None:
                        return


@dataclass(frozen=True, eq=False)
class FiniteChain(ProcessSpec):
    transition: np.ndarray
    values: np.ndarray
    stationary: Optional[np.ndarray] = None
    label: str = field(default="finite_chain", init=False)
    carries_observable = True

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

    @property
    def centered_values(self) -> np.ndarray:
        """v - pi.v, the observable X_t = v(xi_t) - E v(xi_0) of the chain."""
        return self.values - float(self.stationary @ self.values)

    def to_dict(self) -> dict:
        return {"type": "finite_chain",
                "transition": self.transition.tolist(),
                "stationary": self.stationary.tolist(),
                "values": self.values.tolist()}

    def _long_run_variance(self, f):
        pi = self.stationary
        v = self.centered_values
        var0 = float(pi @ (v * v))
        proj = np.outer(np.ones(self.n_states), pi)
        fundamental = np.linalg.solve(np.eye(self.n_states) - self.transition + proj, v)
        return var0 + 2.0 * float(pi @ (v * (fundamental - v)))

    def _simulate_block(self, f, n, gens, checkpoints):
        u = _chunked_draws(gens, n + 1, lambda g, k: g.random(k))
        last = self.n_states - 1
        state = np.searchsorted(np.cumsum(self.stationary), next(u), side="right").clip(0, last)
        p_cum = np.cumsum(self.transition, axis=1)
        values = self.centered_values
        for t, ut in enumerate(u, 1):
            state = (p_cum[state] < ut[:, None]).sum(axis=1).clip(0, last)
            yield t, values[state]


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
    name: str = "iid"
    label: str = field(default="iid", init=False)
    carries_observable = True

    def __post_init__(self):
        if self.var < 0.0 or self.abs3 < 0.0:
            raise DomainError("moments must be nonnegative")

    def to_dict(self) -> dict:
        return {"type": "iid", "law": self.name}

    def _long_run_variance(self, f):
        return self.var

    def _simulate_block(self, f, n, gens, checkpoints):
        for t, x in enumerate(_chunked_draws(gens, n, self.sampler), 1):
            yield t, x.copy()

    def _exact_law(self, f, n):
        # of the i.i.d. laws only the signs' S_n has a known law: binomial, by log weights
        if self.name != "rademacher":
            return None
        k = np.arange(n + 1)
        logp = (np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                          for i in k]) - n * math.log(2.0))
        probs = np.exp(logp)
        atoms = (2.0 * k - n) / math.sqrt(n)
        keep = probs > 0.0
        return FinitePmf(atoms[keep], probs[keep])


def iid_rademacher() -> IIDLaw:
    return IIDLaw(sampler=lambda g, n: 2.0 * g.integers(0, 2, n) - 1.0,
                  var=1.0, abs3=1.0, third=0.0, name="rademacher")


def iid_gaussian(scale: float = 1.0) -> IIDLaw:
    if not 0.0 < scale < math.inf:
        raise DomainError(f"scale must be a positive finite real, got {scale!r}")
    return IIDLaw(sampler=lambda g, n: scale * g.standard_normal(n),
                  var=scale ** 2, abs3=scale ** 3 * math.sqrt(8.0 / math.pi),
                  third=0.0, name=f"gaussian:{scale:g}")


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
        return CircleWalk(sqrt2_minus_one() if "a" in d else SplitReal(
            float(json_typed(required(d, "process.a_hi"), float, "process.a_hi")),
            float(json_typed(d.get("a_lo", 0.0), float, "process.a_lo"))))
    if kind == "finite_chain":
        reject_unknown_keys(d, ("type", "transition", "values", "stationary"), "process")
        rows = json_typed(required(d, "process.transition"), list, "process.transition")
        p = [json_numbers(r, f"process.transition[{i}]") for i, r in enumerate(rows)]
        pi = json_numbers(d["stationary"], "process.stationary") if "stationary" in d else None
        return FiniteChain(p, json_numbers(required(d, "process.values"), "process.values"), pi)
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
    # dense row-vector products with A (2 cores).  n = 1 counts as one product: its
    # answer, g_0, is one FFT step away
    if 8 * n * size * math.log2(size) < max(1, n.bit_length() - 1) * dim ** 3:
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


def check_observable(spec: ProcessSpec, f, centered: bool = False) -> Optional[FourierFn]:
    """f, checked against the one observable contract of the library: a family
    that carries its observable (`carries_observable`) takes None, every other
    family a FourierFn, with constant term 0 where `centered` asks for it.
    Raises TypeError, or PreconditionError for an uncentered f."""
    if spec.carries_observable:
        if f is not None:
            raise TypeError(f"the {spec.label} process carries its own observable; give none")
    elif not isinstance(f, FourierFn):
        raise TypeError(f"the {spec.label} process needs a FourierFn observable")
    elif centered and not f.centered:
        raise PreconditionError("the observable must be centered: its constant term must be 0")
    return f


# ---------------------------------------------------------------------------
# Transfer operator
# ---------------------------------------------------------------------------


def transfer(spec: ProcessSpec, f, steps: int = 1):
    """m-step conditional expectation operator K^m applied to an observable.

    Exact: the doubling map sends the coefficient at frequency 2^m * j to
    frequency j (odd parts vanish); the circle walk multiplies frequency k by
    cos^m(2*pi*k*a).
    """
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    f = check_observable(spec, f)
    return f if steps == 0 else spec._transfer(f, steps)


def resolvent_tail(spec: ProcessSpec, f: FourierFn, m: int = 1) -> FourierFn:
    """Sum of K^l f over l >= m, in closed form.

    The doubling map truncates (K^l f = 0 once 2^l exceeds max_freq); the
    circle walk sums the geometric series per frequency.  Raises
    DivergenceError at a rational resonance cos(2*pi*k*a) = 1.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    return spec._resolvent_tail(check_observable(spec, f, centered=True), m)


def is_martingale(spec: ProcessSpec, f) -> bool:
    """True when the one-step conditional expectation of f vanishes."""
    return transfer(spec, f, 1).is_zero(MARTINGALE_TOL)


def exact_law(spec: ProcessSpec, f, n: int):
    """The exact law of the stationary partial sum S_n, or None where the family
    has none.

    The i.i.d. Rademacher law gives the FinitePmf of S_n / sqrt(n).  The
    doubling map gives tau -> Characteristic: phi_n(tau) = E exp(i tau S_n)
    at each tau with a bound on each value's error, from the twisted transfer
    operator h -> exp(i tau f) K(h) (Nagaev-Guivarc'h) iterated on Fourier
    coefficients: phi_n = integral of h_n, with h_0 = 1.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    return spec._exact_law(check_observable(spec, f), n)


# ---------------------------------------------------------------------------
# Long-run variance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LongRunVariance:
    sigma2: float


def long_run_variance(spec: ProcessSpec, f=None) -> LongRunVariance:
    """Marginal variance plus twice the summed autocovariances, exactly.

    The circle walk uses the cotangent closed form per frequency; the
    doubling map's covariance series terminates once 2^n exceeds max_freq.
    """
    sigma2 = spec._long_run_variance(check_observable(spec, f, centered=True))
    if sigma2 < _VARIANCE_FLOOR:
        raise DegenerateVarianceError(f"long-run variance {sigma2!r} is negative")
    return LongRunVariance(max(sigma2, 0.0))


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Replicated partial-sum trajectories.

    Row r of partial_sums was produced from substream(seed, r) of the seed
    `simulate` was given; column c holds S_{checkpoints[c]} for that replicate.
    """

    n: int
    reps: int
    checkpoints: tuple
    partial_sums: np.ndarray

    def column(self, n: int) -> np.ndarray:
        try:
            idx = self.checkpoints.index(n)
        except ValueError:
            raise DomainError(f"{n} is not a checkpoint of this ensemble") from None
        return self.partial_sums[:, idx]

    def normalized(self, n: int) -> np.ndarray:
        return self.column(n) / math.sqrt(n)


_BLOCK_SIZE = 4096  # replicates simulated side by side; the sums do not depend on it
_BITS_PER_WORD = 64
_CHUNK_WORDS = 16  # step words per replicate and raw call: a block holds reps * 16 at a time
_CHUNK_STEPS = _CHUNK_WORDS * _BITS_PER_WORD  # a chain's or i.i.d. law's draws per call
_TILE_ELEMS = 8192  # doubling states per tile: each float temporary of a tile is 64 KiB
_PHASE_BITS = 12  # the doubling kernel's (cos, sin) tables hold 2^12 angles, 32 KiB each
_SEGMENT_BITS = 8  # most steps the circle walk sums with one table product
_TURN = 2.0 * math.pi * 2.0 ** -64  # radians per unit of a 64-bit phase


def _phase_tables() -> tuple:
    """cos and sin of 2 pi h / 2^_PHASE_BITS for every h, built in about 30 us.  Only
    the first octant is evaluated, where the argument pi h / 2^(_PHASE_BITS - 1) < 1
    rounds least; the rest follows by symmetry, exactly."""
    q = 1 << (_PHASE_BITS - 3)
    x = np.arange(q + 1) * (math.pi / (4 * q))
    c8, s8 = np.cos(x), np.sin(x)
    c4, s4 = np.concatenate([c8, s8[q - 1:0:-1]]), np.concatenate([s8, c8[q - 1:0:-1]])
    return np.concatenate([c4, -s4, -c4, s4]), np.concatenate([s4, c4, -s4, -c4])


def _draw_words(gens, n: int):
    """Per replicate, 1 + ceil(n/64) raw 64-bit words, _CHUNK_WORDS per call as the
    steps reach them: a head word (in the first call), then n step bits packed low
    bit first.  They are the words of a full-range uint64 `Generator.integers` call,
    and `Generator.random` is (head >> 11) * 2^-53 of the head word.  Returns the
    head words and an iterator over (step words, steps in them), one row over the
    replicates per word; a row is overwritten once the iterator moves on."""
    n_words = (n + _BITS_PER_WORD - 1) // _BITS_PER_WORD
    words = np.empty((1 + min(_CHUNK_WORDS, n_words), len(gens)), dtype=np.uint64)
    for r, g in enumerate(gens):
        words[:, r] = g.bit_generator.random_raw(len(words))

    def rows(chunk):
        for w in range(n_words):
            if w and w % _CHUNK_WORDS == 0:
                chunk = chunk[:n_words - w]
                for r, g in enumerate(gens):
                    chunk[:, r] = g.bit_generator.random_raw(len(chunk))
            yield chunk[w % _CHUNK_WORDS], min(_BITS_PER_WORD, n - w * _BITS_PER_WORD)

    return words[0], rows(words[1:])


def _doubling_states(w, words, rows: int):
    """The doubling-map states xi_{t+1} = (xi_t + B_t)/2, t >= 0, from xi_0 = w and
    the step words, exactly, in 64-bit fixed point: s steps into a word its low s
    bits, last bit on top, sit above the state it started from, shifted down by s.
    Yields tiles of up to `rows` consecutive states, one row per step over the
    replicates, each a fresh array; a tile ends at the end of its word."""
    for word, k in words:
        for s in range(0, k, rows):
            sh = np.arange(s + 1, min(s + rows, k) + 1, dtype=np.uint64)[:, None]
            tile = (w >> sh) | (word << (np.uint64(_BITS_PER_WORD) - sh))
            yield tile
        w = tile[-1]


def _chunked_draws(gens, size: int, draw):
    """Per replicate `size` values of draw(g, k), at most _CHUNK_STEPS per call as the
    steps reach them; yields one array over the replicates per value, a row of one
    buffer that the next chunk overwrites.  Chunked `Generator.random`, `integers`
    and `standard_normal` calls return the values of one call, bit for bit."""
    chunk = np.empty((min(_CHUNK_STEPS, size), len(gens)))
    for start in range(0, size, _CHUNK_STEPS):
        rows = chunk[:min(_CHUNK_STEPS, size - start)]
        for r, g in enumerate(gens):
            rows[:, r] = draw(g, len(rows))
        yield from rows


def simulate(spec: ProcessSpec, f: Optional[FourierFn], n: int, reps: int,
             checkpoints: Optional[Sequence[int]] = None, seed: int = 0) -> PathEnsemble:
    """Simulate `reps` stationary partial-sum paths, recording S at checkpoints.

    Replicate r consumes substream(seed, r) only, so ensembles are
    reproducible bit for bit and independent of block scheduling.  The
    family's hook hands over sums of X over runs of steps that end at every
    checkpoint, and S adds them up.  The doubling map, a finite chain and an
    i.i.d. law hand over one step at a time.  The doubling map's states are
    64-bit fixed-point words (the map (x+B)/2 is exact there), each taken
    straight from its step word, and it reads (cos, sin)(2 pi j w 2^-64) from
    the exact phase j w mod 2^64 and a table.  It computes states and X in
    tiles of up to _TILE_ELEMS over steps and replicates, and hands over each
    tile's rows one step at a time, so the sums do not depend on the tile.
    The circle walk hands over a segment of up to _SEGMENT_BITS steps at a
    time: the steps only move the walk k, so per frequency the segment's sum
    is the table entry (cos, sin) 2 pi {j k a}, {j k a} exact, at its start,
    times a table of the segment's own step bits, rotated by the start x0.
    Neither calls FourierFn.eval.  A finite chain and an i.i.d. law draw at
    most 1024 values per replicate at a time.
    """
    if n < 1 or reps < 1:
        raise DomainError("n and reps must be >= 1")
    checkpoints = tuple(sorted(set(int(c) for c in (checkpoints or [n]))))
    if checkpoints[0] < 1 or checkpoints[-1] > n:
        raise DomainError("checkpoints must lie in [1, n]")
    f = check_observable(spec, f, centered=True)

    column = {c: i for i, c in enumerate(checkpoints)}
    sums = np.empty((reps, len(checkpoints)))
    for start in range(0, reps, _BLOCK_SIZE):
        stop = min(start + _BLOCK_SIZE, reps)
        gens = [substream(seed, r).generator() for r in range(start, stop)]
        s = np.zeros(stop - start)
        for t, x in spec._simulate_block(f, n, gens, checkpoints):
            s += x
            if t in column:
                sums[start:stop, column[t]] = s
    sums.setflags(write=False)
    return PathEnsemble(n=n, reps=reps, checkpoints=checkpoints, partial_sums=sums)
