"""Deterministic evaluation of explicit mean-CLT convergence bounds.

All conditional-expectation norms reduce to transfer-operator images of
explicit FourierFn observables and are integrated by deterministic
quadrature; nothing here is Monte Carlo, so bound values carry no
statistical error.  I.i.d. inputs short-circuit to their exact closed forms.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateVarianceError, DomainError, PreconditionError
from .fourier import FourierFn, FourierStack, constant_fn, l1_norms, lebesgue_inner, product
from .numerics import RandomStream, Tolerance, integrate_many, integrate_unit
from .processes import (IIDLaw, ProcessSpec, check_observable, is_martingale,
                        long_run_variance, resolvent_tail, transfer)

_NORM_TOL = Tolerance(1e-12, 1e-12, 44)
_STABLE_EPS = 1e-16
_TAIL_CHUNK = 64  # resolvent tails of the non-adapted correction per batch request

# Quadrature results per observable: the bounds at each n of a run integrate
# many of the same functions again, and the entries die with the observable.
_QUAD_MEMO: "weakref.WeakKeyDictionary[FourierFn, dict]" = weakref.WeakKeyDictionary()


def _memo_key(kind: str, g: FourierFn, tol: Tolerance) -> tuple:
    return (kind, tol, g.constant, g.cos_coeffs.tobytes(), g.sin_coeffs.tobytes())


def _l1_norms(f: FourierFn, requests: Iterable[tuple[str, FourierFn]],
              tol: Tolerance = _NORM_TOL) -> list:
    """[||g||_1 for ("l1", g), ||f g||_1 for ("weighted", g)], remembered for
    the run's observable f.

    The norms not yet remembered go to `fourier.l1_norms` in request order,
    a weighted one as the exact product f g, formed only then.  The requests
    are read one by one, so a generator of them keeps no more than one batch
    of functions alive.
    """
    memo = _QUAD_MEMO.setdefault(f, {})
    keys, misses = [], {}

    def items():
        for kind, g in requests:
            key = _memo_key(kind, g, tol)
            keys.append(key)
            if key not in memo and key not in misses and not g.is_zero():
                misses[key] = None
                yield (product(f, g).fn if kind == "weighted" else g), ()

    norms = list(l1_norms(items(), tol))
    memo.update(zip(misses, norms))
    # a zero g is never integrated and never remembered
    return [memo.get(key, 0.0) for key in keys]


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentSummary:
    """Moment ingredients of the bound formulas.

    lam is the third-moment ratio E|X0|^3 / sigma^2.
    """

    sigma2: float
    var0: float
    abs3: float
    lam: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def moments(spec: ProcessSpec, f: Optional[FourierFn] = None) -> MomentSummary:
    """Marginal and long-run moment summary of the observed process: an i.i.d.
    law's given moments, or those of a centered FourierFn observable."""
    f = check_observable(spec, f, centered=True)
    if isinstance(spec, IIDLaw):
        if spec.var <= 0.0:
            raise DegenerateVarianceError("iid law has zero variance")
        return MomentSummary(sigma2=spec.var, var0=spec.var, abs3=spec.abs3,
                             lam=spec.abs3 / spec.var)
    if f is None:
        raise NotImplementedError(f"the {spec.label} process has no moment summary")
    sigma2 = long_run_variance(spec, f).sigma2
    if sigma2 <= 0.0:
        raise DegenerateVarianceError("long-run variance is not positive")
    var0 = lebesgue_inner(f, f)
    memo = _QUAD_MEMO.setdefault(f, {})
    key = _memo_key("abs3", f, _NORM_TOL)
    if key not in memo:
        memo[key] = integrate_unit(lambda x: np.abs(f.eval(x)) ** 3, _NORM_TOL)
    abs3 = memo[key]
    return MomentSummary(sigma2=sigma2, var0=var0, abs3=abs3, lam=abs3 / sigma2)


# ---------------------------------------------------------------------------
# Conditional-drift norms
# ---------------------------------------------------------------------------


@dataclass
class _Sequence:
    """A sequence remembered for the run's observable and extended on demand:
    its entries so far, whether it has ended, and for the drift sums R_j the
    last increment K^j z (None while j = 0)."""

    values: list
    stopped: bool = False
    term: Optional[FourierFn] = None


def _drift_sums(spec: ProcessSpec, f: FourierFn, count: int, compensator=None) -> list:
    """R_0, ..., R_k with R_j = sum_{d<=j} K^d z and R_0 = 0, for z = f or
    z = compensator(spec, f): through R_count at least, or to the R_k that
    every later R_m equals.

    Once an increment falls to 1e-16 of the sum in coefficient l1 it is
    dropped, and the list ends.  It is remembered for the run's observable f
    and extended on demand, so the bounds at the n of a run sum one sequence
    once; z is formed only while R_1 is missing, and is not kept, f being the
    memo's key.  The list is the memo's own: callers only read it.
    """
    if check_observable(spec, f) is None:  # a family that carries its observable
        raise NotImplementedError(f"the {spec.label} process has no FourierFn transfer operator")
    state = _QUAD_MEMO.setdefault(f, {}).setdefault(("sums", spec, compensator),
                                                    _Sequence([constant_fn(0.0)]))
    sums = state.values
    while len(sums) <= count and not state.stopped:
        if state.term is not None:
            z = state.term
        else:
            z = f if compensator is None else compensator(spec, f)
        term = transfer(spec, z, 1)
        if term.coeff_l1() <= _STABLE_EPS * (1.0 + sums[-1].coeff_l1()):
            state.stopped = True
        else:
            state.term = term
            sums.append(sums[-1] + term)
    return sums


def _partial_sums(spec: ProcessSpec, f: FourierFn, count: int, compensator=None) -> list:
    """[R_0, ..., R_count] of `_drift_sums`: every entry past its last is the
    same object as the last one."""
    sums = _drift_sums(spec, f, count, compensator)
    return sums[:count + 1] + [sums[-1]] * (count + 1 - len(sums))


def _drift_values(spec: ProcessSpec, f: FourierFn, count: int, compensator, key: tuple,
                  values) -> list:
    """[v(R_1), ..., v(R_count)] for the `_drift_sums` R_j, with values(sums)
    giving [v(s) for s in sums].  The values of the distinct R_j are
    remembered under `key` for the run's observable f and extended on
    demand: each is computed once, and a shorter request computes none."""
    sums = _drift_sums(spec, f, count, compensator)
    last = min(count, len(sums) - 1)
    known = _QUAD_MEMO.setdefault(f, {}).setdefault(key, [])
    if len(known) <= last:
        known.extend(values(sums[len(known):last + 1]))
    return [known[min(m, last)] for m in range(1, count + 1)]


def _drift_pairs(f: FourierFn, ws: Sequence[FourierFn], tol: Tolerance) -> list:
    """[(||w||_1, ||f w||_1) for w in ws], as one batch request."""
    norms = _l1_norms(f, [(kind, w) for w in ws for kind in ("l1", "weighted")], tol)
    return list(zip(norms[::2], norms[1::2]))


def _variance_compensator(spec: ProcessSpec, f: FourierFn) -> FourierFn:
    """X0^2 - Var X0, whose drift sums are the U_m of a martingale difference."""
    if not is_martingale(spec, f):
        raise PreconditionError("the observable must be a martingale difference")
    f2, _ = product(f, f)
    return f2.shift_constant(-lebesgue_inner(f, f))


def _compensator(spec: ProcessSpec, f: FourierFn) -> FourierFn:
    """Z0 = X0^2 - sigma^2 + 2 X0 sum_{l>=1} E_0(X_l), whose drift sums are the W_m."""
    sigma2 = long_run_variance(spec, f).sigma2
    g_tail = resolvent_tail(spec, f, 1)
    fg, _ = product(f, g_tail)
    f2, _ = product(f, f)
    return (f2 + 2.0 * fg).shift_constant(-sigma2)


def _drift_norms(spec, f, m, tol, compensator) -> tuple[float, float]:
    if m < 1:
        raise DomainError("m must be >= 1")
    if isinstance(spec, IIDLaw):
        return (0.0, 0.0)
    w = _partial_sums(spec, f, m, compensator)[-1]
    return _drift_pairs(f, [w], tol)[0]


def variance_drift_norms(spec: ProcessSpec, f: Optional[FourierFn], m: int,
                         tol: Tolerance = _NORM_TOL) -> tuple[float, float]:
    """(||U_m||_1, ||X0 U_m||_1) for U_m = E_0(X_1^2+...+X_m^2) - m Var X0.

    Requires a martingale-difference observable.
    """
    return _drift_norms(spec, f, m, tol, _variance_compensator)


def projective_drift_norms(spec: ProcessSpec, f: Optional[FourierFn], m: int,
                           tol: Tolerance = _NORM_TOL) -> tuple[float, float]:
    """(||W_m||_1, ||X0 W_m||_1) for the centered compensator

        Z0 = X0^2 - sigma^2 + 2 X0 sum_{l>=1} E_0(X_l),
        W_m = E_0(Z_1 + ... + Z_m).
    """
    return _drift_norms(spec, f, m, tol, _compensator)


@dataclass(frozen=True)
class CorrectionReport:
    """Non-adapted first-order correction."""

    total: float


def nonadapted_correction(spec: ProcessSpec, f: Optional[FourierFn], n: int,
                          tol: Tolerance = _NORM_TOL) -> CorrectionReport:
    """sum_m (sigma sqrt m)^{-1} || X0 sum_{l>=m} E_0(X_l) ||_1
       + sum_m (2m)^{-1} || (1 + X0^2/sigma^2) E_0(S_m) ||_1, for m = 1..n.

    Vanishes identically for martingale differences and i.i.d. inputs.  Once
    the underlying conditional functions stabilize, the remaining weights are
    summed against the cached norm.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if isinstance(spec, IIDLaw):
        return CorrectionReport(0.0)
    mom = moments(spec, f)
    sigma, sigma2 = mom.sigma, mom.sigma2

    # the tails go to quadrature _TAIL_CHUNK at a time; the sum stops at the
    # first zero tail (all later ones vanish as well for the interval maps)
    # or at the first norm that no longer moves it.  The norms it keeps, and
    # whether it stopped, are remembered for the run's observable
    tails = _QUAD_MEMO.setdefault(f, {}).setdefault(("tails", spec, tol), _Sequence([]))
    norms = tails.values
    while len(norms) < n and not tails.stopped:
        chunk = []
        for m in range(len(norms) + 1, min(len(norms) + 1 + _TAIL_CHUNK, n + 1)):
            tail_m = resolvent_tail(spec, f, m)
            if tail_m.is_zero():
                tails.stopped = True
                break
            chunk.append(("weighted", tail_m))
        for norm in _l1_norms(f, chunk, tol):
            if norms and norm <= _STABLE_EPS * (1.0 + norms[-1]):
                tails.stopped = True
                break
            norms.append(norm)
    first = 0.0
    for m, norm in enumerate(norms[:n], 1):
        first += norm / (sigma * math.sqrt(m))

    def one_plus_norms(sums):
        f2, _ = product(f, f)
        one_plus = f2 * (1.0 / sigma2) + constant_fn(1.0)
        return _l1_norms(f, (("l1", product(one_plus, s_m)[0]) for s_m in sums), tol)

    norms = _drift_values(spec, f, n, None, ("one_plus", spec, tol), one_plus_norms)
    second = sum(norm / (2.0 * m) for m, norm in enumerate(norms, 1))
    return CorrectionReport(total=first + second)


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Term-by-term evaluation of a distance bound at sample size n.

    total = constant + log_term + sum(series) (+ correction); the series has
    exactly m_cutoff = floor(sqrt(2n)) entries.
    """

    kind: str
    n: int
    total: float
    constant: float
    log_term: float
    series: tuple
    m_cutoff: int
    correction: float = 0.0

    def to_dict(self) -> dict:
        return dict(asdict(self), series=list(self.series))


def _d1_bound(kind: str, spec: ProcessSpec, f: Optional[FourierFn], n: int,
              tol: Tolerance, compensator, corrected: bool) -> BoundReport:
    """13 sigma/6 + (Lambda/6) log(1+2n)
       + sum_{m<=sqrt(2n)} (||X0 W_m||_1 + 2 sigma ||W_m||_1)/(m sigma^2)
       (+ nonadapted correction), with W_m the drift sums of compensator(spec, f).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    mom = moments(spec, f)
    constant = 13.0 * mom.sigma / 6.0
    log_term = mom.lam / 6.0 * math.log1p(2.0 * n)
    cutoff = int(math.isqrt(2 * n))
    corr = 0.0
    if isinstance(spec, IIDLaw):
        series = [0.0] * cutoff
    else:
        norms = _drift_values(spec, f, cutoff, compensator, ("series", spec, compensator, tol),
                              lambda ws: _drift_pairs(f, ws, tol))
        series = [(wl1 + 2.0 * mom.sigma * l1) / (m * mom.sigma2)
                  for m, (l1, wl1) in enumerate(norms, 1)]
        if corrected:
            corr = nonadapted_correction(spec, f, n, tol).total
    total = constant + log_term + float(sum(series)) + corr
    return BoundReport(kind=kind, n=n, total=total, constant=constant,
                       log_term=log_term, series=tuple(series), m_cutoff=cutoff,
                       correction=corr)


def martingale_d1_bound(spec: ProcessSpec, f: Optional[FourierFn], n: int,
                        tol: Tolerance = _NORM_TOL) -> BoundReport:
    """Distance bound for stationary martingale differences:

        13 sigma/6 + (Lambda/6) log(1+2n)
        + sum_{m<=sqrt(2n)} (||X0 U_m||_1 + 2 sigma ||U_m||_1)/(m sigma^2).
    """
    return _d1_bound("martingale", spec, f, n, tol, _variance_compensator, corrected=False)


def projective_d1_bound(spec: ProcessSpec, f: Optional[FourierFn], n: int,
                        tol: Tolerance = _NORM_TOL) -> BoundReport:
    """Distance bound for stationary sequences with a convergent resolvent:

        13 sigma/6 + (Lambda/6) log(1+2n)
        + sum_{m<=sqrt(2n)} (||X0 W_m||_1 + 2 sigma ||W_m||_1)/(m sigma^2)
        + nonadapted correction.

    Coincides with the martingale bound (correction 0, W_m = U_m) on
    martingale-difference inputs.
    """
    return _d1_bound("projective", spec, f, n, tol, _compensator, corrected=True)


def second_moment_norms(spec: ProcessSpec, f: Optional[FourierFn], m: int,
                        tol: Tolerance = _NORM_TOL) -> tuple[float, float]:
    """(||E_0(S_m^2) - m sigma^2||_1, ||E_0(J_m)||_1) for bounded observables.

    With R_j = sum_{d<=j} K^d f, the lagged products collapse to one sum:
    E_0(S_m^2) = sum_{k<=m} K^k (f^2 + 2 f R_{m-k}).  J_m is the m-step
    smoothing of the resolvent limit.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    if isinstance(spec, IIDLaw):
        return (0.0, 0.0)
    mom = moments(spec, f)
    f2, _ = product(f, f)
    sums = _partial_sums(spec, f, m)
    total = constant_fn(-m * mom.sigma2)
    for k in range(1, m + 1):
        total = total + transfer(spec, f2 + 2.0 * product(f, sums[m - k])[0], k)
    g_tail = resolvent_tail(spec, f, 1)
    j_m = transfer(spec, g_tail, m)
    return tuple(_l1_norms(f, [("l1", total), ("l1", j_m)], tol))


def variance_l32_norm(spec: ProcessSpec, f: Optional[FourierFn], l: int) -> float:
    """|| E_0(X_l^2) - Var X0 ||_{3/2} for a martingale-difference observable:
    `variance_l32_norms` of the one lag l."""
    return variance_l32_norms(spec, f, [l])[0]


def variance_l32_norms(spec: ProcessSpec, f: Optional[FourierFn], lags: Sequence[int]) -> list:
    """[variance_l32_norm(spec, f, l) for l in lags], each to _NORM_TOL.

    The nonzero norms come from one integrate_many of a `FourierStack` of
    their polynomials; each keeps its own panels, so it is its value alone.
    """
    lags = list(lags)
    if any(l < 1 for l in lags):
        raise DomainError("l must be >= 1")
    if isinstance(spec, IIDLaw):
        return [0.0] * len(lags)
    compensator = _variance_compensator(spec, f)
    gs = [transfer(spec, compensator, l) for l in lags]
    live = [k for k, g in enumerate(gs) if not g.is_zero()]
    norms = [0.0] * len(lags)
    if live:
        stack = FourierStack([gs[k] for k in live])
        values = integrate_many(lambda owner, x: np.abs(stack.eval(x, owner[:, None])) ** 1.5,
                                len(live), _NORM_TOL)
        for k, value in zip(live, values):
            norms[k] = value ** (2.0 / 3.0)
    return norms


def cubic_moment_sum(spec: ProcessSpec, f: Optional[FourierFn], l: int) -> float:
    """Third-moment matching target of a length-l dependency window:

        E(X0^3) + 3 sum_{i<=l} E(X0 X_i^2 + X0^2 X_i)
                + 6 sum_{i<=l} sum_{j<i} E(X0 X_j X_i).

    With R_j = sum_{d<=j} K^d f this is the single sum
    E f^3 + 3 <f^2, R_l> + sum_{i<=l} <f, K^i (3 f^2 + 6 f R_{l-i})>.
    Stabilizes exactly for the doubling map once 2^l exceeds max_freq.
    """
    if l < 0:
        raise DomainError("l must be >= 0")
    if isinstance(spec, IIDLaw):
        return spec.third
    f2, _ = product(f, f)
    f3, _ = product(f2, f)
    sums = _partial_sums(spec, f, l)
    total = f3.mean + 3.0 * lebesgue_inner(f2, sums[l])
    for i in range(1, l + 1):
        total += lebesgue_inner(f, transfer(spec, 3.0 * f2 + 6.0 * product(f, sums[l - i])[0], i))
    return total


# ---------------------------------------------------------------------------
# Three-moment matching distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeMomentDist:
    """Gaussian-plus-two-point law with prescribed moments (0, beta2, beta3).

    The law is Z + B with Z ~ N(0, beta2/2) independent of the two-point B
    taking value m with probability t and m_prime with probability 1 - t.
    """

    beta2: float
    beta3: float
    m: float
    m_prime: float
    t: float

    def sample(self, stream: RandomStream, size: int) -> np.ndarray:
        gen = stream.generator()
        z = gen.standard_normal(size) * math.sqrt(self.beta2 / 2.0)
        b = np.where(gen.random(size) < self.t, self.m, self.m_prime)
        return z + b

    def analytic_moments(self) -> tuple[float, float, float]:
        """Exact (mean, variance, third moment) of the law.

        The complement 1 - t is recovered from the centering identity
        t m + (1-t) m' = 0 so heavy-weight cases keep full precision.
        """
        t, m, mp = self.t, self.m, self.m_prime
        one_minus_t = t * m / (-mp)
        eb = t * m + one_minus_t * mp
        eb2 = t * m * m + one_minus_t * mp * mp
        eb3 = t * m ** 3 + one_minus_t * mp ** 3
        return (eb, self.beta2 / 2.0 + eb2, eb3)


def three_moment_distribution(beta2: float, beta3: float) -> ThreeMomentDist:
    """Construct the matching law: m = (beta3 + sqrt(beta3^2 + beta2^3/2))/beta2,
    m' = -beta2/(2m), t = beta2^3 / (2 beta2^3 + 4 beta3 (beta3 + sqrt(...))).

    For beta3 < 0 the sum beta3 + root is evaluated through its conjugate
    beta2^3 / (2 (root - beta3)) to avoid cancellation.
    """
    if beta2 <= 0.0:
        raise DomainError("beta2 must be positive")
    root = math.sqrt(beta3 * beta3 + beta2 ** 3 / 2.0)
    s = beta3 + root if beta3 >= 0.0 else beta2 ** 3 / (2.0 * (root - beta3))
    m = s / beta2
    m_prime = -beta2 * beta2 / (2.0 * s)
    t = beta2 ** 3 / (2.0 * beta2 ** 3 + 4.0 * beta3 * s)
    return ThreeMomentDist(beta2=beta2, beta3=beta3, m=m, m_prime=m_prime, t=t)


# ---------------------------------------------------------------------------
# Classical i.i.d. reference bound and rate fitting
# ---------------------------------------------------------------------------


def zolotarev_bound(abs3: float, var: float) -> float:
    """Upper bound E|X|^3 / (2 sigma^2) for the i.i.d. limit constant."""
    if var <= 0.0:
        raise DomainError("variance must be positive")
    return abs3 / (2.0 * var)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float


def rate_fit(points: Sequence[tuple[int, float]]) -> RateFit:
    """Least squares of log d against log n over (n, d) pairs."""
    if len(points) < 3:
        raise DomainError("rate fitting needs at least 3 points")
    ns = np.array([p[0] for p in points], dtype=float)
    ds = np.array([p[1] for p in points], dtype=float)
    if len(set(ns.tolist())) != ns.size:
        raise DomainError("sample sizes must be distinct")
    if np.any(ds <= 0.0):
        raise DomainError("distances must be positive for a log-log fit")
    x, y = np.log(ns), np.log(ds)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    sxy = float(((x - xbar) * (y - ybar)).sum())
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    syy = float(((y - ybar) ** 2).sum())
    r2 = 1.0 if syy == 0.0 else 1.0 - float((resid ** 2).sum()) / syy
    return RateFit(slope=slope, intercept=intercept, r2=r2)
