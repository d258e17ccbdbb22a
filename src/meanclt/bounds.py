"""Deterministic evaluation of explicit mean-CLT convergence bounds.

All conditional-expectation norms reduce to transfer-operator images of
explicit FourierFn observables and are integrated by deterministic
quadrature; nothing here is Monte Carlo, so bound values carry no
statistical error.  I.i.d. inputs short-circuit to their exact closed forms.

No ingredient of a bound depends on n: `bound_terms` computes them once for
the largest n of a run, each n sums their prefixes, and nothing is kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateVarianceError, DomainError, PreconditionError
from .fourier import (FourierFn, FourierStack, _to_complex, constant_fn, l1_norms,
                      lebesgue_inner, product)
from .numerics import DEFAULT_TOLERANCE, Tolerance, integrate_many, integrate_unit
from .processes import (IIDLaw, ProcessSpec, check_observable, is_martingale,
                        long_run_variance, resolvent_tail, transfer)

# the quadrature tolerance of E|X0|^3 and the `jan` norms; the bound norms take DEFAULT_TOLERANCE
_NORM_TOL = Tolerance(1e-12, 1e-12, 44)
_STABLE_EPS = 1e-16
_TAIL_CHUNK = 64  # resolvent tails of the non-adapted correction per batch request


def _l1_norms(f: FourierFn, requests: Iterable[tuple[str, FourierFn]]) -> list:
    """[||g||_1 for ("l1", g), ||f g||_1 for ("weighted", g)]: 0.0 for a zero g,
    the rest from `fourier.l1_norms` at DEFAULT_TOLERANCE in request order, a
    weighted one as the exact product f g.  The requests are read one by one,
    so a generator of them keeps no more than one batch of functions alive."""
    zero = []

    def items():
        for kind, g in requests:
            zero.append(g.is_zero())
            if not zero[-1]:
                yield _to_complex(product(f, g).fn if kind == "weighted" else g), ()

    norms = iter(list(l1_norms(items(), DEFAULT_TOLERANCE)))  # reads every request, filling `zero`
    return [0.0 if z else next(norms) for z in zero]


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
    abs3 = integrate_unit(lambda x: np.abs(f.eval(x)) ** 3, _NORM_TOL)
    return MomentSummary(sigma2=sigma2, var0=var0, abs3=abs3, lam=abs3 / sigma2)


# ---------------------------------------------------------------------------
# Conditional-drift norms
# ---------------------------------------------------------------------------


def _drift_sums(spec: ProcessSpec, f: FourierFn, count: int, compensator=None) -> list:
    """R_0, ..., R_k with R_j = sum_{d<=j} K^d z and R_0 = 0, for z = f or
    z = compensator(spec, f): through R_count, or to the R_k that every later
    R_m equals, the list ending at the first increment that is at most 1e-16
    of the sum in coefficient l1."""
    if check_observable(spec, f) is None:  # a family that carries its observable
        raise NotImplementedError(f"the {spec.label} process has no FourierFn transfer operator")
    sums = [constant_fn(0.0)]
    term = f if compensator is None else compensator(spec, f)
    while len(sums) <= count:
        term = transfer(spec, term, 1)
        if term.coeff_l1() <= _STABLE_EPS * (1.0 + sums[-1].coeff_l1()):
            break
        sums.append(sums[-1] + term)
    return sums


def _partial_sums(spec: ProcessSpec, f: FourierFn, count: int) -> list:
    """[R_0, ..., R_count] of `_drift_sums` for z = f: every entry past its
    last is the same object as the last one."""
    sums = _drift_sums(spec, f, count)
    return sums[:count + 1] + [sums[-1]] * (count + 1 - len(sums))


def _drift_values(spec: ProcessSpec, f: FourierFn, count: int, compensator, values) -> list:
    """[v(R_1), ..., v(R_count)] for the `_drift_sums` R_j, with values(sums)
    giving [v(s) for s in sums]: it is asked once, for the distinct R_j."""
    known = values(_drift_sums(spec, f, count, compensator))
    return [known[min(m, len(known) - 1)] for m in range(1, count + 1)]


def _drift_pairs(f: FourierFn, ws: Sequence[FourierFn]) -> list:
    """[(||w||_1, ||f w||_1) for w in ws], as one batch request."""
    norms = _l1_norms(f, [(kind, w) for w in ws for kind in ("l1", "weighted")])
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
    fg, _ = product(f, resolvent_tail(spec, f, 1))
    f2, _ = product(f, f)
    return (f2 + 2.0 * fg).shift_constant(-sigma2)


def _tail_norms(spec: ProcessSpec, f: FourierFn, count: int) -> list:
    """[||X0 sum_{l>=m} E_0(X_l)||_1 for m = 1..count], _TAIL_CHUNK per request,
    ending before the first zero tail (all later ones vanish as well for the
    interval maps) or the first norm no larger than 1e-16 of the one before."""
    tails = (resolvent_tail(spec, f, m) for m in range(1, count + 1))
    tails = itertools.takewhile(lambda tail: not tail.is_zero(), tails)
    norms = []
    while chunk := [("weighted", tail) for tail in itertools.islice(tails, _TAIL_CHUNK)]:
        for norm in _l1_norms(f, chunk):
            if norms and norm <= _STABLE_EPS * (1.0 + norms[-1]):
                return norms
            norms.append(norm)
    return norms


def nonadapted_correction(spec: ProcessSpec, f: Optional[FourierFn], n: int) -> float:
    """sum_m (sigma sqrt m)^{-1} || X0 sum_{l>=m} E_0(X_l) ||_1
       + sum_m (2m)^{-1} || (1 + X0^2/sigma^2) E_0(S_m) ||_1, for m = 1..n,
    as `projective_d1_bound` reports it; 0 for martingale differences and
    i.i.d. inputs."""
    return projective_d1_bound(spec, f, n).correction


# ---------------------------------------------------------------------------
# Bound terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundTerms:
    """What the `kind` bound ("martingale" or "projective") of (spec, f)
    sums at every n <= n_max: the moments, the pairs (||W_m||_1, ||X0 W_m||_1)
    for m <= isqrt(2 n_max) (W_m = U_m for the martingale kind), and the
    projective correction's `_tail_norms` and ||(1 + X0^2/sigma^2) E_0(S_m)||_1
    for m <= n_max, empty for the martingale kind and i.i.d. laws."""

    kind: str
    spec: ProcessSpec
    f: Optional[FourierFn]
    n_max: int
    moments: MomentSummary
    pairs: tuple
    tails: tuple = ()
    one_plus: tuple = ()


_COMPENSATORS = {"martingale": _variance_compensator, "projective": _compensator}


def bound_terms(kind: str, spec: ProcessSpec, f: Optional[FourierFn], n_max: int) -> BoundTerms:
    """The `BoundTerms` of the `kind` bound to n_max, each distinct drift sum valued once."""
    if kind not in _COMPENSATORS:
        raise DomainError(f"bound kind must be one of {sorted(_COMPENSATORS)}, got {kind!r}")
    if n_max < 1:
        raise DomainError("n must be >= 1")
    mom = moments(spec, f)
    cutoff = math.isqrt(2 * n_max)
    if isinstance(spec, IIDLaw):
        return BoundTerms(kind, spec, f, n_max, mom, ((0.0, 0.0),) * cutoff)
    pairs = _drift_values(spec, f, cutoff, _COMPENSATORS[kind],
                          lambda ws: _drift_pairs(f, ws))
    if kind == "martingale":
        return BoundTerms(kind, spec, f, n_max, mom, tuple(pairs))
    one_plus = product(f, f).fn * (1.0 / mom.sigma2) + constant_fn(1.0)
    one_plus_norms = _drift_values(spec, f, n_max, None, lambda sums: _l1_norms(
        f, (("l1", product(one_plus, s).fn) for s in sums)))
    return BoundTerms(kind, spec, f, n_max, mom, tuple(pairs),
                      tuple(_tail_norms(spec, f, n_max)), tuple(one_plus_norms))


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
              terms: Optional[BoundTerms]) -> BoundReport:
    """13 sigma/6 + (Lambda/6) log(1+2n) + (nonadapted correction)
       + sum_{m<=sqrt(2n)} (||X0 W_m||_1 + 2 sigma ||W_m||_1)/(m sigma^2),
    summed from prefixes of the terms, which are built for n alone if None."""
    if n < 1:
        raise DomainError("n must be >= 1")
    terms = terms or bound_terms(kind, spec, f, n)
    if (terms.kind, terms.spec, terms.f) != (kind, spec, f) or terms.n_max < n:
        raise DomainError(f"not the {kind} bound terms of this spec and f up to n = {n}")
    mom = terms.moments
    constant = 13.0 * mom.sigma / 6.0
    log_term = mom.lam / 6.0 * math.log1p(2.0 * n)
    cutoff = math.isqrt(2 * n)
    series = [(wl1 + 2.0 * mom.sigma * l1) / (m * mom.sigma2)
              for m, (l1, wl1) in enumerate(terms.pairs[:cutoff], 1)]
    tails = [norm / (mom.sigma * math.sqrt(m)) for m, norm in enumerate(terms.tails[:n], 1)]
    one_plus = [norm / (2.0 * m) for m, norm in enumerate(terms.one_plus[:n], 1)]
    corr = sum(tails, 0.0) + sum(one_plus)
    total = constant + log_term + float(sum(series)) + corr
    return BoundReport(kind=kind, n=n, total=total, constant=constant,
                       log_term=log_term, series=tuple(series), m_cutoff=cutoff,
                       correction=corr)


def martingale_d1_bound(spec: ProcessSpec, f: Optional[FourierFn], n: int,
                        terms: Optional[BoundTerms] = None) -> BoundReport:
    """Distance bound for stationary martingale differences:

        13 sigma/6 + (Lambda/6) log(1+2n)
        + sum_{m<=sqrt(2n)} (||X0 U_m||_1 + 2 sigma ||U_m||_1)/(m sigma^2).

    terms: `bound_terms("martingale", spec, f, n_max)`, n_max >= n.
    """
    return _d1_bound("martingale", spec, f, n, terms)


def projective_d1_bound(spec: ProcessSpec, f: Optional[FourierFn], n: int,
                        terms: Optional[BoundTerms] = None) -> BoundReport:
    """Distance bound for stationary sequences with a convergent resolvent:

        13 sigma/6 + (Lambda/6) log(1+2n)
        + sum_{m<=sqrt(2n)} (||X0 W_m||_1 + 2 sigma ||W_m||_1)/(m sigma^2)
        + nonadapted correction.

    Coincides with the martingale bound (correction 0, W_m = U_m) on
    martingale-difference inputs.
    terms: `bound_terms("projective", spec, f, n_max)`, n_max >= n.
    """
    return _d1_bound("projective", spec, f, n, terms)


def second_moment_norms(spec: ProcessSpec, f: Optional[FourierFn], m: int) -> tuple[float, float]:
    """(||E_0(S_m^2) - m sigma^2||_1, ||E_0(J_m)||_1) for bounded observables.

    With R_j = sum_{d<=j} K^d f, the lagged products collapse to one sum:
    E_0(S_m^2) = sum_{k<=m} K^k (f^2 + 2 f R_{m-k}).  J_m is the m-step
    smoothing of the resolvent limit.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    if isinstance(spec, IIDLaw):
        return (0.0, 0.0)
    total = constant_fn(-m * long_run_variance(spec, f).sigma2)
    f2, _ = product(f, f)
    sums = _partial_sums(spec, f, m)
    for k in range(1, m + 1):
        total = total + transfer(spec, f2 + 2.0 * product(f, sums[m - k])[0], k)
    g_tail = resolvent_tail(spec, f, 1)
    j_m = transfer(spec, g_tail, m)
    return tuple(_l1_norms(f, [("l1", total), ("l1", j_m)]))


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
        stack = FourierStack([_to_complex(gs[k]) for k in live])
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
