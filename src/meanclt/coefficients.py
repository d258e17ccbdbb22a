"""Dependence and mixing coefficients, covariance-inequality oracles, and
Diophantine sums for the circle walk.

The suprema defining the dependence coefficients run over infinite index and
threshold sets; everything here reports certified lower bounds obtained from
finite windows and exact breakpoint grids (the objectives are piecewise
constant between breakpoints, so finite-law maximizations are exact).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, PrecisionError, ResourceError
from .fourier import FourierFn, product
from .numerics import Tolerance, integrate_unit
from .processes import (CircleWalk, DoublingMap, FiniteChain, IIDLaw, ProcessSpec,
                        SplitReal, transfer)
from .wasserstein import EmpiricalSample, FinitePmf

# ---------------------------------------------------------------------------
# Tabulated mixing sequences and quantile functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlphaSeq:
    """Nonincreasing tabulation alpha(0), alpha(1), ... with values in [0,1].

    Values exceeding 1 are clipped with a warning: the defining norm is
    bounded by 1 analytically, so any excess is numerical noise.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size == 0:
            raise DomainError("alpha tabulation must be nonempty")
        if np.any(v < -1e-12):
            raise DomainError("alpha values must be nonnegative")
        if np.any(v > 1.0 + 1e-12):
            warnings.warn("alpha values above 1 clipped to the trivial bound", stacklevel=2)
        v = np.clip(v, 0.0, 1.0)
        if np.any(np.diff(v) > 1e-12):
            raise DomainError("alpha tabulation must be nonincreasing")
        v = np.minimum.accumulate(v)
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


def alpha_inverse(a: AlphaSeq, u: float) -> int:
    """Count of tabulated indices i with u < alpha(i)."""
    if not 0.0 < u < 1.0:
        raise DomainError("u must lie in (0,1)")
    return int(np.count_nonzero(u < a.values))


@dataclass(frozen=True, eq=False)
class QuantileSeq:
    """A nonincreasing, nonnegative step function u -> Q(u) on (0,1).

    Represented by breakpoints 0 < u_1 < ... < u_{r-1} < 1 and r values:
    Q(u) = values[i] on [u_i, u_{i+1}) with u_0 = 0, u_r = 1 (right-continuous
    at the breakpoints).
    """

    breakpoints: np.ndarray
    step_values: np.ndarray

    def __post_init__(self):
        br = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        sv = np.asarray(self.step_values, dtype=float).reshape(-1)
        if sv.size != br.size + 1:
            raise DomainError("need one more value than breakpoints")
        if br.size and (br[0] <= 0.0 or br[-1] >= 1.0 or np.any(np.diff(br) <= 0.0)):
            raise DomainError("breakpoints must be strictly increasing inside (0,1)")
        if np.any(sv < 0.0):
            raise DomainError("quantile values must be nonnegative")
        if np.any(np.diff(sv) > 1e-12):
            raise DomainError("quantile values must be nonincreasing")
        object.__setattr__(self, "breakpoints", br)
        object.__setattr__(self, "step_values", sv)
        br.setflags(write=False)
        sv.setflags(write=False)

    @classmethod
    def constant(cls, c: float) -> "QuantileSeq":
        return cls(np.zeros(0), np.array([float(c)]))

    def value(self, u: Union[float, np.ndarray]):
        idx = np.searchsorted(self.breakpoints, np.asarray(u, dtype=float), side="right")
        out = self.step_values[idx]
        return out if out.ndim else float(out)

    def integral_pow(self, p: int, t: float) -> float:
        """Exact integral of Q^p over (0, t]."""
        if t <= 0.0:
            return 0.0
        t = min(t, 1.0)
        edges = np.concatenate([[0.0], self.breakpoints, [1.0]])
        hi = np.minimum(edges[1:], t)
        lo = edges[:-1]
        widths = np.clip(hi - lo, 0.0, None)
        return float((widths * self.step_values ** p).sum())


def quantile_from_sample(s: EmpiricalSample) -> QuantileSeq:
    """Generalized inverse of the empirical tail function x -> P(X > x).

    Q(u) is the smallest x with P(X > x) <= u; for a sorted sample this is
    the (m - floor(u m))-th order statistic, a right-continuous step function
    with breakpoints at k/m.
    """
    x = s.values
    if np.any(x < 0.0):
        raise DomainError("quantile tabulations are for nonnegative laws; pass |sample|")
    m = x.size
    br = np.arange(1, m) / m
    vals = x[::-1].copy()  # value on [k/m, (k+1)/m) is the (m-k)-th smallest
    return QuantileSeq(br, vals)


# ---------------------------------------------------------------------------
# Mixing-integral condition diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixingIntegralReport:
    """Partial sums of sum_k k^b int_0^{alpha(k)} Q^p du and their diagnostics."""

    series_value: float
    integral_form: float
    partial_sums: tuple
    last_decade_ratio: float


def mixing_integral(a: AlphaSeq, q: QuantileSeq, power: int, weight: int,
                    kmax: int) -> MixingIntegralReport:
    """Weighted tail-integral series over a tabulated mixing sequence.

    Also evaluates the equivalent single-integral form obtained by swapping
    sum and integral (the counting weight sum_{k<=kmax} k^b 1_{u<alpha(k)});
    the two agree exactly by Fubini, which the tests pin down.  Divergence is
    a reported diagnosis (growth ratio), never an error.
    """
    if power < 1 or weight < 0 or kmax < 1:
        raise DomainError("need power >= 1, weight >= 0, kmax >= 1")
    if kmax >= len(a):
        raise DomainError(f"alpha tabulation has {len(a)} entries; kmax {kmax} out of range")
    partial = []
    total = 0.0
    for k in range(1, kmax + 1):
        total += k ** weight * q.integral_pow(power, a[k])
        partial.append(total)
    integral = weighted_tail_integral(a, q, power, weight, kmax)
    half = partial[max(0, (kmax - 1) // 2)]
    ratio = math.inf if half == 0.0 and total > 0.0 else (total / half if half > 0.0 else 1.0)
    return MixingIntegralReport(series_value=total, integral_form=integral,
                                partial_sums=tuple(partial), last_decade_ratio=ratio)


def weighted_tail_integral(a: AlphaSeq, q: QuantileSeq, power: int, weight: int,
                           kmax: int) -> float:
    """int_0^1 W(u) Q^p(u) du with W(u) = sum_{k=1}^{kmax} k^b 1_{u < alpha(k)}.

    Computed as an honest integral over the tabulated range (exactly the
    Fubini transpose of the mixing series); exposed separately so the
    series/integral agreement is a testable identity.
    """
    if kmax >= len(a):
        raise DomainError("kmax out of tabulated range")
    # W(u) is a step function with breakpoints at the distinct alpha values
    alphas = a.values[1:kmax + 1]
    ks = np.arange(1, kmax + 1, dtype=float) ** weight
    edges = np.unique(np.concatenate([[0.0], alphas]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        w = float(ks[alphas > lo].sum())
        if w == 0.0:
            continue
        total += w * (q.integral_pow(power, hi) - q.integral_pow(power, lo))
    return total


# ---------------------------------------------------------------------------
# Dependence coefficients (windowed suprema, exact per index)
# ---------------------------------------------------------------------------


def _nested_future_fn(spec: ProcessSpec, f: FourierFn, gaps: Sequence[int],
                      cap: int) -> tuple[FourierFn, float]:
    """K^{g1}(f * K^{g2}(f * ... K^{gr} f)) as a FourierFn, with dropped mass."""
    dropped = 0.0
    fn = f
    for g in reversed(gaps[1:]):
        fn = transfer(spec, fn, g)
        fn, d = product(f, fn, cap)
        dropped += d
    fn = transfer(spec, fn, gaps[0])
    return fn, dropped


@functools.lru_cache(maxsize=None)
def _binomial_weights(steps: int) -> tuple[np.ndarray, np.ndarray]:
    r = np.arange(steps + 1)
    w = np.array([math.comb(steps, int(j)) for j in r], dtype=float) * 0.5 ** steps
    offsets = steps - 2 * r
    w.setflags(write=False)
    offsets.setflags(write=False)
    return w, offsets


def _theta_windows(i: int, j: int, gap: int, window: int) -> list:
    """Distinct (past gaps, future gaps) pairs of the multiindices theta_coeff
    ranges over, in first-seen order; by stationarity the norm depends on
    nothing else."""
    def diffs(t: tuple) -> tuple:
        return tuple(b - a for a, b in zip(t, t[1:]))

    span = range(window + 1)
    return list(dict.fromkeys(
        (diffs(past), (gap + fut[0],) + diffs(fut))
        for past in itertools.combinations_with_replacement(span, i)
        for fut in itertools.combinations_with_replacement(span, j - i)))


def theta_coeff(spec: ProcessSpec, f: Optional[FourierFn], i: int, j: int,
                gap: int, window: int,
                tol: Tolerance = Tolerance(1e-10, 1e-10, 40)) -> float:
    """Windowed lower bound of the product-dependence coefficient.

    Maximum over multiindices 0 = k_1 <= ... <= k_i <= window and
    k_i + gap <= k_{i+1} <= ... <= k_j <= k_i + gap + window of

        || X_{k_1} ... X_{k_i} ( E_{k_i}(prod future) - E(prod future) ) ||_1.

    The inner conditional expectation is an exact nest of transfer and
    product operations; the outer L1 norm is a deterministic quadrature
    (exact enumeration for finite chains).  Enlarging the window never
    decreases the result.
    """
    if not (0 <= i < j <= 4):
        raise DomainError("need 0 <= i < j <= 4")
    if window < 0:
        raise DomainError("window must be nonnegative")
    if gap < 0:
        raise DomainError("gap must be nonnegative")
    if isinstance(spec, IIDLaw):
        if gap < 1:
            raise DomainError("iid theta coefficients need gap >= 1")
        return 0.0
    if isinstance(spec, FiniteChain):
        norm = _chain_theta_norm(spec, i)
    elif isinstance(f, FourierFn):
        norm = functools.partial(_map_theta_norm, spec, f, i, tol)
    else:
        raise TypeError("interval-map theta coefficients need a FourierFn observable")
    best = 0.0
    for past_gaps, gaps in _theta_windows(i, j, gap, window):
        best = max(best, norm(past_gaps, gaps))
    return best


def _map_theta_norm(spec: ProcessSpec, f: FourierFn, i: int, tol: Tolerance,
                    past_gaps: tuple, gaps: tuple) -> float:
    h, _ = _nested_future_fn(spec, f, gaps, cap=1 << 14)
    h0 = h.shift_constant(-h.constant)
    if h0.is_zero(1e-300):
        return 0.0
    if i == 0:
        return integrate_unit(lambda x: np.abs(h0.eval(x)), tol)
    if isinstance(spec, DoublingMap):
        # earlier coordinates are deterministic doubling images of the
        # latest one, so the whole product is a function of one state
        dts = [sum(past_gaps[t:]) for t in range(i)]

        def integrand(x):
            out = np.abs(h0.eval(x))
            for d in dts:
                out = out * np.abs(f.eval(np.ldexp(1.0, d) * x))
            return out

        return integrate_unit(integrand, tol)
    # CircleWalk: the m-step kernel is a binomial average of shifts,
    # so the nested conditional of |.|-products evaluates pointwise; each
    # level evaluates all its shifts of x in one call
    a_val = spec.a.value

    def chain_cond(x, t=0):
        if t == len(past_gaps):
            return np.abs(f.eval(x)) * np.abs(h0.eval(x))
        w, off = _binomial_weights(past_gaps[t])
        shifted = np.mod(x + (off * a_val)[:, None], 1.0)
        rows = chain_cond(shifted.reshape(-1), t + 1).reshape(shifted.shape)
        out = np.zeros_like(x)
        for wt, row in zip(w, rows):
            out += wt * row
        return np.abs(f.eval(x)) * out

    return integrate_unit(chain_cond, tol)


def _chain_theta_norm(spec: FiniteChain, i: int) -> Callable[[tuple, tuple], float]:
    """The theta norm of a finite chain as a function of (past gaps, future
    gaps): exact enumeration of the past states, from cached powers of P."""
    p = spec.transition
    pi = spec.stationary
    vc = spec.values - float(pi @ spec.values)
    n = spec.n_states
    powers = [np.eye(n)]

    def pk(k: int) -> np.ndarray:
        while len(powers) <= k:
            powers.append(powers[-1] @ p)
        return powers[k]

    def norm(past_gaps: tuple, gaps: tuple) -> float:
        h = vc
        for g in reversed(gaps[1:]):
            h = vc * (pk(g) @ h)
        h = pk(gaps[0]) @ h
        h0 = h - float(pi @ h)
        if i == 0:
            return float(pi @ np.abs(h0))
        # joint enumeration over past states s_1 .. s_i
        val = 0.0
        for states in itertools.product(range(n), repeat=i):
            prob = pi[states[0]]
            for g, a, b in zip(past_gaps, states, states[1:]):
                prob *= pk(g)[a, b]
            if prob == 0.0:
                continue
            w = np.prod([vc[s] for s in states])
            val += prob * abs(w) * abs(h0[states[-1]])
        return val

    return norm


# ---------------------------------------------------------------------------
# Exact strong-mixing coefficients
# ---------------------------------------------------------------------------


def _alpha_doubling(indices: Sequence[int], grid: int) -> float:
    """Certified lower bound for the indicator-product mixing norm.

    Conditionally on the present state y, the chain value at time t is
    uniform over the 2^t branch points (y+m)/2^t, and earlier coordinates are
    deterministic images of later ones; for fixed thresholds the conditional
    expectation is a step function of y with at most one breakpoint per
    coordinate, so the L1 norm integrates exactly.  Thresholds are searched
    over the dyadic grid of size 2^grid together with the branch breakpoints.
    """
    il = indices[-1]
    leaves = np.arange(1 << il, dtype=np.int64)
    residues = [np.asarray(leaves % (1 << t), dtype=float) for t in indices]
    scales = [float(1 << t) for t in indices]

    # dyadic threshold grid of resolution 2^-grid on every coordinate; it
    # contains the branch breakpoints of index t whenever t <= grid (raise
    # grid to cover them; the result is a certified lower bound either way)
    thresholds = np.arange(1, 1 << grid) / (1 << grid)

    def objective(xs: Sequence[float]) -> float:
        # y-breakpoints: where some indicator column switches
        brks = sorted({0.0, 1.0} | {float(np.mod(s * x, 1.0))
                                    for s, x in zip(scales, xs)})
        pieces = []
        widths = []
        for lo, hi in zip(brks[:-1], brks[1:]):
            if hi - lo <= 0.0:
                continue
            y = 0.5 * (lo + hi)
            prod = np.ones(leaves.size)
            for s, res, x in zip(scales, residues, xs):
                prod *= ((y + res) / s <= x) - x
            pieces.append(prod.mean())
            widths.append(hi - lo)
        pieces = np.asarray(pieces)
        widths = np.asarray(widths)
        mean = float((pieces * widths).sum())
        return float((np.abs(pieces - mean) * widths).sum())

    best = 0.0
    for xs in itertools.product(thresholds, repeat=len(indices)):
        best = max(best, objective(xs))
    return min(best, 1.0)


def _threshold_grid(coords: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct values (the value itself when
    there is only one): every distinct indicator column, once."""
    uniq = np.unique(coords)
    if uniq.size == 1:
        return uniq
    return 0.5 * (uniq[:-1] + uniq[1:])


def _alpha_finite_chain(spec: FiniteChain, indices: Sequence[int]) -> float:
    n = spec.n_states
    p = spec.transition
    pi = spec.stationary
    vals = spec.values
    thresholds = _threshold_grid(vals)
    steps = [np.linalg.matrix_power(p, indices[0])] + \
        [np.linalg.matrix_power(p, b - a) for a, b in zip(indices[:-1], indices[1:])]
    marg_cdf = {x: float(pi[vals <= x].sum()) for x in thresholds}

    def objective(xs) -> float:
        # h(s) = E(prod_j (1_{v(xi_{t_j}) <= x_j} - F(x_j)) | xi_0 = s), by
        # backward induction over the chain segments
        g = np.ones(n)
        for x, step in zip(reversed(xs), reversed(steps)):
            ind = (vals <= x).astype(float) - marg_cdf[x]
            g = step @ (ind * g)
        mean = float(pi @ g)
        return float(pi @ np.abs(g - mean))

    best = 0.0
    for xs in itertools.product(thresholds, repeat=len(indices)):
        best = max(best, objective(xs))
    return min(best, 1.0)


def alpha_exact(spec: ProcessSpec, indices: Sequence[int], grid: int = 10) -> float:
    """Strong-mixing coefficient of the chain over the given future times.

    Supremum (reported as a certified grid lower bound) over threshold
    tuples of || E(prod_j (1_{xi_{t_j} <= x_j} - P(xi <= x_j)) | present)
    - E(prod_j ...) ||_1.  Supports the doubling map (dyadic branch
    enumeration) and finite chains (exact); the result never exceeds 1.
    `grid` is the doubling map's dyadic threshold level; a finite chain
    searches every threshold between its distinct values instead.
    """
    indices = tuple(int(t) for t in indices)
    if len(indices) == 0 or len(indices) > 3:
        raise DomainError("between 1 and 3 future indices are supported")
    if any(t < 1 for t in indices) or any(b <= a for a, b in zip(indices[:-1], indices[1:])):
        raise DomainError("indices must be strictly increasing and >= 1")
    if grid < 1:
        raise DomainError("grid must be >= 1")
    if isinstance(spec, DoublingMap):
        if indices[-1] > 14:
            raise ResourceError("doubling-map mixing norms need max index <= 14 "
                                f"(got {indices[-1]}: 2^{indices[-1]} branches)")
        if (1 << grid) * len(indices) ** 2 * (1 << indices[-1]) > 1 << 40:
            raise ResourceError("threshold grid too large for the requested indices")
        return _alpha_doubling(indices, grid)
    if isinstance(spec, FiniteChain):
        # the threshold grid is exact, one threshold per distinct indicator, and
        # `grid` is unused; the budget is what the default grid used to allow
        if len(_threshold_grid(spec.values)) ** len(indices) > 1 << 20:
            raise ResourceError("threshold enumeration too large: more than 2^20 tuples")
        return _alpha_finite_chain(spec, indices)
    if isinstance(spec, IIDLaw):
        return 0.0
    raise TypeError("alpha_exact supports DoublingMap, FiniteChain and IIDLaw")


def alpha_tabulation(spec: ProcessSpec, kmax: int, grid: int = 8) -> AlphaSeq:
    """Tabulate single-index mixing coefficients alpha(0..kmax).

    alpha(0) is the exact lag-0 value 1/2 (the present state is measurable,
    so the norm is sup_x 2x(1-x)); later entries come from alpha_exact.
    """
    vals = [0.5]
    for k in range(1, kmax + 1):
        vals.append(alpha_exact(spec, (k,), grid=grid))
    return AlphaSeq(np.array(vals))


# ---------------------------------------------------------------------------
# Appendix covariance-inequality oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A finitely supported law on R^k, k <= 4, support <= 64 points."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pr = np.asarray(self.probs, dtype=float).reshape(-1)
        if pts.ndim != 2 or pts.shape[0] != pr.size:
            raise DomainError("points must be (n, k) with matching probabilities")
        if pts.shape[1] > 4:
            raise DomainError("at most 4 coordinates are supported")
        if pts.shape[0] > 64:
            raise DomainError("at most 64 support points are supported")
        if np.any(pr < 0.0) or abs(pr.sum() - 1.0) > 1e-12:
            raise DomainError("probabilities must be nonnegative and sum to 1 within 1e-12")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)
        pts.setflags(write=False)
        pr.setflags(write=False)

    @property
    def k(self) -> int:
        return self.points.shape[1]

    def marginal(self, axis: int) -> FinitePmf:
        return FinitePmf.from_weighted(self.points[:, axis], self.probs)

    @classmethod
    def from_dict(cls, d: dict) -> "JointPmf":
        return cls(np.array(d["points"], dtype=float), np.array(d["probs"], dtype=float))

    def to_dict(self) -> dict:
        return {"points": self.points.tolist(), "probs": self.probs.tolist()}


def _step_values(edges: np.ndarray, vals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The step function equal to vals[i] on [edges[i], edges[i+1]), at u."""
    return vals[np.searchsorted(edges, u, side="right") - 1]


def _tail_quantile_steps(values, probs) -> tuple[np.ndarray, np.ndarray]:
    """Q(u) = the smallest v with P(V > v) <= u, for V = values[i] with
    probability probs[i], as (edges, values) steps on [0, 1)."""
    law = FinitePmf.from_weighted(values, probs)
    strict_tail = np.cumsum(law.probs[::-1])[::-1][1:]  # P(V > atom) but the last
    edges = np.concatenate([[0.0], strict_tail[::-1], [1.0]])
    return edges, law.atoms[::-1]


def _dispersion_steps(pmf: FinitePmf) -> tuple[np.ndarray, np.ndarray]:
    """D(u) = (F^{-1}(1-u) - F^{-1}(u))_+ as a step function on (0, 1/2),
    with F^{-1}(q) = inf{x : F(x) >= q}."""
    br, atoms = np.cumsum(pmf.probs)[:-1], pmf.atoms
    cuts = np.unique(np.concatenate([br, 1.0 - br, [0.5]]))
    cuts = cuts[(cuts > 0.0) & (cuts < 0.5)]
    edges = np.concatenate([[0.0], cuts, [0.5]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    finv = lambda q: atoms[np.searchsorted(br, q, side="left")]
    vals = np.maximum(finv(1.0 - mids) - finv(mids), 0.0)
    return edges, vals


def _product_step_integral(step_fns: Sequence[tuple[np.ndarray, np.ndarray]],
                           upper: float) -> float:
    """Exact integral over (0, upper) of a product of step functions."""
    if upper <= 0.0:
        return 0.0
    edges = np.unique(np.concatenate([e for e, _ in step_fns] + [[0.0, upper]]))
    edges = edges[(edges >= 0.0) & (edges <= upper)]
    if edges[-1] < upper:
        edges = np.append(edges, upper)
    mids = 0.5 * (edges[:-1] + edges[1:])
    prod = np.ones(mids.size)
    for e, v in step_fns:
        prod *= _step_values(e, v, mids)
    # a running total from 0.0, interval by interval
    return float(np.cumsum(np.concatenate([[0.0], prod * np.diff(edges)]))[-1])


@dataclass(frozen=True)
class CovarianceBoundReport:
    lhs: float
    alpha: float
    rhs: float
    holds: bool


def _alpha_joint(j: JointPmf, cond: Optional[int] = None) -> float:
    """Largest |E prod_c (1_{X_c > x_c} - P(X_c > x_c))| over the threshold
    grids, or with `cond` set, the L1 distance of its conditional mean given
    X_cond from its mean, over the grids of the other coordinates."""
    pts, pr = j.points, j.probs
    columns = [[(pts[:, c] > x) - float(pr[pts[:, c] > x].sum())
                for x in _threshold_grid(pts[:, c])]
               for c in range(j.k) if c != cond]
    groups = [] if cond is None else [
        (mask, float(pr[mask].sum()))
        for mask in (pts[:, cond] == v for v in np.unique(pts[:, cond]))]
    best = 0.0
    for cols in itertools.product(*columns):
        g = np.ones(pts.shape[0])
        for col in cols:
            g *= col
        overall = float((g * pr).sum())
        if cond is None:
            norm = abs(overall)
        else:
            norm = 0.0
            for mask, pv in groups:
                if pv == 0.0:
                    continue
                cond_mean = float((g[mask] * pr[mask]).sum()) / pv
                norm += pv * abs(cond_mean - overall)
        best = max(best, norm)
    return best


def covariance_bound_check(j: JointPmf, conditioning: Optional[int] = None
                           ) -> CovarianceBoundReport:
    """Check |E prod (X_i - E X_i)| <= 2 int_0^{alpha/2} prod D_i(u) du.

    lhs by full enumeration; alpha maximized over the exact midpoint
    threshold grid (the conditional indicator form when `conditioning` marks
    a coordinate); the right side integrates the product of the exact
    inter-quantile dispersion steps.
    """
    pts, pr = j.points, j.probs
    means = pr @ pts
    lhs = abs(float((np.prod(pts - means, axis=1) * pr).sum()))
    alpha = _alpha_joint(j, conditioning)
    steps = [_dispersion_steps(j.marginal(c)) for c in range(j.k)]
    rhs = 2.0 * _product_step_integral(steps, alpha / 2.0)
    return CovarianceBoundReport(lhs=lhs, alpha=alpha, rhs=rhs,
                                 holds=lhs <= rhs + 1e-12)


def monotone_difference_bound_check(j: JointPmf, transforms) -> CovarianceBoundReport:
    """Check the monotone-difference corollary of the covariance bound.

    transforms[i] = (g1, g2), nondecreasing callables with f_i = g1 - g2;
    the right side is 2^{k+1} sum over branch choices of
    int_0^{alpha/2} prod_i Q_{|g_{ji}(X_i)|}(u) du with alpha from the raw
    coordinates.
    """
    if len(transforms) != j.k:
        raise DomainError("one transform pair per coordinate is required")
    pts, pr = j.points, j.probs
    branches = [(np.asarray(g1(pts[:, c])), np.asarray(g2(pts[:, c])))
                for c, (g1, g2) in enumerate(transforms)]
    fvals = np.column_stack([b1 - b2 for b1, b2 in branches])
    means = pr @ fvals
    lhs = abs(float((np.prod(fvals - means, axis=1) * pr).sum()))
    alpha = _alpha_joint(j)
    # tail quantiles of |g(X_c)| for each coordinate's two branches
    quantiles = [[_tail_quantile_steps(np.abs(b), pr) for b in pair] for pair in branches]
    rhs = 0.0
    for branch in itertools.product((0, 1), repeat=j.k):
        steps = [quantiles[c][b] for c, b in enumerate(branch)]
        rhs += _product_step_integral(steps, alpha / 2.0)
    rhs *= 2.0 ** (j.k + 1)
    return CovarianceBoundReport(lhs=lhs, alpha=alpha, rhs=rhs, holds=lhs <= rhs + 1e-12)


def dispersion_check(marginal: FinitePmf) -> bool:
    """Verify 0 <= D(u) <= Q_{X+}(u) + Q_{X-}(u) <= 2 Q_{|X|}(u) on (0, 1/2).

    Checked on all breakpoints of the four step functions (plus midpoints);
    additionally requires equality of the middle comparison when 0 is a
    median of the law.
    """
    atoms, probs = marginal.atoms, marginal.probs
    edges, dvals = _dispersion_steps(marginal)
    cum = np.cumsum(probs)
    grid = np.unique(np.concatenate([edges, cum, 1.0 - cum,
                                     np.linspace(0.0, 0.5, 129)]))
    grid = grid[(grid >= 0.0) & (grid <= 0.5)]
    # the inequalities hold almost everywhere; sample every constancy
    # interval at its midpoint so step conventions at breakpoints don't bite
    mids = 0.5 * (grid[:-1] + grid[1:])
    mids = mids[(mids > 0.0) & (mids < 0.5)]
    dv = _step_values(edges, dvals, mids)
    qp, qm, qa = (_step_values(*_tail_quantile_steps(v, probs), mids)
                  for v in (np.maximum(atoms, 0.0), np.maximum(-atoms, 0.0), np.abs(atoms)))
    ok = (np.all(dv >= -1e-12)
          and np.all(dv <= qp + qm + 1e-12)
          and np.all(qp + qm <= 2.0 * qa + 1e-12))
    zero_is_median = (float(probs[atoms <= 0.0].sum()) >= 0.5 - 1e-12
                      and float(probs[atoms >= 0.0].sum()) >= 0.5 - 1e-12)
    if ok and zero_is_median:
        ok = bool(np.all(np.abs(dv - (qp + qm)) <= 1e-12))
    return bool(ok)


# ---------------------------------------------------------------------------
# Diophantine sums for the circle walk
# ---------------------------------------------------------------------------


def frac_part_sum(a: Union[SplitReal, float], n_octave: int, power: int) -> float:
    """Exact sum of d(k*a, Z)^(-p) over the dyadic block k in [2^N, 2^{N+1}).

    Fractional parts are computed through exact rational arithmetic on the
    split representation of a; a fractional part below 1e-14 aborts with
    PrecisionError since the inverse power could then not be certified.
    """
    if power < 2:
        raise DomainError("power must be >= 2")
    if n_octave < 0 or n_octave > 20:
        raise DomainError("octave index must lie in [0, 20]")
    if isinstance(a, float) and not isinstance(a, SplitReal):
        CircleWalk(SplitReal(float(a)))  # irrationality guard
    fr = a.as_fraction() if isinstance(a, SplitReal) else Fraction(float(a))
    num, den = fr.numerator, fr.denominator
    total = 0.0
    for k in range(1 << n_octave, 1 << (n_octave + 1)):
        m = (k * num) % den
        d = float(min(m, den - m) / den)
        if d < 1e-14:
            raise PrecisionError(f"d({k}*a, Z) = {d!r} below certification threshold")
        total += d ** (-power)
    return total


@dataclass(frozen=True)
class KernelDecaySum:
    value: float
    tail_bound: float


def kernel_decay_sum(a: Union[SplitReal, float], s: float, n: int,
                     kmax: int) -> KernelDecaySum:
    """2 * sum_{k=1}^{kmax} |cos(2*pi*k*a)|^n k^{-s}, with its tail bound.

    Bounds the sup norm of the n-step smoothing of any observable whose
    k-th coefficient is at most |k|^{-s}.  kmax must make the tail bound
    2*kmax^{1-s}/(s-1) at most 1e-12.
    """
    if s <= 1.0:
        raise DomainError("s must exceed 1")
    if n < 0 or kmax < 1:
        raise DomainError("need n >= 0 and kmax >= 1")
    tail = 2.0 * kmax ** (1.0 - s) / (s - 1.0)
    if tail > 1e-12:
        raise DomainError(f"kmax={kmax} leaves tail bound {tail:.3e} > 1e-12; increase kmax")
    if not isinstance(a, SplitReal):
        a = SplitReal(float(a))
    walk = CircleWalk(a)
    total = 0.0
    for k in range(1, kmax + 1):
        c = abs(walk.cos_step(k))
        total += (c ** n if n else 1.0) * k ** (-s)
    return KernelDecaySum(value=2.0 * total, tail_bound=tail)
