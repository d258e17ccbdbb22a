"""Dependence and mixing coefficients and covariance-inequality oracles.  The
dependence coefficients theta live in `theta` and are part of this module's API.

The suprema defining the dependence coefficients run over infinite index and
threshold sets; everything here reports certified lower bounds obtained from
finite windows and exact breakpoint grids (the objectives are piecewise
constant between breakpoints, so finite-law maximizations are exact).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ResourceError
from .processes import DoublingMap, FiniteChain, IIDLaw, ProcessSpec
from .theta import theta_coeff, theta_coeffs  # noqa: F401 (the theta table, part of this API)
from .wasserstein import EmpiricalSample, FinitePmf, merge_weighted


def _unique(values) -> np.ndarray:
    """np.unique of a 1-d array without numpy.ma, which np.unique imports."""
    s = np.sort(np.asarray(values).reshape(-1))
    return s[np.concatenate([[True], s[1:] != s[:-1]])] if s.size else s


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
    edges = _unique(np.concatenate([[0.0], alphas]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        w = float(ks[alphas > lo].sum())
        if w == 0.0:
            continue
        total += w * (q.integral_pow(power, hi) - q.integral_pow(power, lo))
    return total


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


def _alpha_finite_chain(spec: FiniteChain, indices: Sequence[int]) -> float:
    n = spec.n_states
    p = spec.transition
    pi = spec.stationary
    vals = spec.values
    thresholds = _threshold_grids(vals[None])[0]
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
        if len(_threshold_grids(spec.values[None])[0]) ** len(indices) > 1 << 20:
            raise ResourceError("threshold enumeration too large: more than 2^20 tuples")
        return _alpha_finite_chain(spec, indices)
    if isinstance(spec, IIDLaw):
        return 0.0
    raise TypeError("alpha_exact supports DoublingMap, FiniteChain and IIDLaw")


def alpha_tabulation(spec: ProcessSpec, kmax: int) -> AlphaSeq:
    """Tabulate single-index mixing coefficients alpha(0..kmax).

    alpha(0) is the exact lag-0 value 1/2 (the present state is measurable,
    so the norm is sup_x 2x(1-x)); alpha(k) is alpha_exact at grid k + 1.
    """
    vals = [0.5]
    for k in range(1, kmax + 1):
        vals.append(alpha_exact(spec, (k,), grid=k + 1))
    return AlphaSeq(np.array(vals))


# ---------------------------------------------------------------------------
# Appendix covariance-inequality oracle
# ---------------------------------------------------------------------------


# The checks run on batches of joints with one coordinate count k: `points`
# (B, N, k) and `probs` (B, N) hold each joint's support in its first
# `counts` rows, padded to N with zero-probability points (`joint_arrays`).
# Each value is the one its joint gives alone, bit for bit: a sum numpy
# would take over a joint's own points is taken over just those, in numpy's
# order for that length (`_row_sums`); a running total adds the same terms
# in the same order, padding adding exact zeros; the grids are the joint's
# own, padded with empty steps.

_BATCH_DOUBLES = 1 << 13  # the largest temporary of the threshold search: 64 KiB


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A finitely supported law on R^k, 1 <= k <= 4, support <= 64 points."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pr = np.asarray(self.probs, dtype=float).reshape(-1)
        if pts.ndim != 2 or pts.shape[0] != pr.size:
            raise DomainError("points must be (n, k) with matching probabilities")
        if not 1 <= pts.shape[1] <= 4:
            raise DomainError("between 1 and 4 coordinates are supported")
        if pts.shape[0] > 64:
            raise DomainError("at most 64 support points are supported")
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        # written so that NaN fails it: NaN < 0 and |NaN - 1| > tol are both False
        if not (np.all(pr >= 0.0) and abs(pr.sum() - 1.0) <= 1e-12):
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


def joint_arrays(joints: Sequence[JointPmf]) -> tuple:
    """(points, probs, counts) of joints with one coordinate count, padded
    with zero-probability points at the origin."""
    k = joints[0].k
    if any(j.k != k for j in joints):
        raise DomainError("a batch of joints needs one coordinate count")
    counts = np.array([j.points.shape[0] for j in joints])
    points = np.zeros((len(joints), int(counts.max()), k))
    probs = np.zeros(points.shape[:2])
    for b, j in enumerate(joints):
        points[b, :counts[b]] = j.points
        probs[b, :counts[b]] = j.probs
    return points, probs, counts


def _row_sums(rows: np.ndarray, counts) -> np.ndarray:
    """The sum of each row's first `counts` entries as numpy sums that many
    alone: from 8 terms on numpy sums pairwise, so a zero-padded row would
    round differently."""
    counts = np.broadcast_to(counts, rows.shape[:-1])
    out = np.zeros(rows.shape[:-1])
    for m in _unique(counts):
        sel = counts == m
        out[sel] = rows[sel, :m].sum(axis=-1)
    return out


def _masked_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """values[mask].sum() of each row (values broadcast against mask)."""
    order = np.argsort(~mask, axis=-1, kind="stable")
    return _row_sums(np.take_along_axis(values, order, axis=-1), mask.sum(axis=-1))


def _distinct_values(values: np.ndarray, real: np.ndarray) -> tuple:
    """Each row's distinct real values ascending in its first places, +inf
    after them, and their count."""
    s = np.sort(np.where(real, values, np.inf), axis=-1)
    first = np.isfinite(s)
    first[..., 1:] &= s[..., 1:] != s[..., :-1]
    order = np.argsort(~first, axis=-1, kind="stable")
    first = np.take_along_axis(first, order, axis=-1)
    return np.where(first, np.take_along_axis(s, order, axis=-1), np.inf), first.sum(axis=-1)


def _threshold_grids(values: np.ndarray, real=True) -> np.ndarray:
    """Midpoints between consecutive distinct real values of each row (the
    value itself when there is only one), +inf after them: every distinct
    indicator column once, then columns that no value exceeds."""
    u, d = _distinct_values(values, real)
    above = np.concatenate([u[..., 1:], np.full(u.shape[:-1] + (1,), np.inf)], axis=-1)
    grids = np.where((d == 1)[..., None], u, 0.5 * (u + above))
    return grids[..., :int(d.max(initial=2)) - 1]


def _step_values(edges: np.ndarray, vals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row by row, the step function equal to vals[..., i] on
    [edges[..., i], edges[..., i+1]), at u >= edges[..., 0]."""
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(edges.shape[-1]))
    for i in range(1, edges.shape[-1]):
        idx += edges[..., i:i + 1] <= u
    return np.take_along_axis(vals, idx, axis=-1)


def _tail_quantile_steps(values: np.ndarray, probs: np.ndarray) -> tuple:
    """Row by row, Q(u) = the smallest v with P(V > v) <= u, for V =
    values[..., i] with probability probs[..., i], as (edges, values) steps
    on [0, 1), padded with empty steps at 1."""
    atoms, p, counts = merge_weighted(values, probs)
    j = np.arange(atoms.shape[-1])
    live = j < counts[..., None]
    down = np.maximum(counts[..., None] - 1 - j, 0)  # the atoms, largest first
    tails = np.cumsum(np.where(live, np.take_along_axis(p, down, axis=-1), 0.0), axis=-1)
    edges = np.concatenate([np.zeros(tails.shape[:-1] + (1,)),
                            np.where(j < counts[..., None] - 1, tails, 1.0)], axis=-1)
    return edges, np.where(live, np.take_along_axis(atoms, down, axis=-1), 0.0)


def _dispersion_steps(atoms: np.ndarray, probs: np.ndarray, counts: np.ndarray) -> tuple:
    """Row by row, D(u) = (F^{-1}(1-u) - F^{-1}(u))_+ on (0, 1/2), with
    F^{-1}(q) = inf{x : F(x) >= q}, of the law of the first `counts` atoms,
    as (edges, values) steps padded with empty steps at 1/2."""
    br = np.cumsum(probs, axis=-1)[..., :-1]
    live = np.arange(br.shape[-1]) < counts[..., None] - 1
    cuts = np.concatenate([br, 1.0 - br], axis=-1)
    cuts = np.sort(np.where(np.concatenate([live, live], axis=-1) & (cuts > 0.0) & (cuts < 0.5),
                            cuts, 0.5), axis=-1)
    cuts[..., 1:][cuts[..., 1:] == cuts[..., :-1]] = 0.5
    cuts = np.sort(cuts, axis=-1)
    ends = np.zeros(cuts.shape[:-1] + (1,))
    edges = np.concatenate([ends, cuts, ends + 0.5], axis=-1)
    mids = 0.5 * (edges[..., :-1] + edges[..., 1:])
    br = np.where(live, br, 2.0)  # a padded breakpoint lies above every q
    finv = lambda q: np.take_along_axis(atoms, (br[..., None, :] < q[..., None]).sum(axis=-1),
                                        axis=-1)
    return edges, np.maximum(finv(1.0 - mids) - finv(mids), 0.0)


def _product_step_integrals(factors: Sequence[tuple], upper: np.ndarray) -> np.ndarray:
    """Exact integral over (0, upper) of the product of step functions
    factors = [(edges, values), ...], row by row (rows shaped like upper)."""
    edges = [np.broadcast_to(e, upper.shape + e.shape[-1:]) for e, _ in factors]
    edges = np.concatenate(edges + [np.zeros(upper.shape + (1,)), upper[..., None]], axis=-1)
    # edges past upper pile up on it as empty intervals
    edges = np.sort(np.minimum(edges, upper[..., None]), axis=-1)
    mids = 0.5 * (edges[..., :-1] + edges[..., 1:])
    prod = np.ones(mids.shape)
    for e, v in factors:
        prod = prod * _step_values(e, v, mids)
    # a running total from 0.0, interval by interval
    return 0.0 + np.cumsum(prod * np.diff(edges, axis=-1), axis=-1)[..., -1]


def _centered_product_means(values: np.ndarray, probs: np.ndarray,
                            counts: np.ndarray) -> np.ndarray:
    """|E prod_c (V_c - E V_c)| of each joint, V = values (B, N, k)."""
    out = np.zeros(counts.shape)
    for n in _unique(counts):
        sel = counts == n
        v, p = values[sel, :n], probs[sel, :n]
        means = np.matmul(p[:, None, :], v)  # each joint's own probs @ values product
        out[sel] = np.abs((np.prod(v - means, axis=-1) * p).sum(axis=-1))
    return out


def _alphas(points: np.ndarray, probs: np.ndarray, counts: np.ndarray,
            conditioning: Optional[int] = None) -> np.ndarray:
    """Largest |E prod_c (1_{X_c > x_c} - P(X_c > x_c))| of each joint over
    the threshold grids, or with `conditioning` set, the L1 distance of its
    conditional mean given X_conditioning from its mean, over the grids of
    the other coordinates.  A padded threshold's column is 0, and so is the
    mean of every product it enters."""
    B, N, k = points.shape
    real = np.arange(N) < counts[:, None]
    axes = [c for c in range(k) if c != conditioning]
    x = np.moveaxis(points[:, :, axes], 2, 1)
    grids = _threshold_grids(x, real[:, None, :])
    above = (x[:, :, None, :] > grids[..., None]) & real[:, None, None, :]
    columns = above - _masked_sums(probs[:, None, None, :], above)[..., None]
    groups = 1
    if conditioning is not None:
        values, _ = _distinct_values(points[:, :, conditioning], real)
        members = (points[:, None, :, conditioning] == values[..., None]) & real[:, None, :]
        group_probs = _masked_sums(probs[:, None, :], members)[:, None, :]
        groups = members.shape[1]
    size = grids.shape[-1]
    tuples = size ** len(axes)
    block = max(1, _BATCH_DOUBLES // (B * N * groups))
    best = np.zeros(B)
    for start in range(0, tuples, block):
        t = np.arange(start, min(start + block, tuples))
        g = np.ones((B, t.size, N))
        for i in range(len(axes)):
            g = g * columns[:, i, t // size ** (len(axes) - 1 - i) % size]
        g = g * probs[:, None, :]
        overall = _row_sums(g, counts[:, None])
        if conditioning is None:
            norms = np.abs(overall)
        else:
            cond_means = (_masked_sums(g[:, :, None, :], members[:, None])
                          / np.where(group_probs == 0.0, 1.0, group_probs))
            terms = np.where(group_probs == 0.0, 0.0,
                             group_probs * np.abs(cond_means - overall[..., None]))
            norms = np.cumsum(terms, axis=-1)[..., -1]  # a running total over the groups
        best = np.maximum(best, norms.max(axis=-1))
    return best


@dataclass(frozen=True)
class CovarianceBoundReport:
    lhs: float
    alpha: float
    rhs: float
    holds: bool


def _reports(lhs: np.ndarray, alpha: np.ndarray, rhs: np.ndarray) -> list:
    return [CovarianceBoundReport(lhs=x, alpha=a, rhs=r, holds=x <= r + 1e-12)
            for x, a, r in zip(lhs.tolist(), alpha.tolist(), rhs.tolist())]


def _covariance_bounds(points: np.ndarray, probs: np.ndarray, counts: np.ndarray,
                       conditioning: Optional[int] = None) -> tuple:
    """(lhs, alpha, rhs) of the covariance bound of each joint, then its
    marginal laws and their dispersion steps."""
    laws = merge_weighted(np.moveaxis(points, 2, 1), probs[:, None, :])
    edges, vals = steps = _dispersion_steps(*laws)
    alpha = _alphas(points, probs, counts, conditioning)
    factors = [(edges[:, c], vals[:, c]) for c in range(points.shape[2])]
    rhs = 2.0 * _product_step_integrals(factors, alpha / 2.0)
    return _centered_product_means(points, probs, counts), alpha, rhs, laws, steps


def _corollary_bounds(branches: tuple, probs: np.ndarray, counts: np.ndarray,
                      alpha: np.ndarray) -> tuple:
    """(lhs, rhs) of the monotone-difference corollary of each joint, given
    the branch values branches = (g1(X), g2(X)), each (B, N, k)."""
    g1, g2 = branches
    k = g1.shape[2]
    # tail quantiles of |g(X_c)| for each coordinate's two branches: (B, k, 2, .)
    edges, vals = _tail_quantile_steps(np.abs(np.stack(branches, axis=1)).transpose(0, 3, 1, 2),
                                       probs[:, None, None, :])
    choice = np.array(list(itertools.product((0, 1), repeat=k)))
    factors = [(edges[:, c, choice[:, c]], vals[:, c, choice[:, c]]) for c in range(k)]
    upper = np.repeat(alpha[:, None] / 2.0, choice.shape[0], axis=1)
    integrals = _product_step_integrals(factors, upper)
    rhs = (0.0 + np.cumsum(integrals, axis=-1)[:, -1]) * 2.0 ** (k + 1)
    return _centered_product_means(g1 - g2, probs, counts), rhs


def appendix_checks(points: np.ndarray, probs: np.ndarray, counts: np.ndarray,
                    branches: tuple) -> tuple:
    """The three checks of `check-appendix` on a batch of joints
    (`joint_arrays`): the covariance bound, the monotone-difference corollary
    for the branch values (g1(X), g2(X)), and `dispersion_check` of every
    marginal.  Returns the two lists of reports and one bool per joint;
    alpha and the marginals are computed once for all three."""
    lhs, alpha, rhs, laws, steps = _covariance_bounds(points, probs, counts)
    cor_lhs, cor_rhs = _corollary_bounds(branches, probs, counts, alpha)
    # one coordinate at a time: a marginal's grid has about 150 points
    dispersion = np.logical_and.reduce([_dispersion_ok(*(a[:, c] for a in laws + steps))
                                        for c in range(points.shape[2])])
    return _reports(lhs, alpha, rhs), _reports(cor_lhs, alpha, cor_rhs), dispersion


def covariance_bound_check(j: JointPmf, conditioning: Optional[int] = None
                           ) -> CovarianceBoundReport:
    """Check |E prod (X_i - E X_i)| <= 2 int_0^{alpha/2} prod D_i(u) du.

    lhs by full enumeration; alpha maximized over the exact midpoint
    threshold grid (the conditional indicator form when `conditioning` marks
    a coordinate); the right side integrates the product of the exact
    inter-quantile dispersion steps.
    """
    lhs, alpha, rhs, _, _ = _covariance_bounds(*joint_arrays([j]), conditioning)
    return _reports(lhs, alpha, rhs)[0]


def monotone_difference_bound_check(j: JointPmf, transforms) -> CovarianceBoundReport:
    """Check the monotone-difference corollary of the covariance bound.

    transforms[i] = (g1, g2), nondecreasing callables with f_i = g1 - g2;
    the right side is 2^{k+1} sum over branch choices of
    int_0^{alpha/2} prod_i Q_{|g_{ji}(X_i)|}(u) du with alpha from the raw
    coordinates.
    """
    if len(transforms) != j.k:
        raise DomainError("one transform pair per coordinate is required")
    points, probs, counts = joint_arrays([j])
    branches = tuple(np.column_stack([np.asarray(pair[b](j.points[:, c]), dtype=float)
                                      for c, pair in enumerate(transforms)])[None]
                     for b in (0, 1))
    alpha = _alphas(points, probs, counts)
    lhs, rhs = _corollary_bounds(branches, probs, counts, alpha)
    return _reports(lhs, alpha, rhs)[0]


def _dispersion_ok(atoms: np.ndarray, probs: np.ndarray, counts: np.ndarray,
                   edges: np.ndarray, dvals: np.ndarray) -> np.ndarray:
    """`dispersion_check` of each row's law (its first `counts` atoms), given
    its D steps (edges, dvals) from `_dispersion_steps`."""
    cum = np.cumsum(probs, axis=-1)
    fixed = np.broadcast_to(np.linspace(0.0, 0.5, 129), cum.shape[:-1] + (129,))
    grid = np.sort(np.concatenate([edges, cum, 1.0 - cum, fixed], axis=-1), axis=-1)
    lo, hi = grid[..., :-1], grid[..., 1:]
    # the inequalities hold almost everywhere; sample every constancy
    # interval at its midpoint so step conventions at breakpoints don't bite
    mids = 0.5 * (lo + hi)
    sampled = (lo != hi) & (lo >= 0.0) & (hi <= 0.5) & (mids > 0.0) & (mids < 0.5)
    mids = np.where(sampled, mids, 0.25)
    dv = _step_values(edges, dvals, mids)
    qp, qm, qa = (_step_values(*_tail_quantile_steps(v, probs), mids)
                  for v in (np.maximum(atoms, 0.0), np.maximum(-atoms, 0.0), np.abs(atoms)))
    ok = np.all(~sampled | ((dv >= -1e-12) & (dv <= qp + qm + 1e-12)
                            & (qp + qm <= 2.0 * qa + 1e-12)), axis=-1)
    live = np.arange(atoms.shape[-1]) < counts[..., None]
    zero_is_median = ((_masked_sums(probs, live & (atoms <= 0.0)) >= 0.5 - 1e-12)
                      & (_masked_sums(probs, live & (atoms >= 0.0)) >= 0.5 - 1e-12))
    equal = np.all(~sampled | (np.abs(dv - (qp + qm)) <= 1e-12), axis=-1)
    return ok & (~zero_is_median | equal)


def dispersion_check(marginal: FinitePmf) -> bool:
    """Verify 0 <= D(u) <= Q_{X+}(u) + Q_{X-}(u) <= 2 Q_{|X|}(u) on (0, 1/2).

    Sampled at the midpoint of every interval of one grid on [0, 1/2]: the
    edges of D, the cumulative probabilities F(a_i) and 1 - F(a_i), and 129
    equally spaced points.  The Q steps' own breakpoints are not all on it:
    those of Q_{|X|}, at P(X > v) + P(X < -v), often fall between its
    points.  Additionally requires equality of the middle comparison when 0
    is a median of the law.
    """
    atoms, probs = marginal.atoms[None], marginal.probs[None]
    counts = np.array([atoms.size])
    return bool(_dispersion_ok(atoms, probs, counts, *_dispersion_steps(atoms, probs, counts))[0])
