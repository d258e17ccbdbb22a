"""The batched appendix checks against the one-joint-at-a-time formulas.

`coefficients` evaluates the covariance bound, its monotone-difference
corollary and the dispersion inequalities on padded batches of joints.  The
reference below is the same mathematics written for one joint at a time,
with numpy's own sums over each joint's arrays; the batched values must
equal it bit for bit, alone and inside padded batches.
"""

import itertools

import numpy as np
import pytest

from meanclt import coefficients as coef
from meanclt.coefficients import (JointPmf, appendix_checks, covariance_bound_check,
                                  dispersion_check, joint_arrays,
                                  monotone_difference_bound_check)
from meanclt.harness import _monotone_pair_values, _random_joint, _random_monotone_pair
from meanclt.numerics import substream
from meanclt.wasserstein import merge_weighted

# ---------------------------------------------------------------------------
# One joint at a time
# ---------------------------------------------------------------------------


def _ref_law(values, probs):
    """FinitePmf.from_weighted as a sort, a bincount and a filter."""
    a, p = np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
    order = np.argsort(a, kind="stable")
    a, p = a[order], p[order]
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    a, p = a[first], np.bincount(np.cumsum(first) - 1, weights=p)
    return a[p > 0.0], p[p > 0.0]


def _ref_threshold_grid(coords):
    uniq = np.unique(coords)
    return uniq if uniq.size == 1 else 0.5 * (uniq[:-1] + uniq[1:])


def _ref_step_values(edges, vals, u):
    return vals[np.searchsorted(edges, u, side="right") - 1]


def _ref_tail_quantile_steps(values, probs):
    atoms, p = _ref_law(values, probs)
    strict_tail = np.cumsum(p[::-1])[::-1][1:]
    return np.concatenate([[0.0], strict_tail[::-1], [1.0]]), atoms[::-1]


def _ref_dispersion_steps(atoms, probs):
    br = np.cumsum(probs)[:-1]
    cuts = np.unique(np.concatenate([br, 1.0 - br, [0.5]]))
    cuts = cuts[(cuts > 0.0) & (cuts < 0.5)]
    edges = np.concatenate([[0.0], cuts, [0.5]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    finv = lambda q: atoms[np.searchsorted(br, q, side="left")]
    return edges, np.maximum(finv(1.0 - mids) - finv(mids), 0.0)


def _ref_product_step_integral(step_fns, upper):
    if upper <= 0.0:
        return 0.0
    edges = np.unique(np.concatenate([e for e, _ in step_fns] + [[0.0, upper]]))
    edges = edges[(edges >= 0.0) & (edges <= upper)]
    mids = 0.5 * (edges[:-1] + edges[1:])
    prod = np.ones(mids.size)
    for e, v in step_fns:
        prod *= _ref_step_values(e, v, mids)
    return float(np.cumsum(np.concatenate([[0.0], prod * np.diff(edges)]))[-1])


def _ref_alpha(j):
    pts, pr = j.points, j.probs
    columns = [[(pts[:, c] > x) - float(pr[pts[:, c] > x].sum())
                for x in _ref_threshold_grid(pts[:, c])]
               for c in range(j.k)]
    best = 0.0
    for cols in itertools.product(*columns):
        g = np.ones(pts.shape[0])
        for col in cols:
            g *= col
        best = max(best, abs(float((g * pr).sum())))
    return best


def _ref_centered_product_mean(values, probs):
    return abs(float((np.prod(values - probs @ values, axis=1) * probs).sum()))


def _ref_covariance(j):
    alpha = _ref_alpha(j)
    steps = [_ref_dispersion_steps(*_ref_law(j.points[:, c], j.probs)) for c in range(j.k)]
    rhs = 2.0 * _ref_product_step_integral(steps, alpha / 2.0)
    return _ref_centered_product_mean(j.points, j.probs), alpha, rhs


def _ref_corollary(j, transforms):
    pts, pr = j.points, j.probs
    branches = [(np.asarray(g1(pts[:, c])), np.asarray(g2(pts[:, c])))
                for c, (g1, g2) in enumerate(transforms)]
    lhs = _ref_centered_product_mean(np.column_stack([b1 - b2 for b1, b2 in branches]), pr)
    alpha = _ref_alpha(j)
    quantiles = [[_ref_tail_quantile_steps(np.abs(b), pr) for b in pair] for pair in branches]
    rhs = 0.0
    for branch in itertools.product((0, 1), repeat=j.k):
        rhs += _ref_product_step_integral([quantiles[c][b] for c, b in enumerate(branch)],
                                          alpha / 2.0)
    return lhs, alpha, rhs * 2.0 ** (j.k + 1)


def _ref_dispersion(atoms, probs):
    edges, dvals = _ref_dispersion_steps(atoms, probs)
    cum = np.cumsum(probs)
    grid = np.unique(np.concatenate([edges, cum, 1.0 - cum, np.linspace(0.0, 0.5, 129)]))
    grid = grid[(grid >= 0.0) & (grid <= 0.5)]
    mids = 0.5 * (grid[:-1] + grid[1:])
    mids = mids[(mids > 0.0) & (mids < 0.5)]
    dv = _ref_step_values(edges, dvals, mids)
    qp, qm, qa = (_ref_step_values(*_ref_tail_quantile_steps(v, probs), mids)
                  for v in (np.maximum(atoms, 0.0), np.maximum(-atoms, 0.0), np.abs(atoms)))
    ok = (np.all(dv >= -1e-12) and np.all(dv <= qp + qm + 1e-12)
          and np.all(qp + qm <= 2.0 * qa + 1e-12))
    zero_is_median = (float(probs[atoms <= 0.0].sum()) >= 0.5 - 1e-12
                      and float(probs[atoms >= 0.0].sum()) >= 0.5 - 1e-12)
    if ok and zero_is_median:
        ok = bool(np.all(np.abs(dv - (qp + qm)) <= 1e-12))
    return bool(ok)


def _pair_callables(params):
    s1, b1, kink, s2, b2 = params
    return (lambda x: s1 * x + b1 + np.maximum(x - kink, 0.0), lambda x: s2 * x + b2)


def _assert_report(rep, ref):
    lhs, alpha, rhs = ref
    assert (rep.lhs, rep.alpha, rep.rhs) == (lhs, alpha, rhs)
    assert np.signbit(rep.rhs) == np.signbit(rhs)
    assert rep.holds == (lhs <= rhs + 1e-12)


def _assert_batch_matches(joints, pairs):
    """appendix_checks on the joints (one coordinate count) as one padded
    batch equals the reference joint by joint."""
    points, probs, counts = joint_arrays(joints)
    params = np.array(pairs)[:, None]
    cov, cor, disp = appendix_checks(points, probs, counts,
                                     _monotone_pair_values(params, points))
    for j, p, rep, rep2, ok in zip(joints, pairs, cov, cor, disp):
        _assert_report(rep, _ref_covariance(j))
        _assert_report(rep2, _ref_corollary(j, [_pair_callables(q) for q in p]))
        assert ok == all(_ref_dispersion(*_ref_law(j.points[:, c], j.probs))
                         for c in range(j.k))


def _drawn(seed, count):
    gen = substream(seed, 0).generator()
    out = []
    for _ in range(count):
        j = _random_joint(gen)
        out.append((j, [_random_monotone_pair(gen) for _ in range(j.k)]))
    return out


# hand-built joints: k = 4, a zero-probability point, a single-valued
# coordinate, +-0.0 atoms, tied coordinates, and 40 points (pairwise sums)
_GEN = np.random.default_rng(23)
HAND_BUILT = {
    "k4": JointPmf(np.round(_GEN.normal(0.0, 1.0, (7, 4)), 1), _GEN.dirichlet(np.ones(7))),
    "zero-probability point": JointPmf(np.array([[0.0, 1.0], [2.0, 1.0], [5.0, 3.0], [-1.0, 0.5]]),
                                       np.array([0.5, 0.25, 0.0, 0.25])),
    "single-valued coordinate": JointPmf(np.array([[0.3, -1.0, 2.0], [0.3, 1.0, 0.0],
                                                   [0.3, 2.0, 2.0]]), np.array([0.2, 0.3, 0.5])),
    "signed zeros": JointPmf(np.array([[-0.0, 1.0], [0.0, -0.0], [1.0, 0.0], [-1.0, -1.0]]),
                             np.array([0.25, 0.25, 0.25, 0.25])),
    "tied coordinates": JointPmf(np.column_stack([np.repeat([-1.0, 0.5, 2.0], 3)] * 3),
                                 np.full(9, 1.0 / 9.0)),
    "40 points": JointPmf(np.round(_GEN.normal(0.0, 1.0, (40, 2)), 1),
                          _GEN.dirichlet(np.ones(40))),
    "rademacher": JointPmf(np.array([[-1.0, -1.0], [1.0, 1.0]]), np.array([0.5, 0.5])),
}


def _hand_pairs(j, seed=5):
    gen = np.random.default_rng(seed)
    return [_random_monotone_pair(gen) for _ in range(j.k)]


class TestAgainstOneJointAtATime:
    @pytest.mark.parametrize("seed", [1, 3, 17])
    def test_fuzz_instances(self, seed):
        drawn = _drawn(seed, 200)
        for k in (2, 3):
            batch = [(j, p) for j, p in drawn if j.k == k]
            _assert_batch_matches([j for j, _ in batch], [p for _, p in batch])

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_alone(self, name):
        j = HAND_BUILT[name]
        _assert_report(covariance_bound_check(j), _ref_covariance(j))
        pairs = [_pair_callables(p) for p in _hand_pairs(j)]
        _assert_report(monotone_difference_bound_check(j, pairs), _ref_corollary(j, pairs))
        for c in range(j.k):
            m = j.marginal(c)
            assert dispersion_check(m) == _ref_dispersion(m.atoms, m.probs)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_in_a_padded_batch(self, name):
        j = HAND_BUILT[name]
        others = [(o, p) for o, p in _drawn(3, 40) if o.k == j.k]
        joints = [o for o, _ in others[:5]] + [j] + [o for o, _ in others[5:10]]
        pairs = [p for _, p in others[:5]] + [_hand_pairs(j)] + [p for _, p in others[5:10]]
        if j.k == 4:  # no fuzz joint has 4 coordinates: pad against the others' shapes
            joints = [j, JointPmf(j.points[:3], np.full(3, 1.0 / 3.0))]
            pairs = [_hand_pairs(j), _hand_pairs(j, 6)]
        _assert_batch_matches(joints, pairs)


class TestKernels:
    def test_row_sums_are_numpys_own_sums(self):
        gen = np.random.default_rng(4)
        rows = gen.random((300, 70)) * gen.choice([1e-3, 1.0, 1e3], size=(300, 70))
        counts = gen.integers(0, 71, 300)
        got = coef._row_sums(rows, counts)
        assert got.tolist() == [r[:m].copy().sum() for r, m in zip(rows, counts)]

    def test_merge_weighted_rows_are_one_law_at_a_time(self):
        gen = np.random.default_rng(6)
        pool = np.array([-1.5, -0.3, -0.0, 0.0, 0.25, 1.0])
        values = gen.choice(pool, size=(50, 9))
        probs = gen.dirichlet(np.ones(9), size=50) * (gen.random((50, 9)) < 0.7)
        probs[:, 0] += 1.0 - probs.sum(axis=1)
        atoms, p, counts = merge_weighted(values, probs)
        for a, q, n, v, w in zip(atoms, p, counts, values, probs):
            want_a, want_p = _ref_law(v, w)
            assert np.array_equal(a[:n], want_a) and np.array_equal(q[:n], want_p)
            assert np.array_equal(np.signbit(a[:n]), np.signbit(want_a))
            assert not a[n:].any() and not q[n:].any()

    def test_tail_quantile_steps_match_one_law_at_a_time(self):
        gen = np.random.default_rng(8)
        values = np.round(gen.normal(0.0, 1.0, (40, 6)), 1)
        probs = gen.dirichlet(np.ones(6), size=40) * (gen.random((40, 6)) < 0.8)
        edges, vals = coef._tail_quantile_steps(values, probs)
        for e, v, x, p in zip(edges, vals, values, probs):
            want_e, want_v = _ref_tail_quantile_steps(x, p)
            n = want_v.size
            assert np.array_equal(e[:n + 1], want_e) and np.array_equal(v[:n], want_v)
            assert np.all(e[n + 1:] == 1.0)
