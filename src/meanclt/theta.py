"""Windowed product-dependence coefficients theta_{p,q}(j) of the paper's
weak-dependence route, for interval maps and finite chains.

Each coefficient is a maximum of L1 norms over a finite window of
multiindices, so it is a certified lower bound of the supremum; a norm is an
exact nest of transfer and product operations under a deterministic
quadrature (exact enumeration for finite chains).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceError
from .fourier import FourierFn, product
from .numerics import Tolerance, by_integrand, integrate_many
from .processes import DoublingMap, FiniteChain, IIDLaw, ProcessSpec, transfer

_THETA_TOL = Tolerance(1e-10, 1e-10, 40)
_THETA_BATCH = 32  # theta window norms integrated in one lockstep quadrature
_WINDOW_BUDGET = 1 << 16  # multiindices one theta table may range over
_LEAF_POINTS = 8192  # points per circle-walk theta leaf evaluation: 128 KiB complex


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
                tol: Tolerance = _THETA_TOL) -> float:
    """Windowed lower bound of the product-dependence coefficient.

    Maximum over multiindices 0 = k_1 <= ... <= k_i <= window and
    k_i + gap <= k_{i+1} <= ... <= k_j <= k_i + gap + window of

        || X_{k_1} ... X_{k_i} ( E_{k_i}(prod future) - E(prod future) ) ||_1.

    The inner conditional expectation is an exact nest of transfer and
    product operations; the outer L1 norm is a deterministic quadrature
    (exact enumeration for finite chains).  Enlarging the window never
    decreases the result.  `theta_coeffs` of the one request (i, j, gap).
    """
    return theta_coeffs(spec, f, [(i, j, gap)], window, tol)[0]


def theta_coeffs(spec: ProcessSpec, f: Optional[FourierFn], requests: Sequence[tuple],
                 window: int, tol: Tolerance = _THETA_TOL) -> list:
    """[theta_coeff(spec, f, i, j, gap, window, tol) for (i, j, gap) in requests].

    A window's norm depends only on (i, past gaps, future gaps), so each
    distinct one is computed once for all requests, each distinct nest of
    future gaps is built once, and a finite chain's powers of P are shared.
    Raises ResourceError, before enumerating anything, when the requests
    range over more than _WINDOW_BUDGET multiindices in all.  A quadrature
    that fails raises the AccuracyError of the window that a request-by-
    request, window-by-window order meets first.
    """
    requests = list(requests)
    if window < 0:
        raise DomainError("window must be nonnegative")
    for i, j, gap in requests:
        if not (0 <= i < j <= 4):
            raise DomainError("need 0 <= i < j <= 4")
        if gap < 0:
            raise DomainError("gap must be nonnegative")
    if isinstance(spec, IIDLaw):
        if any(gap < 1 for _, _, gap in requests):
            raise DomainError("iid theta coefficients need gap >= 1")
        return [0.0] * len(requests)
    if isinstance(spec, FiniteChain):
        norms_of = functools.partial(_chain_theta_norms, spec)
    elif isinstance(f, FourierFn):
        norms_of = functools.partial(_map_theta_norms, spec, f, tol=tol)
    else:
        raise TypeError("interval-map theta coefficients need a FourierFn observable")
    # _theta_windows enumerates the nondecreasing i- and (j - i)-tuples over 0..window
    count = sum(math.comb(window + i, i) * math.comb(window + j - i, j - i)
                for i, j, _ in requests)
    if count > _WINDOW_BUDGET:
        raise ResourceError(f"the theta table ranges over {count} multiindices, more than "
                            f"{_WINDOW_BUDGET}; lower --window or --kmax")
    windows = [[(i, past_gaps, gaps) for past_gaps, gaps in _theta_windows(i, j, gap, window)]
               for i, j, gap in requests]
    keys = list(dict.fromkeys(key for w in windows for key in w))
    norms = dict(zip(keys, norms_of(keys)))
    out = []
    for w in windows:
        best = 0.0
        for key in w:
            best = max(best, norms[key])
        out.append(best)
    return out


def _map_theta_norms(spec: ProcessSpec, f: FourierFn, keys: Sequence[tuple],
                     tol: Tolerance) -> list:
    """The theta norms of an interval map's windows keys[k] = (i, past gaps,
    future gaps), in order.

    The nonzero norms are integrated _THETA_BATCH at a time, in order, each
    batch by one integrate_many; each norm keeps its own panels, so it is
    the value a quadrature of it alone gets.
    """
    h0s = {}
    for _, _, gaps in keys:
        if gaps not in h0s:
            h, _ = _nested_future_fn(spec, f, gaps, cap=1 << 14)
            h0s[gaps] = h.shift_constant(-h.constant)
    norms = [0.0] * len(keys)
    live = [k for k, (_, _, gaps) in enumerate(keys) if not h0s[gaps].is_zero(1e-300)]
    for lo in range(0, len(live), _THETA_BATCH):
        batch = live[lo:lo + _THETA_BATCH]
        integrand = _theta_integrand(spec, f, [keys[k][:2] for k in batch],
                                     [h0s[keys[k][2]] for k in batch])
        for k, value in zip(batch, integrate_many(integrand, len(batch), tol)):
            norms[k] = value
    return norms


def _theta_integrand(spec: ProcessSpec, f: FourierFn, pasts: Sequence[tuple],
                     h0s: Sequence[FourierFn]):
    """g(owner, x) for integrate_many: at the points of row x[r], the theta
    integrand of the window with (i, past gaps) = pasts[owner[r]] and
    centred future nest h0s[owner[r]].

    Rows are taken in groups of one (i, past gaps), which fixes all but h0,
    and each integrand's rows evaluate its own h0 in one h0.eval, so every
    point gets the value it gets alone (a FourierStack would round the
    polynomials of at most 2 nonzero terms differently).
    """
    group_ids = {}
    group = np.array([group_ids.setdefault(p, len(group_ids)) for p in pasts])
    group_past = list(group_ids)
    h0_abs = by_integrand([lambda x, h0=h0: np.abs(h0.eval(x)) for h0 in h0s])

    def doubling(own, x, past_gaps):
        # earlier coordinates are deterministic doubling images of the
        # latest one, so the whole product is a function of one state
        out = h0_abs(own, x)
        for d in [sum(past_gaps[t:]) for t in range(len(past_gaps) + 1)]:
            out = out * np.abs(f.eval(np.ldexp(1.0, d) * x))
        return out

    def circle(own, x, past_gaps):
        # the m-step kernel is a binomial average of shifts, so the nested
        # conditional of |.|-products evaluates pointwise; each level shifts
        # every point of a row at once, the row's points staying together
        if not past_gaps:
            return np.abs(f.eval(x)) * h0_abs(own, x)
        w, off = _binomial_weights(past_gaps[0])
        shifted = np.mod(x[:, None, :] + (off * spec.a.value)[:, None], 1.0)
        rows = circle(own, shifted.reshape(len(x), -1), past_gaps[1:]).reshape(shifted.shape)
        out = np.zeros_like(x)
        for s, wt in enumerate(w):
            out += wt * rows[:, s]
        return np.abs(f.eval(x)) * out

    def g(owner, x):
        out = np.empty_like(x)
        groups = group[owner]
        for gid in dict.fromkeys(groups.tolist()):
            mask = groups == gid
            own, gx = owner[mask], x[mask]
            i, past_gaps = group_past[gid]
            if i == 0:
                out[mask] = h0_abs(own, gx)
            elif isinstance(spec, DoublingMap):
                out[mask] = doubling(own, gx, past_gaps)
            else:
                # a chunk of rows at a time, so that a leaf evaluation
                # (complex Horner values) has at most _LEAF_POINTS points
                leaf = gx.shape[1] * math.prod(d + 1 for d in past_gaps)
                step = max(1, _LEAF_POINTS // leaf)
                out[mask] = np.concatenate([circle(own[lo:lo + step], gx[lo:lo + step], past_gaps)
                                            for lo in range(0, len(gx), step)])
        return out

    return g


def _chain_theta_norms(spec: FiniteChain, keys: Sequence[tuple]) -> list:
    """The theta norms of a finite chain's windows keys[k] = (i, past gaps,
    future gaps), in order: exact enumeration of the past states, from
    cached powers of P shared by every window."""
    p = spec.transition
    pi = spec.stationary
    vc = spec.values - float(pi @ spec.values)
    n = spec.n_states
    powers = [np.eye(n)]

    def pk(k: int) -> np.ndarray:
        while len(powers) <= k:
            powers.append(powers[-1] @ p)
        return powers[k]

    def norm(i: int, past_gaps: tuple, gaps: tuple) -> float:
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

    return [norm(*key) for key in keys]
