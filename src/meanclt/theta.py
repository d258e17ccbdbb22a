"""Windowed product-dependence coefficients theta_{p,q}(j) of the paper's
weak-dependence route, for interval maps and finite chains.

Each coefficient is a maximum of L1 norms over a finite window of
multiindices, so it is a certified lower bound of the supremum; a norm is an
exact nest of transfer and product operations under a deterministic
quadrature (an exact sum for finite chains).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceError
from .fourier import FourierFn, l1_norms, product
from .numerics import Tolerance
from .processes import (DoublingMap, FiniteChain, IIDLaw, ProcessSpec, check_observable,
                        exact_frac, transfer)

_THETA_TOL = Tolerance(1e-10, 1e-10, 40)
_WINDOW_BUDGET = 1 << 16  # multiindices one theta table may range over


def _centred_nest(spec: ProcessSpec, f: FourierFn, gaps: Sequence[int]) -> FourierFn:
    """h - E h for the exact nest h = K^{g1}(f * K^{g2}(f * ... K^{gr} f))."""
    fn = f
    for g in reversed(gaps[1:]):
        fn = _product(f, transfer(spec, fn, g))
    fn = transfer(spec, fn, gaps[0])
    return fn.shift_constant(-fn.constant)


@functools.lru_cache(maxsize=None)
def _binomial_shifts(steps: int) -> tuple:
    """(weight, offset) pairs of the circle walk's steps-step kernel, the
    binomial average of the shifts by offset * a: C(steps, r) / 2^steps and
    steps - 2r for r = 0..steps."""
    return tuple((math.comb(steps, r) * 0.5 ** steps, steps - 2 * r) for r in range(steps + 1))


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
    (an exact sum for finite chains).  Enlarging the window never
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
    that fails raises the AccuracyError of the first failing term (see
    `_window_terms`) in a request-by-request, window-by-window order.
    """
    requests = list(requests)
    if window < 0:
        raise DomainError("window must be nonnegative")
    for i, j, gap in requests:
        if not (0 <= i < j <= 4):
            raise DomainError("need 0 <= i < j <= 4")
        if gap < 0:
            raise DomainError("gap must be nonnegative")
    f = check_observable(spec, f, centered=True)
    if isinstance(spec, IIDLaw):
        if any(gap < 1 for _, _, gap in requests):
            raise DomainError("iid theta coefficients need gap >= 1")
        return [0.0] * len(requests)
    if isinstance(spec, FiniteChain):
        norms_of = functools.partial(_chain_theta_norms, spec)
    else:
        norms_of = functools.partial(_map_theta_norms, spec, f, tol=tol)
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
    return [max([0.0] + [norms[key] for key in w]) for w in windows]


def _map_theta_norms(spec: ProcessSpec, f: FourierFn, keys: Sequence[tuple],
                     tol: Tolerance) -> list:
    """The theta norms of an interval map's windows keys[k] = (i, past gaps,
    future gaps), in order: the terms of every window with a nonzero future
    nest stream through one `fourier.l1_norms`, and each window's norm is its
    terms' weighted sum, in order."""
    nest = functools.lru_cache(maxsize=None)(functools.partial(_centred_nest, spec, f))
    owners = collections.deque()  # (window, weight) of each term not yet integrated

    def terms():
        for k, (i, past_gaps, gaps) in enumerate(keys):
            if not nest(gaps).is_zero(1e-300):
                for weight, p, ds in _window_terms(spec, f, i, past_gaps, nest(gaps)):
                    owners.append((k, weight))
                    yield p, ds

    norms = [0.0] * len(keys)
    for value in l1_norms(terms(), tol, f):
        k, weight = owners.popleft()
        norms[k] += weight * value
    return norms


def _window_terms(spec: ProcessSpec, f: FourierFn, i: int, past_gaps: tuple,
                  h0: FourierFn):
    """(weight, p, ds) terms whose sum of weight * integral |p| prod_{d in ds}
    |f(2^d x)| is the norm of the window (i, past gaps) with centred nest h0.

    i = 0 is |h0| alone.  The doubling map's earlier coordinates are its
    latest one doubled sum(past_gaps[t:]) times: dilated factors of f h0.
    The circle walk's kernel is a binomial average of shifts (_binomial_shifts),
    so there is one term per shift tuple, f(x) f(x + s_1 a) ... (f h0)(x + s_{i-1} a)
    with s_t the offsets' partial sums.  Every product is exact.
    """
    if i == 0:
        yield 1.0, h0, ()
    elif isinstance(spec, DoublingMap):
        yield 1.0, _product(f, h0), tuple(sum(past_gaps[t:]) for t in range(i - 1))
    else:
        fh0 = _product(f, h0)
        for shifts in itertools.product(*map(_binomial_shifts, past_gaps)):
            s = list(itertools.accumulate((o for _, o in shifts), initial=0))
            factors = [_shifted(spec, f, t) for t in s[:-1]] + [_shifted(spec, fh0, s[-1])]
            yield math.prod(w for w, _ in shifts), functools.reduce(_product, factors), ()


def _product(f: FourierFn, g: FourierFn) -> FourierFn:
    return product(f, g).fn


def _shifted(spec: ProcessSpec, g: FourierFn, s: int) -> FourierFn:
    """g(x + s a) for the circle walk's step a, by the exact phase {k s a} of frequency k."""
    if s == 0:
        return g
    th = np.array([exact_frac(spec.a, k * s) for k in range(1, g.max_freq + 1)])
    c = (g.cos_coeffs - 1j * g.sin_coeffs) * np.exp(2j * math.pi * th)
    return FourierFn(g.constant, c.real, -c.imag)


def _chain_theta_norms(spec: FiniteChain, keys: Sequence[tuple]) -> list:
    """The theta norms of a finite chain's windows keys[k] = (i, past gaps,
    future gaps), in order, from cached powers of P shared by every window.
    The sum over past states s_1 .. s_i of pi(s_1) prod P^g(s_t, s_t+1)
    prod |v_c(s_t)| |h0(s_i)| is taken one state at a time, forward:
    u <- pi o |v_c|, then u <- (u P^g) o |v_c| per past gap g, then u . |h0|."""
    p = spec.transition
    pi = spec.stationary
    vc = spec.centered_values
    abs_vc = np.abs(vc)
    powers = [np.eye(spec.n_states)]

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
        u = pi * abs_vc
        for g in past_gaps:
            u = (u @ pk(g)) * abs_vc
        return float(u @ np.abs(h0))

    return [norm(*key) for key in keys]
