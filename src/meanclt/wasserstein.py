"""Exact Wasserstein-1 and Kolmogorov distances to centered Gaussian laws.

The sample-vs-Gaussian distance is computed in the quantile domain: on each
probability slab ((i-1)/m, i/m] the integrand |x_(i) - sigma*q(u)| has one
crossing, located by a single cdf evaluation, and the Gaussian quantile
integrates in closed form through -pdf(quantile(u)).  Tails beyond the
extreme sample points are covered exactly by the first and last slabs.  The
pmf-vs-Gaussian distance integrates |F - Phi_sigma| piecewise between atoms
using the cdf antiderivative, with complementary forms on the right of each
crossing so no precision is lost in the tails.  A law given by its
characteristic function is inverted by Gil-Pelaez on an FFT grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .numerics import (gauss_cdf, gauss_cdf_antideriv, gauss_pdf,
                       gauss_quantile, gauss_sf_antideriv)


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """A finite real sample, stored sorted; ties are allowed."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float).reshape(-1))
        if v.size < 1:
            raise DomainError("sample must contain at least one value")
        if not np.all(np.isfinite(v)):
            raise DomainError("sample values must be finite")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class FinitePmf:
    """A finitely supported law with strictly increasing atoms."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float).reshape(-1)
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if a.size != p.size or a.size == 0:
            raise DomainError("atoms and probs must be equal-length and nonempty")
        if not np.all(np.isfinite(a)):
            raise DomainError("atoms must be finite")
        if np.any(np.diff(a) <= 0.0):
            raise DomainError("atoms must be strictly increasing")
        # written so that NaN fails them: NaN < 0 and |NaN - 1| > tol are both False
        if not np.all(p >= 0.0):
            raise DomainError("probabilities must be nonnegative")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise DomainError("probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "probs", p)
        a.setflags(write=False)
        p.setflags(write=False)

    @classmethod
    def from_weighted(cls, atoms, probs) -> "FinitePmf":
        """Build from unsorted atoms, dropping zero-prob entries and merging duplicates
        into their first occurrence (a merged +-0 keeps its first sign)."""
        a = np.asarray(atoms, dtype=float).reshape(1, -1)
        p = np.asarray(probs, dtype=float).reshape(1, -1)
        if a.size != p.size:
            raise DomainError("atoms and probs must be equal-length and nonempty")
        if not np.all(p >= 0.0):
            raise DomainError("probabilities must be nonnegative")
        a, p, n = merge_weighted(a, p)
        return cls(a[0, :n[0]], p[0, :n[0]])


def merge_weighted(atoms: np.ndarray, probs: np.ndarray) -> tuple:
    """`FinitePmf.from_weighted` of each row of `atoms` (probabilities `probs`,
    broadcast to its shape) at once, as (atoms, probs, count): each row's
    distinct atoms of positive merged probability ascending in its first
    `count` places, zeros after them up to the largest count.

    Duplicates merge into their first occurrence in a stable sort, their
    probabilities added one by one from 0.0 in that order; entries of
    probability 0 drop out, so rows can be padded with them.  np.unique is
    slower on the few-atom laws that the coefficient checks build by the
    thousand.
    """
    probs = np.broadcast_to(probs, atoms.shape)
    order = np.argsort(atoms, axis=-1, kind="stable")
    a = np.take_along_axis(atoms, order, axis=-1)
    p = np.take_along_axis(probs, order, axis=-1)
    first = np.ones(a.shape, dtype=bool)
    first[..., 1:] = a[..., 1:] != a[..., :-1]
    merged = np.zeros(a.shape)
    # every row starts a group, so one bincount serves all rows
    merged[first] = np.bincount(np.cumsum(first) - 1, weights=p.reshape(-1))
    keep = first & (merged > 0.0)
    counts = keep.sum(axis=-1)
    order = np.argsort(~keep, axis=-1, kind="stable")[..., :int(counts.max(initial=0))]
    keep = np.take_along_axis(keep, order, axis=-1)
    return (np.where(keep, np.take_along_axis(a, order, axis=-1), 0.0),
            np.where(keep, np.take_along_axis(merged, order, axis=-1), 0.0), counts)


def _check_sigma(sigma: float) -> float:
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise DomainError("sigma must be a positive finite real")
    return float(sigma)


@lru_cache(maxsize=16)
def _slab_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Probability grid i/m and G(i/m) = pdf(quantile(i/m)); size-keyed cache
    because bootstrap resampling re-evaluates the same-size slabs hundreds of
    times."""
    grid = np.arange(m + 1) / m
    g_grid = np.zeros(m + 1)
    if m > 1:
        g_grid[1:-1] = gauss_pdf(gauss_quantile(grid[1:-1]))
    grid.setflags(write=False)
    g_grid.setflags(write=False)
    return grid, g_grid


def w1_sample_gauss(s: EmpiricalSample, sigma: float) -> float:
    """W1 distance between the empirical law of s and N(0, sigma^2), exactly.

    Equals the integral over u in (0,1) of |Fhat^{-1}(u) - sigma*q(u)|; the
    closed-form slab evaluation makes it exact (up to roundoff) given the
    sample, with no tail truncation.
    """
    sigma = _check_sigma(sigma)
    x = s.values
    z = x / sigma
    return w1_sorted_gauss(x, gauss_cdf(z), gauss_pdf(z), sigma)


def sorted_gauss_tables(sample: np.ndarray, sigma: float) -> tuple:
    """(order, x, Phi(x/sigma), phi(x/sigma)) for x = sample[order], the
    sample sorted once (stably, so order depends on the sample alone)."""
    sigma = _check_sigma(sigma)
    order = np.argsort(sample, kind="stable")
    x = sample[order]
    if not np.all(np.isfinite(x)):
        raise DomainError("sample values must be finite")
    z = x / sigma
    return order, x, gauss_cdf(z), gauss_pdf(z)


def w1_sorted_gauss(x: np.ndarray, cdf: np.ndarray, pdf: np.ndarray, sigma: float,
                    scratch: Optional[tuple] = None) -> float:
    """The slab sum of w1_sample_gauss for sorted x, given its Gaussian
    tables cdf = Phi(x/sigma) and pdf = phi(x/sigma).

    Point i of m has the slab [a, b] = [i/m, (i+1)/m], with G-values ga, gb,
    and adds x (u0 - a) + sigma (g0 - ga) + sigma (g0 - gb) + x (u0 - b),
    where u0 = clip(cdf, a, b) and g0 is pdf, ga or gb as u0 is cdf, a or b.
    Below its slab (cdf < a) the first two terms are signed zeros, so the
    piece is exactly x (a - b) + sigma (ga - gb); above it (cdf > b) it is
    exactly the negative of that.  Only the points in their slab, edges
    included, take the general form.  Every term is elementwise in
    (x, cdf, pdf) apart from the slab grid, so a resample of a sorted sample
    can pass its tables gathered at its sorted positions instead of
    re-evaluating them.  It never writes x, cdf or pdf.  With `scratch`, a
    tuple (piece, term, mask) of two float arrays and a bool array of
    x.size, it works in the scratch and allocates arrays of the in-slab
    points only.
    """
    grid, g_grid = _slab_tables(x.size)
    a, b = grid[:-1], grid[1:]
    ga, gb = g_grid[:-1], g_grid[1:]
    if scratch is None:
        scratch = (np.empty(x.size), np.empty(x.size), np.empty(x.size, dtype=bool))
    piece, term, mask = scratch
    # every point as if outside its slab, negated where above it
    np.multiply(x, np.subtract(a, b, out=piece), out=piece)
    piece += np.multiply(sigma, np.subtract(ga, gb, out=term), out=term)
    np.negative(piece, out=piece, where=np.greater(cdf, b, out=mask))
    np.less_equal(cdf, b, out=mask)
    np.greater_equal(cdf, a, out=mask, where=mask)  # a <= cdf <= b: u0 = cdf, g0 = pdf
    i = np.flatnonzero(mask)
    xi, ci, pi = x[i], cdf[i], pdf[i]
    piece[i] = xi * (ci - a[i]) + sigma * (pi - ga[i]) + sigma * (pi - gb[i]) + xi * (ci - b[i])
    return float(piece.sum())


def _middle_piece(lo: np.ndarray, hi: np.ndarray, c: np.ndarray, cbar: np.ndarray,
                  sigma: float) -> np.ndarray:
    """Exact integral of |c - Phi_sigma| over finite segments [lo, hi]."""
    # crossing level through the smaller of (c, 1-c) so tails keep relative
    # accuracy; levels below 1e-300 put the crossing outside any finite segment
    small = np.minimum(c, cbar)
    sign = np.where(c <= cbar, 1.0, -1.0)
    xs = sigma * sign * np.asarray(gauss_quantile(np.clip(small, 1e-300, 0.5)), dtype=float)
    x0 = np.clip(xs, lo, hi)
    left = c * (x0 - lo) - sigma * (np.asarray(gauss_cdf_antideriv(x0 / sigma))
                                    - np.asarray(gauss_cdf_antideriv(lo / sigma)))
    right = cbar * (hi - x0) + sigma * (np.asarray(gauss_sf_antideriv(hi / sigma))
                                        - np.asarray(gauss_sf_antideriv(x0 / sigma)))
    return left + right


def w1_pmf_gauss(p: FinitePmf, sigma: float) -> float:
    """W1 distance between a finite law and N(0, sigma^2), exactly.

    Integrates |F_p - Phi_sigma| between consecutive atoms, splitting each
    segment at the level crossing x = sigma*quantile(level); the unbounded
    end segments use the vanishing antiderivatives directly.
    """
    sigma = _check_sigma(sigma)
    atoms = p.atoms
    cum = np.cumsum(p.probs)
    cum_rev = np.cumsum(p.probs[::-1])[::-1]
    total = sigma * float(gauss_cdf_antideriv(atoms[0] / sigma))      # (-inf, a_1]
    total += sigma * float(gauss_sf_antideriv(atoms[-1] / sigma))     # [a_K, inf)
    if atoms.size > 1:
        c = cum[:-1]
        cbar = cum_rev[1:]
        pieces = _middle_piece(atoms[:-1], atoms[1:], c, cbar, sigma)
        total += float(pieces.sum())
    return total


def ks_pmf_gauss(p: FinitePmf, sigma: float) -> float:
    """Kolmogorov distance between a finite law and N(0, sigma^2), exactly."""
    return _ks_step_cdf(np.cumsum(p.probs), gauss_cdf(p.atoms / _check_sigma(sigma)))


def ks_sample_gauss(s: EmpiricalSample, sigma: float) -> float:
    """Kolmogorov distance between the empirical law of s and N(0, sigma^2)."""
    sigma = _check_sigma(sigma)
    return ks_sorted_gauss(gauss_cdf(s.values / sigma))


def ks_sorted_gauss(cdf: np.ndarray) -> float:
    """Kolmogorov distance of the empirical law of a sorted sample, given
    its table cdf = Phi(x/sigma)."""
    return _ks_step_cdf(np.arange(1, cdf.size + 1) / cdf.size, cdf)


def _ks_step_cdf(cum: np.ndarray, phi: np.ndarray) -> float:
    """sup |F - Phi| over the left and right limits of a step cdf F, given F = cum
    and Phi = phi at its atoms."""
    left = np.concatenate([[0.0], cum[:-1]])
    return float(np.maximum(np.abs(cum - phi), np.abs(left - phi)).max())


# Gil-Pelaez inversion grid: x lives on a period of 2 * _X_SIGMAS s, s the larger
# of sigma and the law's own spread, so the t-step is pi / (_X_SIGMAS s); the
# t-cutoff is _T_SIGMAS / sigma, twice the point where the Gaussian factor
# exp(-sigma^2 t^2 / 2) is 2.6e-18 (so at least 69 t-steps), and doubles at most
# _CUTOFF_DOUBLINGS times where a relative error is asked for.
_X_SIGMAS = 12.0
_T_SIGMAS = 18.0
_X_POINTS = 4096          # x-grid points per period, at least
_CUTOFF_DOUBLINGS = 2


def _abs_integral_periodic(d: np.ndarray, dx: float) -> float:
    """Exact integral of |d| over one period for the piecewise-linear interpolant."""
    a, b = d, np.roll(d, -1)
    same = a * b >= 0.0
    straight = 0.5 * (np.abs(a) + np.abs(b))
    crossing = 0.5 * (a * a + b * b) / np.where(same, 1.0, np.abs(a - b))
    return float(np.where(same, straight, crossing).sum() * dx)


def _gil_pelaez_w1(psi: np.ndarray, h: float, x_points: int) -> float:
    """Integral of |F - Phi_sigma| from psi = phi - exp(-sigma^2 t^2/2) at t = h, 2h, ...

    F - Phi_sigma = -(1/pi) int_0^inf Im[exp(-itx) psi(t)] / t dt, by the
    trapezoid rule (the integrand is even and vanishes at 0), with the filter
    exp(-36 (t/T)^8) against the Gibbs ringing of the cutoff T (2.3e-16 at T);
    one FFT gives it on x_points points of the period 2 pi / h.
    """
    t = h * np.arange(1, psi.size + 1)
    weight = np.exp(-36.0 * (t / t[-1]) ** 8)
    c = np.zeros(x_points, dtype=complex)
    c[1:psi.size + 1] = weight * psi / t
    d = -(h / math.pi) * np.fft.fft(c).imag
    return _abs_integral_periodic(d, 2.0 * math.pi / (h * x_points))


def w1_charfn_gauss(charfn: Callable[[np.ndarray], tuple], sigma: float,
                    spread: Optional[float] = None,
                    rel_err: Optional[float] = None) -> tuple[float, float]:
    """W1 distance between a law given by its characteristic function and N(0, sigma^2).

    charfn(t) returns (phi(t), bound) for an array of t > 0: the values and a
    bound on each value's error.  F - Phi_sigma comes from the Gil-Pelaez
    formula at t-step h = pi / (12 s) up to the cutoff 18 / sigma, with
    s = max(sigma, spread), so the law must lie within about 12 s of 0: pass
    its standard deviation as `spread` where it may exceed sigma.  Its
    absolute value is integrated over an x-grid.  A law whose density has
    singular peaks, such as a sum of a few terms of a smooth sequence, has a
    slowly decaying phi and needs a larger cutoff for the same accuracy; with
    `rel_err` the cutoff doubles, at most twice, while err > rel_err * d1.

    Returns (d1, err).  err adds a bound, 2 sum_j bound(t_j) / t_j, on what the
    charfn errors can move d1, to estimates of the discretization error: the
    changes of d1 when h is halved (which also doubles the x-period), when the
    cutoff is halved or doubled, and when the x-step is doubled.
    """
    sigma = _check_sigma(sigma)
    if spread is not None and not (spread >= 0.0 and math.isfinite(spread)):
        raise DomainError("spread must be a nonnegative finite real")
    h = math.pi / (_X_SIGMAS * max(sigma, spread or 0.0))
    cutoff = _T_SIGMAS / sigma
    for _ in range(_CUTOFF_DOUBLINGS + 1 if rel_err is not None else 1):
        d1, err = _w1_charfn_on_grid(charfn, sigma, h, int(math.ceil(cutoff / h)))
        if rel_err is None or err <= rel_err * d1:
            break
        cutoff *= 2.0
    return d1, err


def _w1_charfn_on_grid(charfn, sigma: float, h: float, count: int) -> tuple[float, float]:
    """(d1, err) of w1_charfn_gauss at t-step h and cutoff count * h."""
    t = np.concatenate([0.5 * h * np.arange(1, 2 * count + 1),
                        h * np.arange(count + 1, 2 * count + 1)])
    phi, bound = charfn(t)
    psi = np.asarray(phi) - np.exp(-0.5 * (sigma * t) ** 2)
    half_step = psi[:2 * count]
    base = half_step[1::2]
    doubled = np.concatenate([base, psi[2 * count:]])
    points = max(_X_POINTS, 1 << (16 * count).bit_length())
    d1 = _gil_pelaez_w1(base, h, points)
    err = 2.0 * float(np.sum(bound[1:2 * count:2] / t[1:2 * count:2]))
    for psi_alt, h_alt, alt_points in ((half_step, 0.5 * h, 2 * points),
                                       (base[:count // 2], h, points),
                                       (doubled, h, points),
                                       (base, h, points // 2)):
        err += abs(_gil_pelaez_w1(psi_alt, h_alt, alt_points) - d1)
    return d1, err
