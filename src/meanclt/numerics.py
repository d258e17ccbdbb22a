"""Gaussian special functions, adaptive quadrature on [0,1], splittable RNG streams.

Everything here is deterministic and pure; these are the primitives every
other module builds on.  Accuracy targets are tight (1e-13 relative for the
Gaussian functions) because the Wasserstein integrals downstream difference
near-equal quantities.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

from .errors import AccuracyError, DomainError

ArrayLike = Union[float, np.ndarray]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# ---------------------------------------------------------------------------
# Tolerances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tolerance:
    """Error budget for adaptive quadrature."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_depth: int = 44

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be finite and positive, got {self.abs_tol!r} "
                              "(field: tolerance.abs_tol)")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0.0):
            raise DomainError(f"rel_tol must be finite and nonnegative, got {self.rel_tol!r} "
                              "(field: tolerance.rel_tol)")
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be at least 1, got {self.max_depth!r} "
                              "(field: tolerance.max_depth)")


DEFAULT_TOLERANCE = Tolerance()

# ---------------------------------------------------------------------------
# Splittable random streams (counter-based, O(1) substream creation)
# ---------------------------------------------------------------------------

_U64 = (1 << 64) - 1


class _KeyHandover(ISeedSequence):
    """Hands one Philox key to the next Philox built from it, then forgets it.

    Given a seed sequence, Philox takes its key from generate_state(2, uint64)
    and draws no OS entropy; Philox(key=...) first draws a SeedSequence() only
    to override it.  One instance under a lock serves every stream, so no
    generator keeps a holder of its own.  The key is a list of two Python
    ints, which Philox reads word by word as it would an array.
    """

    def __init__(self):
        self.key = None
        self.lock = threading.Lock()

    def generate_state(self, n_words, dtype=np.uint32):
        key, self.key = self.key, None
        if key is None:
            raise RuntimeError("a Philox key can be handed over only once")
        return key


_KEY_HANDOVER = _KeyHandover()


@dataclass(frozen=True)
class RandomStream:
    """A (seed, stream_index) pair naming one Philox4x64 stream.

    The stream is Philox4x64 with key (seed mod 2^64, stream_index mod 2^64)
    and counter 0, the words of Generator(Philox(key=k)) for that key k as a
    uint64 array, built without an OS-entropy draw.
    Distinct pairs give statistically independent streams; equal pairs
    reproduce identical output bit for bit.  A stream value is cheap to
    create and should be consumed by exactly one consumer.
    """

    seed: int
    stream_index: int

    def generator(self) -> Generator:
        h = _KEY_HANDOVER
        with h.lock:
            h.key = [self.seed & _U64, self.stream_index & _U64]
            return Generator(Philox(h))


def substream(seed: int, index: int) -> RandomStream:
    """Name the `index`-th independent stream of the family keyed by `seed`."""
    return RandomStream(seed=seed, stream_index=index)


# ---------------------------------------------------------------------------
# Gaussian special functions
# ---------------------------------------------------------------------------

_erfc_vec = np.frompyfunc(math.erfc, 1, 1)


def gauss_pdf(x: ArrayLike) -> ArrayLike:
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return out if out.ndim else float(out)


def gauss_cdf(x: ArrayLike) -> ArrayLike:
    """Standard normal distribution function, accurate in both tails."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_erfc_vec(-x / _SQRT2), dtype=float)
    return out if out.ndim else float(out)


def gauss_sf(x: ArrayLike) -> ArrayLike:
    """Upper tail P(Z > x); relative accuracy preserved for large x."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_erfc_vec(x / _SQRT2), dtype=float)
    return out if out.ndim else float(out)


def gauss_cdf_antideriv(x: ArrayLike) -> ArrayLike:
    """Antiderivative of the cdf: x*cdf(x) + pdf(x), vanishing at -inf."""
    x = np.asarray(x, dtype=float)
    out = x * gauss_cdf(x) + gauss_pdf(x)
    return out if out.ndim else float(out)


def gauss_sf_antideriv(x: ArrayLike) -> ArrayLike:
    """Antiderivative of -(1 - cdf): pdf(x) - x*sf(x), vanishing at +inf."""
    x = np.asarray(x, dtype=float)
    out = gauss_pdf(x) - x * gauss_sf(x)
    return out if out.ndim else float(out)


# Rational initial guess for the inverse cdf (Acklam's approximation,
# |rel err| < 1.2e-9), then two Halley refinements against the erfc-based
# cdf push the result to full double accuracy.
_ACK_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
          1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_ACK_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
          6.680131188771972e01, -1.328068155288572e01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
          -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
          3.754408661907416e00)
_ACK_SPLIT = 0.02425


def _acklam_guess(u: np.ndarray) -> np.ndarray:
    q = np.empty_like(u)
    lo = u < _ACK_SPLIT
    hi = u > 1.0 - _ACK_SPLIT
    mid = ~(lo | hi)
    if np.any(mid):
        v = u[mid] - 0.5
        r = v * v
        num = ((((_ACK_A[0] * r + _ACK_A[1]) * r + _ACK_A[2]) * r + _ACK_A[3]) * r + _ACK_A[4]) * r + _ACK_A[5]
        den = ((((_ACK_B[0] * r + _ACK_B[1]) * r + _ACK_B[2]) * r + _ACK_B[3]) * r + _ACK_B[4]) * r + 1.0
        q[mid] = v * num / den
    for mask, sign in ((lo, 1.0), (hi, -1.0)):
        if np.any(mask):
            p = u[mask] if sign > 0 else 1.0 - u[mask]
            r = np.sqrt(-2.0 * np.log(p))
            num = ((((_ACK_C[0] * r + _ACK_C[1]) * r + _ACK_C[2]) * r + _ACK_C[3]) * r + _ACK_C[4]) * r + _ACK_C[5]
            den = (((_ACK_D[0] * r + _ACK_D[1]) * r + _ACK_D[2]) * r + _ACK_D[3]) * r + 1.0
            q[mask] = sign * num / den
    return q


def gauss_quantile(u: ArrayLike) -> ArrayLike:
    """Inverse of the standard normal cdf on (0,1)."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("gaussian quantile requires arguments strictly inside (0,1)")
    q = _acklam_guess(np.atleast_1d(arr).astype(float))
    flat = q.reshape(-1)
    uflat = np.atleast_1d(arr).reshape(-1)
    # Halley iterations: solve cdf(q) = u.  In the lower tail the residual is
    # taken against cdf, in the upper tail against sf, so both stay accurate.
    for _ in range(2):
        lower = flat <= 0.0
        resid = np.where(lower,
                         gauss_cdf(flat) - uflat,
                         uflat - 1.0 + np.asarray(gauss_sf(flat)))
        # resid sign convention: f = cdf(q) - u in both branches.
        resid = np.where(lower, resid, -resid)
        pdf = gauss_pdf(flat)
        r = resid / pdf
        flat = flat - r / (1.0 + 0.5 * r * flat)
    q = flat.reshape(np.atleast_1d(arr).shape)
    return q.reshape(arr.shape) if arr.ndim else float(q[0])


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod 7-15 quadrature on [0, 1]
# ---------------------------------------------------------------------------

# Nodes/weights of the 15-point Kronrod extension of 7-point Gauss-Legendre,
# given on [-1, 1]; even abscissae listed once (symmetric rule).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])  # 15 ascending nodes
_KRON_W = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_GAUSS_W = np.zeros(15)
_GAUSS_W[1:-1:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])


def _panel_estimates(g: Callable[[np.ndarray], np.ndarray],
                     a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod-15 estimates and error indicators for a batch of intervals."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(g(x.reshape(-1)), dtype=float).reshape(x.shape)
    k15 = half * (vals @ _KRON_W)
    g7 = half * (vals @ _GAUSS_W)
    return k15, np.abs(k15 - g7)


def integrate_unit(g: Callable[[np.ndarray], np.ndarray],
                   tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Deterministic adaptive quadrature of g over [0, 1].

    g must be bounded and piecewise smooth (finitely many kinks) and accept a
    1-d numpy array of evaluation points.  The interval is bisected wherever
    the Kronrod error indicator exceeds the per-unit-length budget; kinks are
    found by the bisection, never pre-located.

    Raises AccuracyError (carrying the best estimate and its error bound)
    when some subinterval still fails at recursion depth tol.max_depth.
    """
    a = np.array([0.0])
    b = np.array([1.0])
    k15, err = _panel_estimates(g, a, b)
    eps = max(tol.abs_tol, tol.rel_tol * abs(float(k15[0])))

    total = 0.0
    total_err = 0.0
    for depth in range(tol.max_depth):
        width = b - a
        ok = err <= eps * width
        total += float(k15[ok].sum())
        total_err += float(err[ok].sum())
        a, b = a[~ok], b[~ok]
        if a.size == 0:
            return total
        mid = 0.5 * (a + b)
        a = np.concatenate([a, mid])
        b = np.concatenate([mid, b])
        k15, err = _panel_estimates(g, a, b)
    best = total + float(k15.sum())
    bound = total_err + float(err.sum())
    raise AccuracyError("quadrature did not converge within max_depth", best, bound)


def integrate_interval(g: Callable[[np.ndarray], np.ndarray],
                       lo: float, hi: float,
                       tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Adaptive quadrature over [lo, hi] by affine reduction to [0, 1]."""
    if not hi > lo:
        raise DomainError("integrate_interval requires hi > lo")
    width = hi - lo
    return integrate_unit(lambda t: np.asarray(g(lo + width * t)) * width, tol)


_PHI_DERIVS = {
    1: lambda x: -x * gauss_pdf(x),
    2: lambda x: (x * x - 1.0) * gauss_pdf(x),
    3: lambda x: (3.0 * x - x ** 3) * gauss_pdf(x),
}


def phi_deriv_l1(i: int, tol: Tolerance = Tolerance(1e-12, 1e-12, 44)) -> float:
    """L1 norm of the i-th derivative of the standard normal density, i in 1..3.

    Computed by quadrature over |x| <= 12 (the tails beyond are below 1e-30).
    """
    if i not in _PHI_DERIVS:
        raise DomainError("phi_deriv_l1 supports i in {1, 2, 3}")
    d = _PHI_DERIVS[i]
    return integrate_interval(lambda x: np.abs(d(x)), -12.0, 12.0, tol)
