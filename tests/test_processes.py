import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Philox

from meanclt.errors import DivergenceError, DomainError, PreconditionError, SchemaError
from meanclt.fourier import FourierFn, cosine, lebesgue_inner, sine
from meanclt import bounds, numerics, processes
from meanclt.numerics import integrate_unit, substream
from meanclt.processes import (_BAND_TAIL, _CHUNK_STEPS, _CHUNK_WORDS, _PHASE_BITS,
                               _SEGMENT_BITS, CircleWalk, DoublingMap, FiniteChain, SplitReal,
                               _draw_words, _exp_i_tau_f, _phase_tables,
                               exact_frac, exact_law, iid_gaussian, iid_rademacher,
                               is_martingale, long_run_variance, process_from_dict,
                               resolvent_tail, simulate, sqrt2_minus_one, transfer)
from meanclt.theta import theta_coeffs

DM = DoublingMap()
CW = CircleWalk(sqrt2_minus_one())
A = math.sqrt(2.0) - 1.0


def two_state_chain() -> FiniteChain:
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    return FiniteChain(p, values=np.array([-1.0, 2.0]))


def kernel_average_oracle(f: FourierFn, x: np.ndarray) -> np.ndarray:
    """One transfer step for the doubling chain, from its two inverse branches."""
    return 0.5 * (f.eval(x / 2.0) + f.eval((x + 1.0) / 2.0))


def row_bit_words(g, n_words):
    """n_words full-range uint64 draws through Generator.integers: the words
    the interval maps take, one raw word each."""
    return g.integers(0, (1 << 64) - 1, size=n_words, dtype=np.uint64, endpoint=True)


def step_bits(words, n):
    return [(int(words[t >> 6]) >> (t & 63)) & 1 for t in range(n)]


def circle_start_and_walk(g, n):
    """A uniform start x0, then the walk k_1..k_n of packed +/-1 step bits."""
    x0 = g.random()
    return x0, np.cumsum(2 * np.array(step_bits(row_bit_words(g, (n + 63) // 64), n)) - 1)


def circle_tables(x0, n, f):
    """Per frequency j of f in increasing order: its coefficients a_j, b_j, the tables
    (cos, sin)(2 pi {j k a}) at index n + k, |k| <= n, and (cos, sin)(2 pi j x0), each
    by numpy on an array as the kernel takes them."""
    out = []
    for j in range(1, f.max_freq + 1):
        a, b = f.cos_coeffs[j - 1], f.sin_coeffs[j - 1]
        if a == 0.0 and b == 0.0:
            continue
        th = 2.0 * math.pi * np.array([exact_frac(CW.a, j * i) for i in range(-n, n + 1)])
        th0 = (2.0 * math.pi * j) * np.array([x0])
        out.append((a, b, np.cos(th), np.sin(th), np.cos(th0)[0], np.sin(th0)[0]))
    return out


def circle_steps(x0, k, f=cosine(1)):
    """Circle-walk X_1..X_n of the walk k_1..k_n by hand, one step at a time: f(x0 + k a)
    per frequency j by the angle-sum rule on (cos, sin)(2 pi j x0) and on the tables
    of (cos, sin)(2 pi {j k a}) of `circle_tables`."""
    n = len(k)
    xs = np.full(n, f.constant)
    for a, b, cos_t, sin_t, cx, sx in circle_tables(x0, n, f):
        c, s = cos_t[n + k], sin_t[n + k]
        if a != 0.0:
            xs = xs + a * (cx * c - sx * s)
        if b != 0.0:
            xs = xs + b * (sx * c + cx * s)
    return xs


def circle_segments(x0, k, checkpoints, f=cosine(1)):
    """The circle-walk kernel's (t, x) by hand, in its segment form, for the walk
    k_1..k_n and a centered f.  From walk position k_t a segment takes m <=
    _SEGMENT_BITS steps, ending at a word end (t a multiple of 64) or a checkpoint,
    and adds per frequency j, in increasing j, Re(W e D): e = (c, s) the tables of
    `circle_steps` at k_t, D = (dc, ds) their sum over the segment's own walk
    k_{t+i} - k_t, i = 1..m, in step order, and W = (a_j - i b_j)(cx + i sx).  Each
    float operation is the kernel's, in its order."""
    n = len(k)
    walk = np.concatenate([[0], k])
    tables = circle_tables(x0, n, f)
    pairs = []
    for t, m in segments(checkpoints):
        x = None
        for a, b, cos_t, sin_t, cx, sx in tables:
            c, s = cos_t[n + walk[t]], sin_t[n + walk[t]]
            dc, ds = cos_t[n + walk[t + 1] - walk[t]], sin_t[n + walk[t + 1] - walk[t]]
            for d in walk[t + 2:t + m + 1] - walk[t]:
                dc, ds = dc + cos_t[n + d], ds + sin_t[n + d]
            wr, wi = a * cx + b * sx, a * sx - b * cx
            v = wr * (c * dc - s * ds) - wi * (c * ds + s * dc)
            x = v if x is None else x + v
        pairs.append((t + m, x))
    return pairs


def segments(checkpoints):
    """(t, m) per segment of the interval maps' kernels, in order: m <= _SEGMENT_BITS
    steps after step t, ending at a word end (a multiple of 64) or a checkpoint."""
    t = 0
    for end in sorted(set(checkpoints)):
        while t < end:
            m = min(_SEGMENT_BITS, 64 - t % 64, end - t)
            yield t, m
            t += m


def replay_circle_segments(g, n, checkpoints, f=cosine(1)):
    """`circle_segments` of the walk replicate g draws."""
    return circle_segments(*circle_start_and_walk(g, n), checkpoints, f)


def sums_at(pairs, checkpoints):
    """S at the checkpoints, from (t, x) pairs added up as `simulate` adds them."""
    s, sums = 0.0, {}
    for t, x in pairs:
        s += x
        sums[t] = s
    return np.array([sums[c] for c in checkpoints])


U = 2.0 ** -53


def assert_near_per_step(x0, k, pairs, f=cosine(1)):
    """The segment form's running sums S_t (`pairs` from `circle_segments`) against
    the per-step form's float cumsum of `circle_steps`, within their rounding.

    Both evaluate in floats the same exact sum T_t = sum_{s<=t} sum_j Re(W_j e(k_s))
    of the same rounded inputs: the tables e = (c, s), |e| <= rho = 1 + 8u (numpy's
    cos and sin within 4 ulp), and cx, sx; u = 2^-53, L = sum_j |a_j| + |b_j|, and
    P terms a_j, b_j != 0 in F frequencies.
    Per step form: a term a (p c - q s) rounds within 3.01 u |a| rho^2, as
    |p c| + |q s| <= |(p, q)| |e|, and the sum of the P terms adds up to u L per
    term: (P + 4) u L per step.
    Segment form, m <= 8 steps: D rounds within delta = u (m (m + 1)/2 - 1) per
    component (a sum of m values of size <= 1), W within 2.01 u (|a| + |b|) rho per
    component, and Re(W e D) within 4.3 u |W| |e| |D| (three roundings on
    |wr| + |wi| <= sqrt 2 |W|), |D| <= m rho: per frequency (8.4 m + 1.42 delta / u)
    u (|a| + |b|), and the sum over frequencies adds up to m u L per frequency.
    Per step that is at most (8.4 + 0.71 (m + 1) + F) u L <= (15 + F) u L.
    Each float sum S += x adds u |S| at the S it makes, per step in the one form
    and per segment in the other.  So
      |S_t(segments) - S_t(steps)| <= t (P + F + 19) u L
                                      + u (sum_{s<=t} |S_s(steps)| + sum |S(segment ends <= t)|).
    """
    steps = np.cumsum(circle_steps(x0, k, f))
    coeffs = np.concatenate([f.cos_coeffs, f.sin_coeffs])
    terms, freqs = np.count_nonzero(coeffs), np.count_nonzero(f.cos_coeffs + 1j * f.sin_coeffs)
    per_step = (terms + freqs + 19) * U * np.abs(coeffs).sum()
    s, seg_abs = 0.0, 0.0
    for t, x in pairs:
        s += x
        seg_abs += abs(s)
        bound = t * per_step + U * (np.abs(steps[:t]).sum() + seg_abs)
        assert abs(s - steps[t - 1]) <= bound, (t, s, steps[t - 1], bound)


def replay_circle_split(g, n, f=cosine(1)):
    """The circle-walk kernel before the phase tables: f at x0 + k*a.hi + k*a.lo
    mod 1, whose rounding grows with ulp(k*a)."""
    x0, k = circle_start_and_walk(g, n)
    return f.eval(np.mod(x0 + k * CW.a.hi + k * CW.a.lo, 1.0))


def doubling_states(g, n):
    """The doubling-map states w_1..w_n as Python ints: the head word, then the
    packed step bits shifted in from the top."""
    w = int(row_bit_words(g, 1)[0])
    states = []
    for bit in step_bits(row_bit_words(g, (n + 63) // 64), n):
        w = (w >> 1) | (bit << 63)
        states.append(w)
    return states


def doubling_phase(w, j, tables=_phase_tables()):
    """(cos, sin) 2 pi j w 2^-64 by the doubling kernel's float operations, the phase
    j w mod 2^64 split into its top _PHASE_BITS bits h and the rest l as Python ints."""
    cos_h, sin_h = tables
    th = j * w % (1 << 64)
    h, l = th >> (64 - _PHASE_BITS), th & ((1 << (64 - _PHASE_BITS)) - 1)
    phi = float(l) * (2.0 * math.pi * 2.0 ** -64)
    p = phi * phi
    cm1 = p * (-0.5 + p / 24.0)
    sn = phi * (1.0 + p * (-1.0 / 6.0 + p / 120.0))
    c, s = float(cos_h[h]), float(sin_h[h])
    return c + (c * cm1 - s * sn), s + (s * cm1 + c * sn)


def doubling_steps(states, f=cosine(1)):
    """The doubling-map kernel's per-step form by hand, at the states w_t (Python ints):
    X_t = sum_j (a_j cos + b_j sin) 2 pi j w_t 2^-64, increasing j, cos before sin, each
    from `doubling_phase`; f is centered."""
    xs = []
    for w in states:
        x = None
        for j in range(1, f.max_freq + 1):
            c, s = doubling_phase(w, j)
            for coef, v in ((f.cos_coeffs[j - 1], c), (f.sin_coeffs[j - 1], s)):
                if coef != 0.0:
                    x = float(coef) * v if x is None else x + float(coef) * v
        xs.append(x)
    return xs


def replay_doubling(g, n, f=cosine(1)):
    """`doubling_steps` of the states replicate g draws: the per-step reference."""
    return doubling_steps(doubling_states(g, n), f)


def replay_doubling_eval(g, n, f=cosine(1)):
    """The doubling-map per-step kernel before the phase tables: f.eval at w_t 2^-64
    rounded to double, whose error grows with the frequency."""
    return f.eval(np.array(doubling_states(g, n), dtype=np.float64) * 2.0 ** -64)


def doubling_segments(states, checkpoints, f=cosine(1)):
    """The doubling-map kernel's (t, x) by hand, in its segment form, for the states
    w_1..w_n (Python ints) and a centered f.  A segment of `segments` that ends at
    step e with m steps adds to 0.0, per frequency j in increasing j, for r = 0..m-1
    (cos before sin) a_j c_r and b_j s_r: (c_0, s_0) = `doubling_phase`(w_e, j), and
    (c_r, s_r) = (c^2 - s^2, 2 c s) of (c_{r-1}, s_{r-1}).  Each float operation is the
    kernel's, in its order."""
    pairs = []
    for t, m in segments(checkpoints):
        x = 0.0
        for j in range(1, f.max_freq + 1):
            a, b = float(f.cos_coeffs[j - 1]), float(f.sin_coeffs[j - 1])
            if a == 0.0 and b == 0.0:
                continue
            c, s = doubling_phase(states[t + m - 1], j)
            for r in range(m):
                if r:
                    c, s = c * c - s * s, 2.0 * (c * s)
                for coef, v in ((a, c), (b, s)):
                    if coef != 0.0:
                        x += v * coef
        pairs.append((t + m, x))
    return pairs


def replay_doubling_segments(g, n, checkpoints, f=cosine(1)):
    """`doubling_segments` of the states replicate g draws."""
    return doubling_segments(doubling_states(g, n), checkpoints, f)


def squaring_errors(m=_SEGMENT_BITS):
    """delta_r, r < m: a bound on |(c_r, s_r) - e^{2 pi i 2^r theta}| for the segment
    form's r-th squaring of (c_0, s_0), each of whose components is within 0.76 ulp(1)
    of (cos, sin) 2 pi theta (`test_phase_tables`: the table entry within 0.51 ulp(1),
    the series and the angle-sum rule within 0.25 ulp(1)), so delta_0 = sqrt 2 0.76
    2^-52.  With |z~ - z| <= delta and |z| = 1, |z~^2 - z^2| <= delta (2 + delta), and
    the float squaring, fl(fl(c^2) - fl(s^2)) and 2 fl(c s), rounds within sqrt 5 u
    |z~|^2 <= 3 u (1 + delta)^2, u = 2^-53.  So delta_r grows about as 2^r (delta_0 + 3 u);
    delta_7 < 8e-14."""
    deltas = [math.sqrt(2.0) * 0.76 * 2.0 ** -52]
    for _ in range(m - 1):
        d = deltas[-1]
        deltas.append(d * (2.0 + d) + 3.0 * U * (1.0 + d) ** 2)
    return deltas


def assert_near_doubling_steps(states, pairs, f=cosine(1)):
    """The segment form's running sums S_t (`pairs` from the doubling kernel) against
    the per-step form's float cumsum of `replay_doubling` at the same states.

    Per step and frequency j the per-step form's (cos, sin) is within delta_0 of the
    true value (`squaring_errors`), and the segment form's, r steps before its segment's
    end, within delta_r plus the angle of the r low bits that w_e << r drops, 2 pi j
    (2^r - 1) 2^-64 < 2 pi j 2^-57.  A term a c rounds within u |a| (1 + delta), and
    the float sums over the P nonzero terms add up to P u L per step in the one form and
    8 P u L in the other, which sums up to 8 steps of P terms per segment, with L =
    sum_j |a_j| + |b_j| and F the top frequency.  So per step the two differ by at most
    (delta_0 + delta_7 + 2 pi F 2^-57 + (9 P + 2) u) L, and each float sum S += x adds
    u |S| at the S it makes, per step in the one form and per segment in the other."""
    steps = np.cumsum(doubling_steps(states, f))
    coeffs = np.concatenate([f.cos_coeffs, f.sin_coeffs])
    terms, top = np.count_nonzero(coeffs), f.max_freq
    d = squaring_errors()
    per_step = (d[0] + d[-1] + 2.0 * math.pi * top * 2.0 ** -57
                + (9 * terms + 2) * U) * np.abs(coeffs).sum()
    s, seg_abs = 0.0, 0.0
    for t, x in pairs:
        s += x
        seg_abs += abs(s)
        bound = t * per_step + U * (np.abs(steps[:t]).sum() + seg_abs)
        assert abs(s - steps[t - 1]) <= bound, (t, s, steps[t - 1], bound)


class FixedWords:
    """A stand-in generator whose raw words are `head`, then `fill` for ever."""

    def __init__(self, head, fill):
        self.bit_generator, self.head, self.fill = self, head, fill

    def random_raw(self, size):
        out = np.full(size, self.fill, dtype=np.uint64)
        if self.head is not None:
            out[0], self.head = self.head, None
        return out


class CountingGenerator:
    """Wraps a Generator's bit generator and counts its random_raw calls."""

    def __init__(self, g):
        self.bit_generator, self.raw, self.calls = self, g.bit_generator, 0

    def random_raw(self, size):
        self.calls += 1
        return self.raw.random_raw(size)


def replay_chain(g, n):
    """Finite-chain kernel by hand: inverse-cdf draws from pi, then from row P[state];
    X_t is the state's value less its stationary mean."""
    fc = two_state_chain()
    mean = float(fc.stationary @ fc.values)
    u = g.random(n + 1)
    state = int(np.searchsorted(np.cumsum(fc.stationary), u[0], side="right"))
    xs = []
    for t in range(1, n + 1):
        state = int((np.cumsum(fc.transition[state]) < u[t]).sum())
        xs.append(float(fc.values[state] - mean))
    return xs


def simulate_in_blocks(block_size, *args, **kwargs):
    """simulate(*args, **kwargs) with `block_size` replicates side by side."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "_BLOCK_SIZE", block_size)
        return simulate(*args, **kwargs)


def sample_states(spec, step: int, reps: int, seed: int = 0) -> np.ndarray:
    """Each replicate's state at time `step` on the path `simulate` walks: the
    doubling map's fixed-point word, the head word with each step word of
    `_draw_words` shifted in from the top as the kernel does at a word end, rounded
    once to a double; the circle walk's x0 + {k a} mod 1."""
    gens = [substream(seed, r).generator() for r in range(reps)]
    if isinstance(spec, DoublingMap):
        w, words = _draw_words(gens, step)
        for word, m in words:
            w = (w >> np.uint64(m)) | (word << np.uint64(64 - m))
        return w.astype(np.float64) * 2.0 ** -64
    w0, words = _draw_words(gens, step)
    x0 = (w0 >> np.uint64(11)) * 2.0 ** -53
    k = np.zeros(reps, dtype=np.int64)
    for word, m in words:
        for s in range(m):
            k += 2 * (word >> np.uint64(s) & np.uint64(1)).view(np.int64) - 1
    return np.array([(x + exact_frac(spec.a, int(c))) % 1.0 for x, c in zip(x0, k)])


def replay_iid(g, n):
    return iid_gaussian(1.5).sampler(g, n)


def replay_rademacher(g, n):
    return iid_rademacher().sampler(g, n)


class TestSplitReal:
    def test_sqrt2_value(self):
        a = sqrt2_minus_one()
        assert a.value == pytest.approx(A, abs=1e-15)
        assert abs(a.lo) < 1e-16
        # the pair satisfies a^2 + 2a = 1 far beyond double precision
        fr = a.as_fraction()
        assert abs(float(fr * fr + 2 * fr - 1)) < 1e-30

    @pytest.mark.parametrize("a", [sqrt2_minus_one(), (math.sqrt(5.0) - 1.0) / 2.0],
                             ids=["split", "float"])
    def test_exact_frac_matches_fraction_form(self, a):
        fr = a.as_fraction() if isinstance(a, SplitReal) else Fraction(a)
        for k in range(-4099, 4100, 7):
            assert exact_frac(a, k) == float(k * fr % 1)


class TestTransfer:
    def test_doubling_halves_frequencies(self):
        out = transfer(DM, cosine(2), 1)
        assert out.allclose(cosine(1), 1e-15)

    def test_doubling_kills_odd(self):
        assert transfer(DM, cosine(1), 1).is_zero()

    def test_doubling_matches_branch_average(self):
        gen = np.random.default_rng(0)
        f = FourierFn(0.0, gen.normal(size=5), gen.normal(size=5))
        xs = np.linspace(0, 1, 301, endpoint=False)
        out = transfer(DM, f, 1)
        assert np.allclose(out.eval(xs), kernel_average_oracle(f, xs), atol=1e-12)

    def test_doubling_matches_index_loop(self):
        # reference: copy frequency j * 2^steps to j with Python integers, which
        # cannot overflow; bound series call transfer with steps up to sqrt(2n)
        gen = np.random.default_rng(3)
        f = FourierFn(0.2, gen.normal(size=300), gen.normal(size=300))
        for steps in (1, 2, 7, 8, 63, 64, 181):
            step = 1 << steps
            idx = [j * step - 1 for j in range(1, f.max_freq // step + 1)]
            expect = FourierFn(0.2, f.cos_coeffs[idx], f.sin_coeffs[idx])
            assert transfer(DM, f, steps).allclose(expect, 0.0)

    def test_circle_multiplier(self):
        out = transfer(CW, sine(1), 1)
        assert out.sin_coeffs[0] == pytest.approx(math.cos(2 * math.pi * A), abs=1e-14)
        assert abs(out.cos_coeffs[0]) == 0.0

    def test_semigroup_exact(self):
        gen = np.random.default_rng(5)
        f = FourierFn(0.3, gen.normal(size=8), gen.normal(size=8))
        lhs = transfer(DM, f, 3)
        rhs = transfer(DM, transfer(DM, f, 2), 1)
        assert lhs.allclose(rhs)

    def test_contraction_on_grid(self):
        gen = np.random.default_rng(7)
        for spec in (DM, CW):
            f = FourierFn(0.1, gen.normal(size=6), gen.normal(size=6))
            xs = np.arange(10_000) / 10_000
            for m in (1, 3):
                assert np.abs(transfer(spec, f, m).eval(xs)).max() \
                    <= np.abs(f.eval(xs)).max() + 1e-10

    def test_lebesgue_invariance(self):
        gen = np.random.default_rng(8)
        for spec in (DM, CW):
            f = FourierFn(0.7, gen.normal(size=5), gen.normal(size=5))
            before = integrate_unit(f.eval)
            after = integrate_unit(transfer(spec, f, 1).eval)
            assert after == pytest.approx(before, abs=1e-10)

    def test_iid_rejects_fourier(self):
        # the i.i.d. law carries its observable: a FourierFn is an error, not its mean
        with pytest.raises(TypeError, match="carries its own observable"):
            transfer(iid_rademacher(), FourierFn(0.4, [1.0], [2.0]), 1)

    def test_finite_chain_rejects_fourier(self):
        with pytest.raises(TypeError):
            transfer(two_state_chain(), cosine(1), 1)
        with pytest.raises(TypeError):
            long_run_variance(two_state_chain(), cosine(1))


# every entry point of the observable contract, as a call on (spec, f)
CONTRACT_ENTRY_POINTS = {
    "transfer": lambda spec, f: transfer(spec, f, 1),
    "resolvent_tail": lambda spec, f: resolvent_tail(spec, f, 1),
    "is_martingale": is_martingale,
    "long_run_variance": long_run_variance,
    "simulate": lambda spec, f: simulate(spec, f, 4, 2),
    "exact_law": lambda spec, f: exact_law(spec, f, 2),
    "moments": bounds.moments,
    "theta_coeffs": lambda spec, f: theta_coeffs(spec, f, [(0, 1, 1)], 0),
}
NEEDS_CENTERED = ("resolvent_tail", "long_run_variance", "simulate", "moments", "theta_coeffs")


class TestObservableContract:
    """One rule, one message: a family that carries its observable takes none,
    an interval map takes a FourierFn, centered where the entry point needs it."""

    @pytest.mark.parametrize("entry", CONTRACT_ENTRY_POINTS)
    @pytest.mark.parametrize("spec, f", [
        (two_state_chain(), cosine(1)), (iid_rademacher(), cosine(1)),
        (DM, None), (CW, None), (DM, np.array([0.0, 1.0])), (CW, "cos1")],
        ids=["chain-fourier", "iid-fourier", "doubling-none", "circle-none",
             "doubling-array", "circle-str"])
    def test_rejects_a_wrong_kind_of_observable(self, entry, spec, f):
        message = ("carries its own observable; give none" if spec.carries_observable
                   else "needs a FourierFn observable")
        with pytest.raises(TypeError, match=f"^the {spec.label} process {message}$"):
            CONTRACT_ENTRY_POINTS[entry](spec, f)

    @pytest.mark.parametrize("entry", CONTRACT_ENTRY_POINTS)
    @pytest.mark.parametrize("spec", [DM, CW], ids=["doubling", "circle"])
    def test_centering_where_needed(self, entry, spec):
        call = CONTRACT_ENTRY_POINTS[entry]
        uncentered = FourierFn(0.25, [0.0, 0.0, 1.0])
        if entry in NEEDS_CENTERED:
            with pytest.raises(PreconditionError, match="^the observable must be centered"):
                call(spec, uncentered)
        else:
            call(spec, uncentered)


class TestResolventTail:
    def test_doubling_mds_tail_empty(self):
        assert resolvent_tail(DM, cosine(1), 1).is_zero()

    def test_doubling_single_term(self):
        out = resolvent_tail(DM, cosine(2), 1)
        assert out.allclose(cosine(1), 1e-15)

    def test_circle_geometric_series(self):
        out = resolvent_tail(CW, cosine(1), 1)
        c = math.cos(2 * math.pi * A)
        # numeric oracle: partial geometric sums of the transfer multipliers
        partial = sum(c ** l for l in range(1, 260))
        assert out.cos_coeffs[0] == pytest.approx(partial, abs=1e-12)
        assert out.cos_coeffs[0] == pytest.approx(c / (1.0 - c), abs=1e-14)

    def test_resonance_divergence(self):
        # passes the small-denominator guard yet resonates at frequency 3
        walk = CircleWalk(SplitReal(1.0 / 3.0 + 1e-14))
        with pytest.raises(DivergenceError):
            resolvent_tail(walk, cosine(3), 1)

    def test_requires_centered(self):
        with pytest.raises(PreconditionError):
            resolvent_tail(DM, FourierFn(1.0, [1.0], [0.0]), 1)


class TestLongRunVariance:
    def test_iid(self):
        assert long_run_variance(iid_rademacher()).sigma2 == 1.0

    def test_circle_cotangent(self):
        got = long_run_variance(CW, cosine(1)).sigma2
        assert got == pytest.approx(0.5 / math.tan(math.pi * A) ** 2, rel=1e-13)

    def test_doubling_mds(self):
        lrv = long_run_variance(DM, cosine(1))
        assert lrv.sigma2 == pytest.approx(0.5)

    def test_finite_chain_matches_simulation(self):
        fc = two_state_chain()
        lrv = long_run_variance(fc)
        ens = simulate(fc, None, 2000, 4000, seed=11)
        var_hat = ens.partial_sums[:, 0].var() / 2000
        assert var_hat == pytest.approx(lrv.sigma2, rel=0.1)

    def test_resonance_detected(self):
        walk = CircleWalk(SplitReal(1.0 / 3.0 + 1e-14))
        with pytest.raises(DivergenceError):
            long_run_variance(walk, cosine(3))

    def test_reducible_chain_rejected(self):
        # eigenvalue 1 is double, so pi is not unique and the fundamental matrix is singular
        with pytest.raises(DomainError, match="reducible"):
            FiniteChain(np.eye(2), [1.0, -1.0])
        with pytest.raises(DomainError, match="reducible"):
            FiniteChain(np.eye(2), [1.0, -1.0], stationary=np.array([0.5, 0.5]))


MIXED = FourierFn(0.0, [0.5, 1.0, 0.25], [0.0, 0.3])  # not a martingale difference


def doubling_sum(f: FourierFn, n: int, k: int = 16) -> np.ndarray:
    """S_n = sum_{j<n} f(2^j x) on the 2^k midpoints x, the chain read backwards."""
    x = (np.arange(1 << k) + 0.5) / (1 << k)
    return sum(f.eval((2.0 ** j * x) % 1.0) for j in range(n))


def twisted_loop(f: FourierFn, n: int, tau: float, band: int) -> complex:
    """phi_n(tau) by n dense steps u <- A u of the twisted operator, A[l', l] = g_{2l'-l}."""
    x = np.arange(1 << 12) / (1 << 12)
    coeffs = np.fft.fft(np.exp(1j * tau * f.eval(x))) / x.size   # g_k at index k mod 4096
    a = np.zeros((2 * band + 1, 2 * band + 1), dtype=complex)
    for i, lp in enumerate(range(-band, band + 1)):
        for j, l in enumerate(range(-band, band + 1)):
            if abs(2 * lp - l) <= band:
                a[i, j] = coeffs[(2 * lp - l) % x.size]
    u = np.zeros(2 * band + 1, dtype=complex)
    u[band] = 1.0
    for _ in range(n):
        u = a @ u
    return u[band]


class TestCharacteristic:
    def test_one_step_is_bessel_j0(self):
        mp = pytest.importorskip("mpmath")
        taus = np.linspace(-25.0, 25.0, 101)
        law = exact_law(DM, cosine(1), 1)(taus)
        want = np.array([float(mp.besselj(0, float(t))) for t in taus])
        assert np.max(np.abs(law.values - want)) < 1e-15
        # the bound covers the rounding of the coefficients (the error reaches 6e-16)
        assert np.all(np.abs(law.values - want) <= law.bound)
        assert np.all(law.bound < 1e-12)

    def test_coefficient_bound_holds_at_loose_tails(self):
        # the partial Fourier sum of exp(i tau f) stays within eps of it everywhere:
        # at loose tails truncation and aliasing dominate, at the default tail the
        # rounding of the samples and of their FFT.  Both sides are evaluated in
        # long double, so eps alone has to cover the difference
        x = np.arange(8192, dtype=np.longdouble) / 8192
        two_pi = 2 * np.arccos(np.longdouble(-1.0))
        taus = np.linspace(-40.0, 40.0, 81)
        order = np.argsort(np.abs(taus), kind="stable")
        batches = [order[s:s + 16] for s in range(0, taus.size, 16)]
        for f in (cosine(1), cosine(2), FourierFn(0.2, [0.0, -0.7], [0.4])):
            f_x = f.constant + sum(a * np.cos(two_pi * k * x) + b * np.sin(two_pi * k * x)
                                   for k, (a, b) in enumerate(zip(f.cos_coeffs, f.sin_coeffs), 1))
            want = np.exp(1j * np.outer(taus.astype(np.longdouble), f_x))
            for tail in (1e-2, 1e-4, 1e-8, _BAND_TAIL):
                gs, eps = _exp_i_tau_f(f, taus, batches, tail)
                for rows, g in zip(batches, gs):
                    band = (g.shape[1] - 1) // 2
                    spread = np.zeros((rows.size, x.size), dtype=np.clongdouble)
                    spread[:, np.arange(-band, band + 1) % x.size] = g
                    err = np.abs(np.fft.ifft(spread) * x.size - want[rows])
                    assert np.all(err.max(axis=1) <= eps[rows]), (f.describe(), tail)

    def test_matches_direct_quadrature(self):
        # at n = 1 the exact law is the grid mean of exp(i tau f) itself
        taus = np.array([-2.5, 0.0, 0.3, 1.0, 4.0, 20.0])
        for f in (cosine(1), MIXED, FourierFn(0.2, [0.0, -0.7], [0.4])):
            for n in (1, 2, 3, 6):
                want = np.exp(1j * np.outer(taus, doubling_sum(f, n))).mean(axis=1)
                got = exact_law(DM, f, n)(taus)
                assert np.max(np.abs(got.values - want)) < 1e-14, (f.describe(), n)

    def test_both_power_paths_match_the_dense_loop(self):
        # small n at a wide band iterates by FFT; large n at a narrow band squares,
        # on the folded even space for a cosine and on the full one otherwise
        for f, n, tau, band in ((cosine(1), 4, 9.0, 60), (cosine(1), 64, 0.8, 30),
                                (MIXED, 3, 5.0, 130), (MIXED, 1024, 0.1, 60)):
            got = exact_law(DM, f, n)(np.array([tau])).values[0]
            assert abs(got - twisted_loop(f, n, tau, band)) < 1e-13, (f.describe(), n)

    def test_curvature_is_finite_n_variance(self):
        # -phi_n''(0) = Var S_n = n (c_0 + 2 sum_{k<n} (1 - k/n) c_k)
        delta = 1e-4
        for f in (cosine(1), cosine(2), MIXED):
            for n in (5, 12):
                covs = [lebesgue_inner(f, transfer(DM, f, k)) for k in range(n)]
                var = covs[0] + 2.0 * sum((1.0 - k / n) * c
                                          for k, c in enumerate(covs[1:], 1))
                phi = exact_law(DM, f, n)(np.array([delta])).values[0]
                curvature = 2.0 * (1.0 - phi.real) / delta ** 2 / n
                assert curvature == pytest.approx(var, rel=1e-6), (f.describe(), n)

    @pytest.mark.parametrize("f,g", [
        (cosine(2), cosine(1)), (cosine(8, -1.5), cosine(1, -1.5)), (sine(4), sine(1)),
        (FourierFn(0.0, [0.0, 0.5, 0.0, -0.2], [0.0, 0.0, 0.0, 0.3]),
         FourierFn(0.0, [0.5, -0.2], [0.0, 0.3]))], ids=["cos2", "cos8", "sin4", "mixed-even"])
    def test_dilated_observable_takes_the_law_of_its_root(self, f, g):
        # f = g o T^k, every frequency of f a multiple of 2^k: T preserves
        # Lebesgue measure, so S_n has one law for f and g, and the law of f is
        # taken from g, its values and bounds bit for bit
        taus = np.array([-3.0, 0.0, 0.4, 1.7, 9.0, 30.0])
        for n in (1, 5, 64, 1024):
            got, want = exact_law(DM, f, n)(taus), exact_law(DM, g, n)(taus)
            assert got.values.tobytes() == want.values.tobytes(), (f.describe(), n)
            assert got.bound.tobytes() == want.bound.tobytes(), (f.describe(), n)

    def test_odd_frequency_is_not_reduced(self, monkeypatch):
        # the law is taken from the observable whose frequencies are not all
        # even: cos 8 pi x from cos 2 pi x, MIXED and f o T for f = MIXED from
        # MIXED, both of which have frequency 1
        seen = []
        exp_i_tau_f = processes._exp_i_tau_f
        monkeypatch.setattr(processes, "_exp_i_tau_f",
                            lambda f, *args: (seen.append(f), exp_i_tau_f(f, *args))[1])
        dilated = FourierFn(0.0, [0.0, 0.5, 0.0, 1.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.3])
        for f, root in ((cosine(4), cosine(1)), (MIXED, MIXED), (dilated, MIXED)):
            exact_law(DM, f, 8)(np.array([0.5]))
            assert seen[-1].to_dict() == root.to_dict()

    def test_truncation_bound_is_tiny(self):
        # the truncation leaves under 1e-15; the rounding of the samples of
        # exp(i tau f) and of their FFT, at most n sqrt(2B + 1) times its ~1e-14
        # per-sample bound, brings the bound to about 1.5e-11 here
        taus = np.linspace(0.0, 60.0, 200) / math.sqrt(64)
        law = exact_law(DM, cosine(1), 64)(taus)
        assert law.values.shape == taus.shape
        assert np.max(law.bound) < 1e-10

    def test_other_families_have_no_exact_law(self):
        assert exact_law(CW, cosine(1), 8) is None
        assert exact_law(two_state_chain(), None, 8) is None
        assert exact_law(iid_gaussian(), None, 8) is None
        assert exact_law(iid_gaussian(2.5), None, 8) is None
        for spec, f in ((DM, cosine(1)), (iid_rademacher(), None)):
            with pytest.raises(DomainError):
                exact_law(spec, f, 0)

    def test_rademacher_law_is_the_binomial_pmf(self):
        for n in (1, 2, 7, 64):
            pmf = exact_law(iid_rademacher(), None, n)
            k = np.arange(n + 1)
            assert np.array_equal(pmf.atoms, (2.0 * k - n) / math.sqrt(n))
            want = [math.comb(n, i) / 2.0 ** n for i in k]
            assert np.allclose(pmf.probs, want, rtol=1e-13, atol=0.0)
        pmf = exact_law(iid_rademacher(), None, 4096)  # far-out atoms underflow and go
        assert abs(pmf.probs.sum() - 1.0) < 1e-12 and pmf.atoms.size < 4097

    def test_doubling_law_takes_any_array_shape(self):
        phi = exact_law(DM, cosine(1), 8)
        law = phi([[0.5, -0.25], [0.0, 1.0]])
        assert law.values.shape == law.bound.shape == (2, 2)
        assert law.values[1, 0] == 1.0
        with pytest.raises(TypeError):
            exact_law(DM, None, 8)


class TestMartingale:
    def test_doubling_odd_frequency(self):
        assert is_martingale(DM, cosine(1))
        assert is_martingale(DM, sine(3))

    def test_doubling_even_frequency(self):
        assert not is_martingale(DM, cosine(2))

    def test_circle_not_martingale(self):
        assert not is_martingale(CW, cosine(1))


class TestIrrationalityGuard:
    def test_rational_rejected(self):
        for bad in (0.5, 0.25, 2.0 / 3.0):
            with pytest.raises(DomainError):
                CircleWalk(SplitReal(bad))

    def test_near_rational_rejected(self):
        with pytest.raises(DomainError):
            CircleWalk(SplitReal(1.0 / 3.0 + 1e-16))

    def test_sqrt2_accepted(self):
        CircleWalk(sqrt2_minus_one())


class TestSimulate:
    def test_rademacher_single_step(self):
        ens = simulate(iid_rademacher(), None, 1, 64, seed=3)
        assert set(np.unique(ens.partial_sums)) <= {-1.0, 1.0}

    def test_same_seed_identical(self):
        kw = dict(n=128, reps=300, checkpoints=[32, 128], seed=5)
        a = simulate(DM, cosine(1), **kw)
        b = simulate(DM, cosine(1), **kw)
        assert np.array_equal(a.partial_sums, b.partial_sums)

    def test_block_size_invariance(self):
        a = simulate_in_blocks(4096, CW, cosine(1), 100, 257, seed=6)
        b = simulate_in_blocks(31, CW, cosine(1), 100, 257, seed=6)
        assert np.array_equal(a.partial_sums, b.partial_sums)
        for spec, f in ((DM, cosine(1)), (CW, FourierFn(0.0, [1.0, 0.5], [0.0, 0.3])),
                        (two_state_chain(), None), (iid_rademacher(), None)):
            sums = [simulate_in_blocks(bs, spec, f, 130, 23, checkpoints=[1, 64, 65, 130],
                                       seed=8).partial_sums for bs in (1, 7, 4096)]
            assert np.array_equal(sums[0], sums[1]) and np.array_equal(sums[0], sums[2])

    def test_generators_are_built_once_per_simulation(self, monkeypatch):
        # later blocks re-key the first block's generators instead of building new ones
        built = []

        def philox(*args):
            built.append(args)
            return Philox(*args)

        monkeypatch.setattr(numerics, "Philox", philox)
        for spec, f in ((DM, cosine(1)), (CW, cosine(1)), (two_state_chain(), None),
                        (iid_rademacher(), None)):
            built.clear()
            simulate_in_blocks(7, spec, f, 20, 30, seed=4)  # blocks of 7, 7, 7, 7 and 2
            assert 0 < len(built) <= 7, spec

    def test_doubling_mds_mean_and_variance(self):
        reps, n = 10_000, 1000
        ens = simulate(DM, cosine(1), n, reps, seed=9)
        s = ens.normalized(n)
        sigma = math.sqrt(0.5)
        assert abs(s.mean()) < 4 * sigma / math.sqrt(reps) * 1.1
        assert s.var() == pytest.approx(0.5, rel=0.06)

    def test_kernel_consistency_one_step(self):
        # empirical E(f(xi_1) | xi_0 = x) against the exact transfer image
        f = cosine(2)
        kf = transfer(DM, f, 1)
        gen = np.random.default_rng(123)
        reps = 100_000
        for x in np.linspace(0.025, 0.975, 20):
            b = gen.integers(0, 2, reps)
            vals = f.eval((x + b) / 2.0)
            se = vals.std() / math.sqrt(reps)
            assert abs(vals.mean() - kf.eval(float(x))) < 4 * se + 1e-12

    def test_stationarity_ks(self):
        reps = 4000
        crit = 1.63 / math.sqrt(reps)
        for spec in (DM, CW):
            for step in (0, 10, 100):
                xs = np.sort(sample_states(spec, step, reps, seed=21))
                grid = np.arange(1, reps + 1) / reps
                ks = max(np.abs(grid - xs).max(), np.abs(grid - 1.0 / reps - xs).max())
                assert ks < crit, (spec.label, step, ks)

    def test_checkpoint_validation(self):
        with pytest.raises(DomainError):
            simulate(DM, cosine(1), 10, 5, checkpoints=[0, 5], seed=0)
        with pytest.raises(DomainError):
            simulate(DM, cosine(1), 10, 5, checkpoints=[20], seed=0)

    def test_doubling_fixed_point_replay(self):
        # bit-exact contract: row r consumes substream(seed, r) as one word for the
        # initial state followed by packed step bits, low bit first, and S adds the
        # segment sums `replay_doubling_segments` gives; near the per-step reference
        f = cosine(1)
        n, reps, seed = 75, 6, 314
        ens = simulate(DM, f, n, reps, checkpoints=[n], seed=seed)
        for r in range(reps):
            pairs = replay_doubling_segments(substream(seed, r).generator(), n, [n], f)
            assert [t for t, _ in pairs] == [8, 16, 24, 32, 40, 48, 56, 64, 72, 75]
            assert sums_at(pairs, [n])[0] == ens.partial_sums[r, 0]
            assert_near_doubling_steps(doubling_states(substream(seed, r).generator(), n), pairs)

    def test_doubling_kernel_replay_mixed_observable(self):
        # cosines at j = 1 and 3 and a sine at j = 3, segment by segment; 3 w wraps mod 2^64
        f = FourierFn(0.0, [1.0, 0.0, 0.5], [0.0, 0.0, 0.3])
        n, reps, seed, cps = 200, 5, 17, (37, 100, 200)
        pairs = list(DM._simulate_block(
            f, n, [substream(seed, r).generator() for r in range(reps)], cps))
        wraps = 0
        for r in range(reps):
            states = doubling_states(substream(seed, r).generator(), n)
            wraps += sum(3 * w >> 64 for w in states)
            replay = doubling_segments(states, cps, f)
            assert [(t, x[r]) for t, x in pairs] == replay
            assert_near_doubling_steps(states, replay, f)
        assert wraps > 0

    @pytest.mark.parametrize("tile", [1, 3, 8192, 10 ** 5])
    def test_doubling_tiles_keep_the_sums(self, tile, monkeypatch):
        # the kernel reads tiles of max(1, _TILE_ELEMS // (2 reps)) segment ends that end
        # at word ends; the sums are the segment replay's bit for bit at checkpoints
        # inside words and at word ends, whatever the tile and the block
        monkeypatch.setattr(processes, "_TILE_ELEMS", tile)
        f = FourierFn(0.0, [1.0, 0.0, 0.5], [0.0, 0.0, 0.3])
        n, seed = 200, 19
        cps = [1, 2, 3, 5, 63, 64, 65, 127, 128, 129, 131, 192, 199, 200]
        for reps in (1, 5):
            for bs in (1, 3, 4096):
                ens = simulate_in_blocks(bs, DM, f, n, reps, checkpoints=cps, seed=seed)
                for r in range(reps):
                    pairs = replay_doubling_segments(substream(seed, r).generator(), n, cps, f)
                    assert np.array_equal(sums_at(pairs, cps), ens.partial_sums[r])

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130])
    def test_doubling_segments_at_the_edges(self, n):
        # a checkpoint at every step, at n alone, and off the multiples of 8; all-ones and
        # all-zeros words, and segments cut short by checkpoints and by the last word
        f = FourierFn(0.0, [1.0, 0.0, 0.5], [0.0, 0.0, 0.3])
        head = 0x9E3779B97F4A7C15
        for cps in (tuple(range(1, n + 1)), (n,), tuple(c for c in (3, 13, 70) if c < n) + (n,)):
            for fill in ((1 << 64) - 1, 0, 0x0123456789ABCDEF):
                w, states = head, []
                for t in range(n):
                    w = (w >> 1) | ((fill >> (t % 64) & 1) << 63)
                    states.append(w)
                pairs = [(t, x[0]) for t, x in DM._simulate_block(f, n, [FixedWords(head, fill)],
                                                                  cps)]
                assert pairs == doubling_segments(states, cps, f)
                assert_near_doubling_steps(states, pairs, f)

    def test_doubling_kernel_sums_segments(self):
        # a structural guard, with no timer: the hook hands over at most one sum per
        # 8 steps, per word end and per checkpoint, so a per-step fallback fails
        n, cps = 4096, (100, 1000, 2049, 4096)
        gens = [substream(1, r).generator() for r in range(3)]
        yields = sum(1 for _ in DM._simulate_block(cosine(1), n, gens, cps))
        assert yields <= -(-n // 8) + -(-n // 64) + len(cps)

    def test_doubling_tiles_take_bounded_memory(self):
        # a tile's temporaries hold _TILE_ELEMS numbers, 64 KiB, under README's 256 KiB:
        # at 4096 replicates the peak over a one-step run (generators, sums, head words)
        # is 15 more rows of step words and at most 10 such temporaries, and once n
        # passes one chunk of words it no longer grows with n
        reps = 4096

        def peak(n):
            tracemalloc.start()
            simulate(DM, cosine(1), n, reps, seed=4)
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return top

        one, mid, large = peak(1), peak(1024), peak(4096)
        assert abs(large - mid) <= 64 * 1024
        assert large - one <= 15 * 8 * reps + 10 * 8 * processes._TILE_ELEMS

    def test_doubling_kernel_segment_accuracy(self):
        # each segment sum against 40 digits at the exact states: the end state's (cos,
        # sin) within delta_0, r squarings within delta_r (`squaring_errors`), the r low
        # bits that w_e << r drops, an angle below 2 pi j (2^r - 1) 2^-64, and the float
        # sum of the m terms, which rounds within u (r + 1)(1 + delta_r) at its r-th add
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        n, reps, seed, cps = 200, 4, 29, (5, 64, 67, 131, 200)
        gens = lambda: [substream(seed, r).generator() for r in range(reps)]
        states = [doubling_states(g, n) for g in gens()]
        d = squaring_errors()
        for j in (1, 2, 3, 7, 64):
            bounds = np.cumsum([d[r] + 2.0 * math.pi * j * (2 ** r - 1) * 2.0 ** -64
                                + (U * (r + 1) * (1.0 + d[r]) if r else 0.0)
                                for r in range(_SEGMENT_BITS)])
            for f, fn in ((cosine(j), mpmath.cos), (sine(j), mpmath.sin)):
                pairs = list(DM._simulate_block(f, n, gens(), cps))
                assert [t for t, _ in pairs] == [t + m for t, m in segments(cps)]
                start = 0
                for t, x in pairs:
                    m = t - start
                    for r in range(reps):
                        exact = sum(fn(2 * mpmath.pi * j * mpmath.mpf(w) / 2 ** 64)
                                    for w in states[r][start:t])
                        assert abs(float(x[r] - exact)) <= bounds[m - 1], (j, fn, t, r)
                    start = t

    def test_doubling_kernel_near_eval_formula(self):
        # per step the kernel is within ulp(1) of cos 2 pi w 2^-64 and f.eval at the
        # rounded state within 2 pi (2^-54 + 2 u) + 2 ulp(1), u = 2^-53; each float
        # sum adds u |S_t| at step t
        from meanclt.numerics import substream
        n, reps, seed = 16384, 4, 11
        u = 2.0 ** -53
        per_step = 2 * u + 2.0 * math.pi * (u / 2 + 2 * u) + 4 * u
        ens = simulate(DM, cosine(1), n, reps, checkpoints=list(range(1, n + 1)), seed=seed)
        for r in range(reps):
            old = np.cumsum(replay_doubling_eval(substream(seed, r).generator(), n))
            new = ens.partial_sums[r]
            bound = n * per_step + u * (np.abs(old).sum() + np.abs(new).sum())
            assert abs(old[-1] - new[-1]) <= bound

    def test_phase_tables(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        cos_h, sin_h = _phase_tables()
        size = 1 << _PHASE_BITS
        assert cos_h.shape == sin_h.shape == (size,)
        for h in range(size):
            angle = 2 * mpmath.pi * h / size
            assert abs(float(cos_h[h] - mpmath.cos(angle))) <= 2.0 ** -53 * 1.02
            assert abs(float(sin_h[h] - mpmath.sin(angle))) <= 2.0 ** -53 * 1.02

    @pytest.mark.parametrize("step", [0, 1, 64, 100])
    def test_sample_states_replay(self, step):
        # states are exact arithmetic on the drawn words (the circle walk's {k a}
        # rounded once), so equality is exact
        from meanclt.numerics import substream
        reps, seed = 9, 27
        dm, cw = sample_states(DM, step, reps, seed), sample_states(CW, step, reps, seed)
        for r in range(reps):
            g = substream(seed, r).generator()
            w = int(row_bit_words(g, 1)[0])
            for bit in step_bits(row_bit_words(g, (step + 63) // 64), step):
                w = (w >> 1) | (bit << 63)
            assert dm[r] == np.float64(w) * 2.0 ** -64
            x0, k = circle_start_and_walk(substream(seed, r).generator(), step)
            assert cw[r] == (x0 + exact_frac(CW.a, int(k[-1]) if step else 0)) % 1.0

    @pytest.mark.parametrize("step", [1, 5, 100])
    def test_sample_states_are_the_simulated_states(self, step):
        # cos 2 pi x at replicate r's state is the X_step that simulate adds to its S_n
        reps, seed = 6, 3
        for spec in (DM, CW):
            ens = simulate(spec, cosine(1), step, reps, checkpoints=[step - 1 or 1, step],
                           seed=seed)
            x_step = ens.partial_sums[:, -1] - (ens.partial_sums[:, 0] if step > 1 else 0.0)
            xs = sample_states(spec, step, reps, seed)
            assert np.max(np.abs(np.cos(2.0 * np.pi * xs) - x_step)) <= 1e-14, spec.label

    @pytest.mark.parametrize("spec, f, replay", [
        (CW, cosine(1), replay_circle_segments),
        (two_state_chain(), None, lambda g, n, cps: enumerate(replay_chain(g, n), 1)),
        (iid_gaussian(1.5), None, lambda g, n, cps: enumerate(replay_iid(g, n), 1))],
        ids=["circle", "chain", "iid"])
    def test_kernel_replay(self, spec, f, replay):
        # row r consumes substream(seed, r) only, in the order replayed here; a replay
        # gives the (t, x) sums the kernel hands over, per step or per circle segment
        n, reps, seed, cps = 75, 6, 314, [1, 40, 75]
        ens = simulate_in_blocks(4, spec, f, n, reps, checkpoints=cps, seed=seed)
        for r in range(reps):
            pairs = list(replay(substream(seed, r).generator(), n, cps))
            assert np.array_equal(sums_at(pairs, cps), ens.partial_sums[r])
            if spec is CW:
                assert_near_per_step(*circle_start_and_walk(substream(seed, r).generator(), n),
                                     pairs)

    def test_circle_kernel_near_split_formula(self):
        # per step the split formula loses up to ulp(k a) ~ 1e-14 in the position at
        # |k| < 256, so S_n may move by up to n * 2 pi * 1e-14 ~ 1e-9 at n = 16384
        n, reps, seed = 16384, 4, 11
        ens = simulate(CW, cosine(1), n, reps, seed=seed)
        for r in range(reps):
            old = replay_circle_split(substream(seed, r).generator(), n).sum()
            assert abs(old - ens.partial_sums[r, 0]) <= 1e-9

    def test_circle_kernel_per_step_accuracy(self):
        # with all step bits 1 (or 0) the walk is k_t = t (or -t), so S_t is the sum of
        # cos 2 pi (x0 + s a), s = +-1..+-t, checked at every segment end to |k| = 4096
        # against 40 digits.  Its error: the rounded inputs, within 8 2^-52 per step (as
        # the per-step kernel was held to), and the segment form's rounding, (15 + F) u L
        # per step and u |S| per segment (`assert_near_per_step`).  The split formula's
        # partial sums err by over 100 times as much
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        n, head = 4096, 0x9E3779B97F4A7C15
        cps = tuple(range(5, n, 37)) + (n,)
        gens = [FixedWords(head, (1 << 64) - 1), FixedWords(head, 0)]
        pairs = list(CW._simulate_block(cosine(1), n, gens, cps))
        assert [t for t, _ in pairs][-1] == n
        x0 = (head >> 11) * 2.0 ** -53
        table_err, split_err = 0.0, 0.0
        for col, sign in ((0, 1), (1, -1)):
            sums = dict(zip([t for t, _ in pairs], np.cumsum([x[col] for _, x in pairs])))
            exact, split, seg_abs = mpmath.mpf(0), 0.0, 0.0
            for t in range(1, n + 1):
                k = sign * t
                pos = Fraction(x0) + k * CW.a.as_fraction()
                exact += mpmath.cos(2 * mpmath.pi * mpmath.mpf(pos.numerator) / pos.denominator)
                split += math.cos(2.0 * math.pi * np.mod(x0 + k * CW.a.hi + k * CW.a.lo, 1.0))
                split_err = max(split_err, abs(float(split - exact)))
                if t in sums:
                    err = abs(float(sums[t] - exact))
                    seg_abs += abs(sums[t])
                    assert err <= t * (16 + 16) * U + U * seg_abs, (t, err)
                    table_err = max(table_err, err)
        assert split_err > 100 * table_err

    def test_circle_kernel_replay_mixed_observable(self):
        # cosines at j = 1 and 3 and a sine at j = 3, segment by segment
        f = FourierFn(0.0, [1.0, 0.0, 0.5], [0.0, 0.0, 0.3])
        n, reps, seed, cps = 200, 5, 17, (37, 100, 200)
        pairs = list(CW._simulate_block(
            f, n, [substream(seed, r).generator() for r in range(reps)], cps))
        for r in range(reps):
            replay = replay_circle_segments(substream(seed, r).generator(), n, cps, f)
            assert [(t, x[r]) for t, x in pairs] == replay
            assert_near_per_step(*circle_start_and_walk(substream(seed, r).generator(), n),
                                 replay, f)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65])
    def test_circle_segments_at_the_edges(self, n):
        # a checkpoint at every step, at n alone, and off the multiples of 8; all-ones and
        # all-zeros words walk to k = n and k = -n, the ends of the tables, and n < 8
        # caps the segments (and their tables) at n steps
        f = FourierFn(0.0, [1.0, 0.0, 0.5], [0.0, 0.0, 0.3])
        head, reps, seed = 0x9E3779B97F4A7C15, 3, 8
        x0 = (head >> 11) * 2.0 ** -53
        for cps in (tuple(range(1, n + 1)), (n,), tuple(c for c in (3, 13, 70) if c < n) + (n,)):
            for fill, sign in (((1 << 64) - 1, 1), (0, -1)):
                k = sign * np.arange(1, n + 1)
                pairs = [(t, x[0]) for t, x in CW._simulate_block(f, n, [FixedWords(head, fill)],
                                                                  cps)]
                assert pairs == circle_segments(x0, k, cps, f)
                assert_near_per_step(x0, k, pairs, f)
            ens = simulate(CW, f, n, reps, checkpoints=cps, seed=seed)
            for r in range(reps):
                pairs = replay_circle_segments(substream(seed, r).generator(), n, cps, f)
                assert np.array_equal(sums_at(pairs, cps), ens.partial_sums[r])

    def test_circle_kernel_sums_segments(self):
        # a structural guard, with no timer: the hook hands over at most one sum per
        # 8 steps, per word end and per checkpoint, so a per-step fallback fails
        n, cps = 4096, (100, 1000, 2049, 4096)
        gens = [substream(1, r).generator() for r in range(3)]
        yields = sum(1 for _ in CW._simulate_block(cosine(1), n, gens, cps))
        assert yields <= -(-n // 8) + -(-n // 64) + len(cps)

    @pytest.mark.parametrize("n", [64 * _CHUNK_WORDS - 1, 64 * _CHUNK_WORDS,
                                   64 * _CHUNK_WORDS + 1, 1000])
    def test_chunk_boundaries_and_block_sizes(self, n):
        reps, seed, cps = 9, 23, [1, 63, 64, 65, n]
        for spec in (DM, CW):
            sums = [simulate_in_blocks(bs, spec, cosine(1), n, reps,
                                       checkpoints=cps, seed=seed).partial_sums
                    for bs in (1, 7, 4096)]
            assert np.array_equal(sums[0], sums[1]) and np.array_equal(sums[0], sums[2])
        for r in (0, reps - 1):
            pairs = replay_circle_segments(substream(seed, r).generator(), n, cps)
            assert np.array_equal(sums_at(pairs, cps), sums[0][r])
            assert_near_per_step(*circle_start_and_walk(substream(seed, r).generator(), n),
                                 pairs)

    @pytest.mark.parametrize("n", [0, 1, 64 * _CHUNK_WORDS - 1, 64 * _CHUNK_WORDS,
                                   64 * _CHUNK_WORDS + 1, 3 * 64 * _CHUNK_WORDS + 100])
    def test_chunked_draws_are_one_raw_draw(self, n):
        from meanclt.numerics import substream
        reps, seed, n_words = 3, 5, (n + 63) // 64
        gens = [CountingGenerator(substream(seed, r).generator()) for r in range(reps)]
        head, words = _draw_words(gens, n)
        cols = np.array([word >> np.uint64(s) & np.uint64(1) for word, k in words
                         for s in range(k)], dtype=np.uint64).reshape(n, reps)
        for r, g in enumerate(gens):
            words = substream(seed, r).generator().bit_generator.random_raw(1 + n_words)
            assert head[r] == words[0]
            assert cols[:, r].tolist() == step_bits(words[1:], n)
            assert g.calls == max(1, -(-n_words // _CHUNK_WORDS))

    def test_finite_chain_states(self):
        fc = two_state_chain()
        ens = simulate(fc, None, 50, 200, checkpoints=[1, 50], seed=2)
        assert ens.partial_sums.shape == (200, 2)
        assert set(np.unique(ens.partial_sums[:, 0])) <= set(fc.values - fc.stationary @ fc.values)

    def test_finite_chain_sums_are_centered(self):
        # values [1, -1] with pi = (2/3, 1/3) have mean 1/3: E S_n = 0, not n/3
        fc = FiniteChain([[0.9, 0.1], [0.2, 0.8]], values=[1.0, -1.0])
        n, reps = 64, 2000
        s = simulate(fc, None, n, reps, seed=0).normalized(n)
        sigma = math.sqrt(long_run_variance(fc).sigma2)
        assert abs(s.mean()) < 5.0 * sigma / math.sqrt(reps)

    @pytest.mark.parametrize("spec, replay", [
        (two_state_chain(), replay_chain), (iid_gaussian(1.5), replay_iid),
        (iid_rademacher(), replay_rademacher)], ids=["chain", "gaussian", "rademacher"])
    def test_chunked_draws_are_one_call(self, spec, replay):
        # draws come _CHUNK_STEPS at a time; the replays draw each path in one call
        from meanclt.numerics import substream
        n, reps, seed = 2 * _CHUNK_STEPS + 5, 3, 41
        cps = [_CHUNK_STEPS - 1, _CHUNK_STEPS, _CHUNK_STEPS + 1, 2 * _CHUNK_STEPS, n]
        ens = simulate(spec, None, n, reps, checkpoints=cps, seed=seed)
        for r in range(reps):
            partial = np.cumsum(replay(substream(seed, r).generator(), n))
            assert np.array_equal(partial[np.array(cps) - 1], ens.partial_sums[r])

    def test_chain_draws_take_bounded_memory(self):
        # the draws are held _CHUNK_STEPS at a time: once n passes one chunk, the
        # peak no longer grows with n; at n = 4096 it stays under half of what a
        # (reps, n + 1) array of the draws alone would take
        fc = FiniteChain([[0.9, 0.1], [0.1, 0.9]], values=[-1.0, 1.0])
        reps = 256

        def peak(n):
            tracemalloc.start()
            simulate(fc, None, n, reps, seed=4)
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return top

        small, mid, large = peak(512), peak(4096), peak(8192)
        assert small <= mid and abs(large - mid) <= 64 * 1024
        assert mid < 8 * 4097 * reps / 2

    def test_zero_observable_sums_to_zero(self):
        # no frequency to sum: the interval-map kernels hand over zeros
        for spec in (DM, CW):
            ens = simulate(spec, FourierFn(0.0, [0.0], []), 70, 3, checkpoints=[9, 70], seed=2)
            assert not ens.partial_sums.any(), spec.label

    def test_column_lookup(self):
        ens = simulate(DM, cosine(1), 64, 50, checkpoints=[16, 64], seed=1)
        assert np.array_equal(ens.column(16), ens.partial_sums[:, 0])
        with pytest.raises(DomainError):
            ens.column(32)


class TestSerialization:
    def test_round_trip(self):
        for spec in (DM, CW, iid_rademacher(), two_state_chain()):
            back = process_from_dict(spec.to_dict())
            assert type(back) is type(spec)

    def test_sqrt2_tag(self):
        spec = process_from_dict({"type": "circle_walk", "a": "sqrt2_minus_one"})
        assert isinstance(spec, CircleWalk)
        assert spec.a.lo != 0.0

    @pytest.mark.parametrize("d,field", [
        ({"type": "circle_walk"}, "process.a_hi"),
        ({"type": "circle_walk", "a_hi": True}, "process.a_hi"),
        ({"type": "circle_walk", "a_hi": 0.3, "a_lo": None}, "process.a_lo"),
        ({"type": "finite_chain", "values": [1.0, -1.0]}, "process.transition"),
        ({"type": "finite_chain", "transition": "ab", "values": [1.0, -1.0]},
         "process.transition"),
        ({"type": "finite_chain", "transition": [[0.5, "x"], [0.5, 0.5]], "values": [1.0, -1.0]},
         "process.transition[0][1]"),
        ({"type": "finite_chain", "transition": [[0.5, 0.5], [0.5, 0.5]]}, "process.values"),
        ({"type": "finite_chain", "transition": [[0.5, 0.5], [0.5, 0.5]], "values": [1.0, None]},
         "process.values[1]"),
        ({"type": "finite_chain", "transition": [[0.5, 0.5], [0.5, 0.5]], "values": [1.0, -1.0],
          "stationary": [0.5, False]}, "process.stationary[1]")])
    def test_missing_or_mistyped_field_is_named(self, d, field):
        with pytest.raises(SchemaError, match=re.escape(f"(field: {field})")):
            process_from_dict(d)
