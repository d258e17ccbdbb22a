"""Experiment orchestration: rate experiments, condition diagnostics,
appendix fuzzing, manifests, and report merging.

A run simulates one checkpointed path ensemble, computes the exact W1
distance of each checkpoint sample to the analytic Gaussian limit, evaluates
the requested deterministic bounds, fits the empirical rate, and writes a
CSV table plus a JSON manifest.  Where the process family has an exact law
of S_n (`processes.exact_law`), a pmf (i.i.d. signs) gives the distances and
nothing is simulated; a characteristic function (the doubling map) gives the
d1 columns wherever it can be inverted accurately, and the sample distance
stays alongside as a Monte Carlo cross-check.  Everything is keyed by
substreams of the config seed, so re-running a config reproduces the outputs
byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__ as _VERSION
from .bounds import (bound_terms, martingale_d1_bound, moments, projective_d1_bound, rate_fit,
                     second_moment_norms, variance_l32_norms, zolotarev_bound)
from .coefficients import (QuantileSeq, _tail_quantile_steps, alpha_tabulation,
                           appendix_checks, covariance_bound_check, JointPmf, joint_arrays,
                           mixing_integral, quantile_from_sample)
from .errors import (DegenerateVarianceError, DomainError, PreconditionError, SchemaError,
                     json_typed, reject_unknown_keys, required)
from .fourier import FourierFn, lebesgue_inner
from .numerics import DEFAULT_TOLERANCE, Tolerance, substream
from .processes import (DoublingMap, FiniteChain, IIDLaw, ProcessSpec, exact_law,
                        is_martingale, long_run_variance, process_from_dict, simulate,
                        transfer)
from .theta import theta_coeffs
from .wasserstein import (EmpiricalSample, FinitePmf, ks_pmf_gauss, ks_sorted_gauss,
                          sorted_gauss_tables, w1_charfn_gauss, w1_pmf_gauss, w1_sorted_gauss)

SCHEMA_VERSION = "1"

TARGETS = ("empirical_d1", "ks", "martingale_bound", "projective_bound",
           "second_moment_terms", "rate_fit", "zolotarev")
_MOMENT_TARGETS = ("martingale_bound", "projective_bound", "second_moment_terms", "zolotarev")

CSV_COLUMNS = ("process", "observable", "n", "reps", "d1_normalized",
               "d1_unnormalized", "d1_boot_se", "ks", "bound_martingale",
               "bound_projective", "second_moment_drift", "resolvent_smoothing",
               "zolotarev", "slope", "d1_estimator", "d1_exact_err", "d1_mc_normalized")

# d1 from an exact law replaces the Monte Carlo value only where the law's
# finite-n standard deviation sqrt(Var S_n / n) is at most EXACT_SPREAD sigma
# (the inversion grid, and with it the cost, grows with that ratio) and the
# inversion's error estimate is at most EXACT_REL_ERR of d1.
EXACT_SPREAD = 2.0
EXACT_REL_ERR = 0.01


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    process: ProcessSpec
    observable: Optional[FourierFn]
    n_grid: tuple
    reps: int
    seed: int
    targets: tuple
    output: Optional[str] = None
    bootstrap: int = 100
    # whether the process's law of S_n is a pmf, so that the run simulates nothing, and
    # the quadrature tolerance of the bound norms: not arguments, and a config file may
    # only repeat them
    exact_pmf: bool = field(init=False, default=False)
    tolerance: Tolerance = field(init=False, default=DEFAULT_TOLERANCE)

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) == 0 or any(b <= a for a, b in zip(grid[:-1], grid[1:])) or grid[0] < 1:
            raise DomainError("n_grid must be a nonempty strictly increasing positive sequence")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "targets", tuple(self.targets))
        for t in self.targets:
            if t not in TARGETS:
                raise DomainError(f"unknown target {t!r}; valid: {TARGETS} (field: targets)")
        if self.reps < 1:
            raise DomainError("reps must be >= 1")
        if self.bootstrap < 2:
            raise DomainError("bootstrap must be >= 2")
        if self.output is not None and not isinstance(self.output, str):
            raise SchemaError(f"output must be a path string or null, got {self.output!r} "
                              "(field: output)")
        # checks the observable, and fails a degenerate run before any work
        _require_positive_variance(self.process, self.observable)
        object.__setattr__(self, "exact_pmf",
                           isinstance(exact_law(self.process, self.observable, 1), FinitePmf))
        if {"empirical_d1", "ks"} & set(self.targets) and not self.exact_pmf and self.reps < 100:
            raise DomainError("empirical targets require reps >= 100")
        moment_targets = [t for t in self.targets if t in _MOMENT_TARGETS]  # bounds need moments
        if moment_targets and not isinstance(self.process, IIDLaw):  # i.i.d. moments are given
            if self.observable is None:
                raise DomainError(f"targets {moment_targets} need a FourierFn observable or an "
                                  f"i.i.d. law, not a {self.process.to_dict()['type']} process "
                                  "(field: targets)")
            if "martingale_bound" in self.targets and not is_martingale(self.process,
                                                                        self.observable):
                raise PreconditionError("the observable must be a martingale difference")

    def to_dict(self) -> dict:
        return {"process": self.process.to_dict(),
                "observable": self.observable.to_dict() if self.observable else None,
                "n_grid": list(self.n_grid),
                "reps": self.reps,
                "seed": self.seed,
                "targets": list(self.targets),
                "tolerance": asdict(self.tolerance),
                "output": self.output,
                "exact_pmf": self.exact_pmf,
                "bootstrap": self.bootstrap}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        process, observable = read_process(d)
        tol = json_typed(d.get("tolerance"), dict, "tolerance") or {}
        record = asdict(DEFAULT_TOLERANCE)
        reject_unknown_keys(tol, list(record), "tolerance")
        for k, v in tol.items():
            if json_typed(v, type(record[k]), f"tolerance.{k}") != record[k]:
                raise DomainError(f"tolerance.{k} must be {record[k]!r} (field: tolerance.{k})")
        grid = json_typed(required(d, "n_grid"), list, "n_grid")
        exact_pmf = json_typed(d["exact_pmf"], bool, "exact_pmf") if "exact_pmf" in d else None
        config = cls(process=process, observable=observable,
                     n_grid=tuple(json_typed(n, int, f"n_grid[{i}]") for i, n in enumerate(grid)),
                     reps=json_typed(required(d, "reps"), int, "reps"),
                     seed=json_typed(d.get("seed", 0), int, "seed"),
                     targets=tuple(json_typed(d.get("targets", ["empirical_d1", "rate_fit"]),
                                               list, "targets")),
                     output=d.get("output"),
                     bootstrap=json_typed(d.get("bootstrap", 100), int, "bootstrap"))
        if exact_pmf not in (None, config.exact_pmf):
            raise DomainError(f"exact_pmf must be {str(config.exact_pmf).lower()} "
                              "(field: exact_pmf)")
        return config


def _require_positive_variance(spec: ProcessSpec, f: Optional[FourierFn]) -> None:
    """Check the observable, and raise DegenerateVarianceError where sigma2 = 0: no
    normalized sum of such a sequence has a Gaussian limit to compare with."""
    if long_run_variance(spec, f).sigma2 <= 0.0:
        raise DegenerateVarianceError("long-run variance is not positive")


def read_process(d: dict) -> tuple:
    """(process, observable) of a config dict: what `diagnose` reads, and `run` first."""
    if not isinstance(d, dict):
        raise SchemaError("config must be a JSON object")
    reject_unknown_keys(d, [f.name for f in fields(ExperimentConfig)], "config")
    obs = json_typed(d.get("observable"), dict, "observable")
    process = process_from_dict(d.get("process"))
    if obs is not None and process.carries_observable:
        raise SchemaError(f"the {process.label} process carries its own observable; give none "
                          "(field: observable)")
    return process, None if obs is None else FourierFn.from_dict(obs)


# Built-in one-command experiments: each is a config dict, as `run --config` reads it.
PRESETS = {
    "mds-doubling": {"process": {"type": "doubling_map"}, "observable": {"cos": [1.0]},
                     "n_grid": [64, 256, 1024, 4096, 16384], "reps": 20000, "seed": 1,
                     "targets": ["empirical_d1", "ks", "martingale_bound", "rate_fit",
                                 "zolotarev"]},
    "circle-walk": {"process": {"type": "circle_walk", "a": "sqrt2_minus_one"},
                    "observable": {"cos": [1.0]}, "n_grid": [64, 256, 1024, 4096, 16384],
                    "reps": 10000, "seed": 1,
                    "targets": ["empirical_d1", "ks", "projective_bound", "rate_fit"]},
    "iid-rademacher-exact": {"process": {"type": "iid", "law": "rademacher"}, "observable": None,
                             "n_grid": [64, 128, 256, 512, 1024, 2048, 4096], "reps": 1,
                             "seed": 1, "targets": ["empirical_d1", "ks", "rate_fit", "zolotarev"]},
    "doubling-nonadapted": {"process": {"type": "doubling_map"}, "observable": {"cos": [0.0, 1.0]},
                            "n_grid": [64, 256, 1024], "reps": 5000, "seed": 1,
                            "targets": ["empirical_d1", "projective_bound",
                                        "second_moment_terms", "rate_fit"]},
}


def preset_config(name: str, n_max: Optional[int] = None, reps: Optional[int] = None,
                  seed: Optional[int] = None, output: Optional[str] = None
                  ) -> ExperimentConfig:
    """The config of PRESETS[name], its grid cut at n_max and the other
    arguments that are not None set over its values."""
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    d = dict(PRESETS[name])
    if n_max is not None:
        d["n_grid"] = [n for n in d["n_grid"] if n <= n_max]
        if not d["n_grid"]:
            raise DomainError(f"--n-max {n_max} removes every grid point")
    d.update((k, v) for k, v in (("reps", reps), ("seed", seed), ("output", output))
             if v is not None)
    return ExperimentConfig.from_dict(d)


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


def _bootstrap_se(tables: tuple, sigma: float, count: int, stream) -> float:
    """Bootstrap standard error of the plug-in W1 over resampled replicates.

    `tables` is `sorted_gauss_tables(sample, sigma)`.  A resample draws
    indices into the unsorted sample; through `rank`, the inverse of the
    sort order, they become positions in the sorted sample, and sorted they
    are each position repeated as often as the resample drew it.  The tables
    gathered there are those of the sorted resample, so no value is sorted
    or evaluated again, only int32 positions.  The positions, the gathers
    and the slab sum write into buffers allocated once.
    """
    if count < 2:
        return 0.0
    order, x, cdf, pdf = tables
    gen = stream.generator()
    m = x.size
    rank = np.empty(m, dtype=np.int32)
    rank[order] = np.arange(m, dtype=np.int32)
    j = np.empty(m, dtype=np.int32)
    # five arrays the size of the temporaries they replace, not one (5, m)
    # block, which is mapped fresh and raised the peak RSS
    xs, cs, ps, piece, term = (np.empty(m) for _ in range(5))
    scratch = (piece, term, np.empty(m, dtype=bool))
    vals = np.empty(count)
    for b in range(count):
        # for m < 2**31 the int32 draw is the int64 one, from the same raw words
        np.take(rank, gen.integers(0, m, m, dtype=np.int32), out=j, mode="clip")
        j.sort()  # np.repeat(arange(m), counts): the same sorted multiset
        for table, out in ((x, xs), (cdf, cs), (pdf, ps)):
            np.take(table, j, out=out, mode="clip")  # j is in range: clip skips buffering
        vals[b] = w1_sorted_gauss(xs, cs, ps, sigma, scratch)
    return float(vals.std(ddof=1))


@dataclass(frozen=True)
class RunManifest:
    schema_version: str
    library_version: str
    config: dict
    sigma2: float
    sigma: float
    per_n: tuple
    fit: Optional[dict]
    zolotarev: Optional[float]
    seed_provenance: dict
    timings: dict

    def to_dict(self) -> dict:
        return dict(asdict(self), per_n=list(self.per_n))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_rows(self) -> list:
        return _csv_rows(self.to_dict())

    def write(self, prefix) -> tuple:
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        csv_path = prefix.with_suffix(".csv")
        csv_path.write_text(render_csv(self.csv_rows()))
        manifest_path = Path(str(prefix) + ".manifest.json")
        manifest_path.write_text(self.to_json() + "\n")
        return csv_path, manifest_path


def _csv_rows(manifest: dict) -> list:
    """One CSV row per n of a manifest dict; cells its record lacks stay empty."""
    config = manifest["config"]
    obs = config.get("observable")
    fit, zolo = manifest.get("fit"), manifest.get("zolotarev")
    run_cells = {"process": config["process"]["type"],
                 "observable": FourierFn.from_dict(obs).describe() if obs else "identity",
                 "reps": config["reps"], "slope": fit["slope"] if fit else "",
                 "zolotarev": zolo if zolo is not None else ""}
    rows = []
    for rec in manifest["per_n"]:
        row = {c: rec.get(c, "") for c in CSV_COLUMNS}
        row.update(run_cells)
        for key in ("bound_martingale", "bound_projective"):
            row[key] = (rec.get(key) or {}).get("total", "")
        rows.append(row)
    return rows


def render_csv(rows: Sequence[dict], columns: Sequence[str] = CSV_COLUMNS) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v == "" or v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # numpy scalars repr as np.float64(...)
    return str(v)


def _exact_d1(spec: ProcessSpec, f, n: int, sigma: float, phi) -> tuple:
    """(d1, err) from phi, the characteristic function of S_n.  d1 is None, with a warning,
    where EXACT_SPREAD or EXACT_REL_ERR fails; err is None where the law was
    not inverted.  The spread is sqrt(Var S_n / n), from c_k = lambda(f K^k f)
    for k < n until K^k f vanishes."""
    kfs = itertools.takewhile(lambda g: not g.is_zero(),
                              (transfer(spec, f, k) for k in range(1, n)))
    var_n = lebesgue_inner(f, f) + 2.0 * sum((1.0 - k / n) * lebesgue_inner(f, g)
                                             for k, g in enumerate(kfs, 1))
    spread = math.sqrt(max(var_n, 0.0))
    if spread > EXACT_SPREAD * sigma:
        warnings.warn(f"n = {n}: S_n/sqrt(n) has standard deviation {spread:.4g}, more than "
                      f"{EXACT_SPREAD:g} sigma = {EXACT_SPREAD * sigma:.4g}; d1 stays the "
                      f"Monte Carlo value", RuntimeWarning, stacklevel=3)
        return None, None
    d1, err = w1_charfn_gauss(lambda ts: phi(ts / math.sqrt(n)), sigma, spread=spread,
                              rel_err=EXACT_REL_ERR)
    if err > EXACT_REL_ERR * d1:
        warnings.warn(f"n = {n}: the exact d1 {d1:.6g} has error estimate {err:.3g}, more "
                      f"than {EXACT_REL_ERR:.0%} of it; d1 stays the Monte Carlo value",
                      RuntimeWarning, stacklevel=3)
        return None, err
    return d1, err


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one experiment configuration end to end."""
    timings = {}
    t0 = time.perf_counter()
    spec, f = config.process, config.observable

    sigma2 = long_run_variance(spec, f).sigma2
    sigma = math.sqrt(sigma2)

    zolo = None
    if "zolotarev" in config.targets:
        mom = moments(spec, f)
        zolo = zolotarev_bound(mom.abs3, mom.var0)

    per_n = [dict(n=n) for n in config.n_grid]

    if "empirical_d1" in config.targets or "ks" in config.targets:
        if not config.exact_pmf:  # a pmf is the whole law: nothing to simulate
            t = time.perf_counter()
            ens = simulate(spec, f, config.n_grid[-1], config.reps,
                           checkpoints=config.n_grid, seed=config.seed)
            timings["simulate"] = time.perf_counter() - t
        t = time.perf_counter()
        for gi, rec in enumerate(per_n):
            n = rec["n"]
            law = exact_law(spec, f, n)
            if isinstance(law, FinitePmf):
                if "empirical_d1" in config.targets:
                    rec["d1_normalized"] = d1 = w1_pmf_gauss(law, sigma)
                    rec["d1_unnormalized"] = math.sqrt(n) * d1
                if "ks" in config.targets:
                    rec["ks"] = ks_pmf_gauss(law, sigma)
                continue
            tables = sorted_gauss_tables(ens.normalized(n), sigma)
            _, x, cdf, pdf = tables
            if "empirical_d1" in config.targets:
                d1 = w1_sorted_gauss(x, cdf, pdf, sigma)
                if law is not None:  # the characteristic function of S_n
                    rec["d1_mc_normalized"] = d1
                    exact, rec["d1_exact_err"] = _exact_d1(spec, f, n, sigma, law)
                    rec["d1_estimator"] = "monte_carlo" if exact is None else "exact"
                    d1 = d1 if exact is None else exact
                rec["d1_normalized"] = d1
                rec["d1_unnormalized"] = math.sqrt(n) * d1
                rec["d1_boot_se"] = _bootstrap_se(tables, sigma, config.bootstrap,
                                                  substream(config.seed, config.reps + gi))
            if "ks" in config.targets:
                rec["ks"] = ks_sorted_gauss(cdf)
        timings["distances"] = time.perf_counter() - t

    if {"martingale_bound", "projective_bound", "second_moment_terms"} & set(config.targets):
        t = time.perf_counter()
        for kind, bound in (("martingale", martingale_d1_bound),
                            ("projective", projective_d1_bound)):
            if f"{kind}_bound" in config.targets:  # its terms once, for the grid's largest n
                terms = bound_terms(kind, spec, f, config.n_grid[-1])
                for rec in per_n:
                    rec[f"bound_{kind}"] = bound(spec, f, rec["n"], terms).to_dict()
        if "second_moment_terms" in config.targets:
            for rec in per_n:
                drift, smooth = second_moment_norms(spec, f, math.isqrt(2 * rec["n"]))
                rec["second_moment_drift"] = drift
                rec["resolvent_smoothing"] = smooth
        timings["bounds"] = time.perf_counter() - t

    fit = None
    if "rate_fit" in config.targets and all("d1_normalized" in rec for rec in per_n) \
            and len(per_n) >= 3:
        rf = rate_fit([(rec["n"], rec["d1_normalized"]) for rec in per_n])
        fit = {"slope": rf.slope, "intercept": rf.intercept, "r2": rf.r2}

    timings["total"] = time.perf_counter() - t0
    manifest = RunManifest(
        schema_version=SCHEMA_VERSION,
        library_version=_VERSION,
        config=config.to_dict(),
        sigma2=sigma2,
        sigma=sigma,
        per_n=tuple(per_n),
        fit=fit,
        zolotarev=zolo,
        seed_provenance={"rows": f"substream(seed, 0..{config.reps - 1})",
                         "bootstrap": f"substream(seed, {config.reps}..{config.reps + len(config.n_grid) - 1})"},
        timings=timings)
    if config.output:
        manifest.write(config.output)
    return manifest


# ---------------------------------------------------------------------------
# Appendix fuzzing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppendixReport:
    total: int
    covariance_passes: int
    corollary_passes: int
    dispersion_passes: int
    equality_case: dict
    failures: tuple

    @property
    def all_pass(self) -> bool:
        return (self.covariance_passes == self.total
                and self.corollary_passes == self.total
                and self.dispersion_passes == self.total
                and not self.failures)

    def to_dict(self) -> dict:
        return dict(asdict(self), failures=list(self.failures), all_pass=self.all_pass)


def _random_joint(gen) -> JointPmf:
    k = int(gen.integers(2, 4))
    coords = [np.sort(gen.choice(np.round(gen.normal(0.0, 1.5, 8), 2), size=int(gen.integers(2, 5)),
                                 replace=False)) for _ in range(k)]
    cells = list(itertools.product(*coords))
    count = min(len(cells), int(gen.integers(2, 13)))
    chosen = gen.choice(len(cells), size=count, replace=False)
    pts = np.array([cells[i] for i in chosen], dtype=float)
    pr = gen.dirichlet(np.ones(count))
    return JointPmf(pts, pr)


def _random_monotone_pair(gen) -> tuple:
    """(s1, b1, kink, s2, b2): g1(x) = s1 x + b1 + (x - kink)_+ and
    g2(x) = s2 x + b2, both nondecreasing."""
    s1, s2 = float(gen.uniform(0.0, 2.0)), float(gen.uniform(0.0, 2.0))
    b1, b2 = float(gen.normal()), float(gen.normal())
    kink = float(gen.normal())
    return s1, b1, kink, s2, b2


def _monotone_pair_values(params: np.ndarray, x: np.ndarray) -> tuple:
    """(g1(x), g2(x)) of the pairs `params` (..., 5), broadcast against x."""
    s1, b1, kink, s2, b2 = np.moveaxis(params, -1, 0)
    return s1 * x + b1 + np.maximum(x - kink, 0.0), s2 * x + b2


APPENDIX_CHUNK = 64  # instances drawn, then checked in one array pass per coordinate count


def check_appendix(count: int, seed: int) -> AppendixReport:
    """Fuzz the covariance-inequality machinery on random finite joints.

    Each instance checks the product-covariance bound, the dispersion
    inequalities of every marginal, and the monotone-difference corollary
    with random nondecreasing transform pairs.  The identical-coordinate
    Rademacher equality case is always included and reported separately.
    Instances are drawn APPENDIX_CHUNK at a time, each joint then its pairs,
    and the joints of a chunk with the same number of coordinates are
    checked together (`coefficients.appendix_checks`).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    gen = substream(seed, 0).generator()
    cov_pass = cor_pass = disp_pass = 0
    failures = []
    for start in range(0, count, APPENDIX_CHUNK):
        joints, pairs = [], []
        for _ in range(min(APPENDIX_CHUNK, count - start)):
            joints.append(_random_joint(gen))
            pairs.append([_random_monotone_pair(gen) for _ in range(joints[-1].k)])
        checked = [None] * len(joints)
        for k in sorted({j.k for j in joints}):
            batch = [i for i, j in enumerate(joints) if j.k == k]
            points, probs, counts = joint_arrays([joints[i] for i in batch])
            params = np.array([pairs[i] for i in batch])[:, None]
            cov, cor, disp = appendix_checks(points, probs, counts,
                                             _monotone_pair_values(params, points))
            for i, *checks in zip(batch, cov, cor, disp.tolist()):
                checked[i] = checks
        for offset, (j, (rep, rep2, dispersed)) in enumerate(zip(joints, checked)):
            idx = start + offset
            if rep.holds:
                cov_pass += 1
            else:
                failures.append({"index": idx, "kind": "covariance", "lhs": rep.lhs,
                                 "rhs": rep.rhs, "joint": j.to_dict()})
            if rep2.holds:
                cor_pass += 1
            else:
                failures.append({"index": idx, "kind": "corollary", "lhs": rep2.lhs,
                                 "rhs": rep2.rhs, "joint": j.to_dict()})
            if dispersed:
                disp_pass += 1
            else:
                failures.append({"index": idx, "kind": "dispersion", "joint": j.to_dict()})
    rad = JointPmf(np.array([[-1.0, -1.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
    eq = covariance_bound_check(rad)
    equality = {"lhs": eq.lhs, "alpha": eq.alpha, "rhs": eq.rhs,
                "is_equality": abs(eq.lhs - eq.rhs) <= 1e-12 and eq.lhs == 1.0}
    return AppendixReport(total=count, covariance_passes=cov_pass,
                          corollary_passes=cor_pass, dispersion_passes=disp_pass,
                          equality_case=equality, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Condition diagnostics
# ---------------------------------------------------------------------------

THETA_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4),
               (2, 3), (2, 4), (3, 4))


def _verdict(partials: Sequence[float]) -> str:
    """Trend call from the mass the last half-decade adds to the partial sum.

    Geometric-type series leave well under 15% there at moderate depth; a
    non-vanishing term sequence leaves about 75%.
    """
    if not partials or partials[-1] == 0.0:
        return "converging"
    half = partials[max(0, len(partials) // 2 - 1)]
    tail_frac = (partials[-1] - half) / partials[-1]
    if tail_frac < 0.15:
        return "converging"
    if tail_frac < 0.5:
        return "inconclusive"
    return "diverging"


@dataclass(frozen=True)
class DiagnosisReport:
    theta: dict
    jan: Optional[dict]
    mixing: dict
    verdicts: dict

    def to_dict(self) -> dict:
        return asdict(self)


def diagnose_conditions(spec: ProcessSpec, f: Optional[FourierFn], kmax: int,
                        window: int = 3) -> DiagnosisReport:
    """Tabulate dependence-coefficient and mixing-integral condition series.

    theta columns hold j * theta_{p,q}(j) partial sums for the standard index
    pairs; the mixing entries evaluate the weighted tail-integral series for
    powers p = 3 with weights b in {0, 1} plus the equivalent single-integral
    form, from the exact alpha values of the doubling map and of a finite
    chain and the quantile function of |X_0|.  Each series carries a
    converging / inconclusive / diverging verdict from its last-decade ratio.
    An observable with sigma2 = 0 is refused, as a run refuses it.
    """
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    _require_positive_variance(spec, f)
    theta = {}
    verdicts = {}
    lags = range(1, kmax + 1)
    table = iter(theta_coeffs(spec, f, [(p, q, j) for p, q in THETA_PAIRS for j in lags],
                              window))
    for (p, q) in THETA_PAIRS:
        values = [next(table) for _ in lags]
        partials = list(itertools.accumulate(j * v for j, v in enumerate(values, 1)))
        key = f"theta_{p}{q}"
        theta[key] = {"values": values, "weighted_partials": partials}
        verdicts[key] = _verdict(partials)

    jan = None
    if isinstance(spec, IIDLaw) or not spec.carries_observable and is_martingale(spec, f):
        values = variance_l32_norms(spec, f, lags)
        partials = list(itertools.accumulate(values))
        jan = {"values": values, "partials": partials}
        verdicts["jan"] = _verdict(partials)

    mixing = {}
    if isinstance(spec, (DoublingMap, FiniteChain)):
        # the doubling map's alpha(k) enumerates 2^k branches, so its table stops
        # at 12; a chain's costs one matrix power per lag
        alpha = alpha_tabulation(spec, kmax if spec.carries_observable else min(kmax, 12))
        if spec.carries_observable:  # the chain's exact law of |v - pi.v| under pi
            edges, steps = _tail_quantile_steps(np.abs(spec.centered_values), spec.stationary)
            quantile = QuantileSeq(edges[1:-1], steps)
        else:
            grid_pts = (np.arange(1 << 14) + 0.5) / (1 << 14)
            quantile = quantile_from_sample(EmpiricalSample(np.abs(np.asarray(f.eval(grid_pts)))))
        upto = min(kmax, len(alpha) - 1)
        for weight, label in ((1, "cubic_tail_b1"), (0, "cubic_tail_b0")):
            rep = mixing_integral(alpha, quantile, power=3, weight=weight, kmax=upto)
            mixing[label] = {"series": rep.series_value,
                             "integral_form": rep.integral_form,
                             "partials": list(rep.partial_sums),
                             "last_decade_ratio": rep.last_decade_ratio}
            verdicts[label] = _verdict(rep.partial_sums)
        mixing["inverse_weighted_integral"] = mixing["cubic_tail_b1"]["integral_form"]
    return DiagnosisReport(theta=theta, jan=jan, mixing=mixing, verdicts=verdicts)


# ---------------------------------------------------------------------------
# Report merging
# ---------------------------------------------------------------------------


def merge_reports(paths: Sequence) -> list:
    """Merge per-n tables of several manifests into one list of CSV rows."""
    rows = []
    seen_version = None
    for path in paths:
        d = json.loads(Path(path).read_text())
        missing = [k for k in ("schema_version", "config", "per_n") if k not in d]
        if missing:
            raise SchemaError(f"{path}: missing manifest fields {missing}")
        if seen_version is None:
            seen_version = d["schema_version"]
        elif d["schema_version"] != seen_version:
            raise SchemaError(f"{path}: schema_version {d['schema_version']!r} "
                              f"!= {seen_version!r} (field: schema_version)")
        for row in _csv_rows(d):
            row["seed"] = d["config"].get("seed")
            rows.append(row)
    return rows
