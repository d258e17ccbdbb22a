"""Output checks.  Every check is one benchmark operation; a failed check is a
failed operation.

Deterministic outputs (sigma2, bound totals and terms, exact-pmf d1/ks,
diagnose series, the appendix equality case) must match reference.json,
recorded from the seed commit, within 1e-9 relative.  Monte Carlo outputs get
checks that hold for any seed: the paper's inequality d1_unnormalized <= bound
total wherever a bound is computed, a bootstrap-SE band and a d1 band around
the recorded medians over several seeds, and a KS distance inside (0, 1].
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-15          # absolute floor for values that are zero at the reference
# Bands for Monte Carlo outputs, set from 12 seeds on the seed commit: one
# seed's bootstrap SE ranged over 0.61-1.79x the median, and the spread of d1
# over seeds was at most 1.4 median bootstrap SEs.
SE_BAND = (0.25, 4.0)  # bootstrap SE over the reference median
D1_SIGMAS = 10.0       # |d1 - d1_ref| over the larger of the two bootstrap SEs

_TIMINGS = re.compile(r'"timings": \{[^{}]*\}')
_BOUND_KEYS = ("bound_martingale", "bound_projective", "second_moment_drift",
               "resolvent_smoothing")


def strip_timings(text: str) -> str:
    """Manifest text with its `timings` block emptied; other bytes kept."""
    return _TIMINGS.sub('"timings": {}', text)


def digest(paths) -> dict:
    """sha256 of each output file, manifests with their timings emptied."""
    return {str(p): hashlib.sha256(strip_timings(Path(p).read_text()).encode()).hexdigest()
            for p in paths}


def normalized(op) -> dict:
    """The op's main output as a dict, minus what legitimately varies between
    passes: timings, and the config's seed and output path."""
    d = json.loads(Path(op.files[0]).read_text())
    d.pop("timings", None)
    if isinstance(d.get("config"), dict):
        d["config"] = {k: v for k, v in d["config"].items() if k not in ("seed", "output")}
    return d


def mismatches(ref, got, path="") -> list:
    """Paths where `got` differs from `ref`; numbers compare within RTOL."""
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        return [] if ref == got else [path]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        ok = abs(got - ref) <= RTOL * max(abs(ref), abs(got)) + ATOL
        return [] if ok else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [m for k in ref for m in mismatches(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in mismatches(r, g, f"{path}[{i}]")]
    return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]


def _check(name, problems):
    return {"name": name, "ok": not problems, "detail": "; ".join(problems[:3])}


def _exact(ref, got, label):
    if "per_n" not in ref:  # a diagnose report
        return [_check(f"{label}.{k}", mismatches(ref[k], got.get(k), k)) for k in sorted(ref)]
    top = {k: v for k, v in ref.items() if k != "per_n"}
    out = [_check(f"{label}.summary",
                  mismatches(top, {k: v for k, v in got.items() if k != "per_n"}))]
    out += [_check(f"{label}.n={r['n']}", mismatches(r, g, f"per_n[{i}]"))
            for i, (r, g) in enumerate(zip(ref["per_n"], got.get("per_n", [])))]
    if len(got.get("per_n", [])) != len(ref["per_n"]):
        out.append(_check(f"{label}.grid", ["per_n length differs"]))
    return out


def _mc(ref, got, label):
    keep = ("schema_version", "library_version", "config", "sigma2", "sigma", "zolotarev",
            "seed_provenance")  # the outputs of an MC run that do not depend on its seed
    out = [_check(f"{label}.deterministic", mismatches({k: ref.get(k) for k in keep},
                                                      {k: got.get(k) for k in keep}))]
    per_n = got.get("per_n", [])
    if [r["n"] for r in per_n] != [r["n"] for r in ref["per_n"]]:
        return out + [_check(f"{label}.grid", ["per_n grid differs"])]
    for r, g in zip(ref["per_n"], per_n):
        tag = f"{label}.n={r['n']}"
        bounds = {k: r[k] for k in _BOUND_KEYS if k in r}
        if bounds:
            out.append(_check(f"{tag}.bounds", mismatches(bounds, {k: g.get(k) for k in bounds})))
        d1, se, d1u = g["d1_normalized"], g["d1_boot_se"], g["d1_unnormalized"]
        for key in ("bound_martingale", "bound_projective"):
            if key in g:
                total = g[key]["total"]
                out.append(_check(f"{tag}.d1_le_{key}",
                                  [] if d1u <= total else [f"{d1u!r} > {total!r}"]))
        ratio = se / r["d1_boot_se"]
        out.append(_check(f"{tag}.boot_se_band", [] if SE_BAND[0] <= ratio <= SE_BAND[1]
                          else [f"se {se!r} is {ratio:.3g} x reference {r['d1_boot_se']!r}"]))
        width = D1_SIGMAS * max(se, r["d1_boot_se"])
        problems = [] if abs(d1 - r["d1_normalized"]) <= width else \
            [f"d1 {d1!r} outside {r['d1_normalized']!r} +- {width!r}"]
        if not math.isclose(d1u, math.sqrt(r["n"]) * d1, rel_tol=RTOL):
            problems.append(f"d1_unnormalized {d1u!r} != sqrt(n) d1")
        out.append(_check(f"{tag}.d1_band", problems))
        if "ks" in r:
            ks = g.get("ks")
            out.append(_check(f"{tag}.ks_range", [] if ks is not None and 0.0 < ks <= 1.0
                              else [f"ks {ks!r}"]))
    if ref.get("fit"):
        fit = got.get("fit") or {}
        ok = all(math.isfinite(fit.get(k, math.nan)) for k in ("slope", "intercept", "r2"))
        out.append(_check(f"{label}.fit_finite", [] if ok else [f"fit {fit!r}"]))
    return out


def _appendix(ref, got, label, count):
    count = int(count)
    problems = [] if got.get("all_pass") is True else ["all_pass is not true"]
    problems += [f"{k} {got.get(k)!r} != {count}" for k in
                 ("total", "covariance_passes", "corollary_passes", "dispersion_passes")
                 if got.get(k) != count]
    return [_check(f"{label}.passes", problems),
            _check(f"{label}.equality_case", mismatches(ref["equality_case"],
                                                        got.get("equality_case")))]


def check_op(op, reference: dict) -> list:
    """Check one op's outputs (read from the current directory) against the
    reference; returns one {"name", "ok", "detail"} record per check."""
    ref = reference["ops"][op.ref]
    try:
        got = normalized(op)
    except (OSError, ValueError) as exc:
        return [_check(f"{op.ref}.read", [repr(exc)])]
    if op.check == "exact":
        return _exact(ref, got, op.ref)
    if op.check == "mc":
        return _mc(ref, got, op.ref)
    return _appendix(ref, got, op.ref, op.argv[op.argv.index("--count") + 1])
