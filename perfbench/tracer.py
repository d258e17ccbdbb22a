"""Outside-in tracing of meanclt's layers, from the benchmark's own files.

`Tracer.install()` replaces each traced function by a wrapper in every
`meanclt` module namespace that holds it (so `simulate` is wrapped as
`meanclt.harness.simulate` as well as `meanclt.processes.simulate`), and each
traced method on its class.  Every call records a span
`[name, start, end, parent, counts]` in memory; `layer_metrics` turns the
spans into the per-layer metrics.  Tracing assumes one thread: the harness
thread pool is off because the benchmark removes MEANCLT_THREADS.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# (defining module, attribute) of every traced callable.  The span name is
# "<layer>.<attribute>", the layer being the module's last name component.
TRACED = (
    ("meanclt.cli", "main"),
    ("meanclt.harness", "run"),
    ("meanclt.harness", "preset_config"),
    ("meanclt.harness", "check_appendix"),
    ("meanclt.harness", "diagnose_conditions"),
    ("meanclt.processes", "simulate"),
    ("meanclt.processes", "transfer"),
    ("meanclt.processes", "resolvent_tail"),
    ("meanclt.processes", "long_run_variance"),
    ("meanclt.processes", "is_martingale"),
    ("meanclt.numerics", "RandomStream.generator"),
    ("meanclt.numerics", "gauss_pdf"),
    ("meanclt.numerics", "gauss_cdf"),
    ("meanclt.numerics", "gauss_sf"),
    ("meanclt.numerics", "gauss_quantile"),
    ("meanclt.numerics", "integrate_unit"),
    ("meanclt.fourier", "FourierFn.eval"),
    ("meanclt.fourier", "product"),
    ("meanclt.wasserstein", "EmpiricalSample.__post_init__"),
    ("meanclt.wasserstein", "w1_sample_gauss"),
    ("meanclt.wasserstein", "w1_pmf_gauss"),
    ("meanclt.wasserstein", "ks_sample_gauss"),
    ("meanclt.bounds", "moments"),
    ("meanclt.bounds", "martingale_d1_bound"),
    ("meanclt.bounds", "projective_d1_bound"),
    ("meanclt.bounds", "nonadapted_correction"),
    ("meanclt.bounds", "second_moment_norms"),
    ("meanclt.bounds", "variance_l32_norm"),
    ("meanclt.bounds", "rate_fit"),
    ("meanclt.coefficients", "theta_coeff"),
    ("meanclt.coefficients", "alpha_exact"),
    ("meanclt.coefficients", "covariance_bound_check"),
    ("meanclt.coefficients", "monotone_difference_bound_check"),
    ("meanclt.coefficients", "dispersion_check"),
    ("meanclt.coefficients", "mixing_integral"),
    ("meanclt.coefficients", "weighted_tail_integral"),
    ("meanclt.coefficients", "quantile_from_sample"),
)

POINTS_PER_PANEL = 15  # Gauss-Kronrod 7-15: one panel evaluates the integrand at 15 points


# -- counts recorded per call ------------------------------------------------
# Each takes (args, kwargs, result) of the traced call and returns its counts;
# meanclt passes these arguments positionally.

def _elems(args, kwargs, result):
    return {"elems": int(np.size(args[0]))}


def _trig_evals(args, kwargs, result):
    f, x = args
    nonzero = int(np.count_nonzero(f.cos_coeffs) + np.count_nonzero(f.sin_coeffs))
    return {"trig_evals": int(np.size(x)) * nonzero}


def _simulate(args, kwargs, result):
    kind = type(args[0]).__name__
    return {"step_reps": result.n * result.reps, "replicates": result.reps, "kind": kind}


COUNTERS = {
    "numerics.gauss_cdf": _elems,
    "numerics.gauss_quantile": _elems,
    "fourier.FourierFn.eval": _trig_evals,
    "fourier.product": lambda a, k, r: {"dropped_l1": float(r.dropped_l1)},
    "processes.simulate": _simulate,
    "wasserstein.EmpiricalSample.__post_init__": lambda a, k, r: {"points": int(a[0].values.size)},
    "wasserstein.w1_sample_gauss": lambda a, k, r: {"points": int(a[0].size)},
    "wasserstein.w1_pmf_gauss": lambda a, k, r: {"atoms": int(a[0].atoms.size)},
    "bounds.martingale_d1_bound": lambda a, k, r: {"series_terms": r.m_cutoff},
    "bounds.projective_d1_bound": lambda a, k, r: {"series_terms": r.m_cutoff},
    "harness.check_appendix": lambda a, k, r: {"instances": r.total},
}


class Tracer:
    """Installs the wrappers and owns the spans they record."""

    def __init__(self):
        self.spans = []
        self.moment_keys = set()  # distinct (spec, f) pairs passed to bounds.moments
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        count_points = name == "numerics.integrate_unit"
        moment_keys = self.moment_keys if name == "bounds.moments" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if count_points:
                span[4] = counts = {"points": 0}
                g = args[0]

                def counted(x):
                    counts["points"] += int(np.size(x))
                    return g(x)

                args = (counted,) + args[1:]
            if moment_keys is not None:
                spec, f = args[0], args[1] if len(args) > 1 else None
                moment_keys.add((json.dumps(spec.to_dict(), sort_keys=True),
                                 f.to_json() if f is not None else None))
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED callable; `uninstall` puts the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for modname, attr in TRACED:
            module = importlib.import_module(modname)
            name = f"{modname.rsplit('.', 1)[-1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "meanclt" and not mod_name.startswith("meanclt."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []


# -- span arithmetic -----------------------------------------------------------


def covered(interval, children) -> float:
    """Length of the part of `interval` = (start, end) that the union of the
    `children` intervals covers."""
    lo, hi = interval
    total, reach = 0.0, lo  # reach: end of the covered part so far
    for s, e in sorted(children):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [(s[2] - s[1]) - covered((s[1], s[2]), kids) for s, kids in zip(spans, children)]


class SpanStats:
    """Per-name totals over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)
        self.calls, self.incl, self.excl, self.counts = {}, {}, {}, {}
        for s, own in zip(spans, self.self_s):
            name = s[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0.0) + (s[2] - s[1])
            self.excl[name] = self.excl.get(name, 0.0) + own
            if s[4]:
                acc = self.counts.setdefault(name, {})
                for k, v in s[4].items():
                    if not isinstance(v, str):
                        acc[k] = acc.get(k, 0) + v

    def count(self, name, key):
        return self.counts.get(name, {}).get(key, 0)

    def layer_self(self, layer):
        return sum(v for k, v in self.excl.items() if k.split(".", 1)[0] == layer)

    def under(self, name, ancestors) -> int:
        """Spans called `name` with a span named in `ancestors` above them."""
        hits = 0
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] not in ancestors:
                p = self.spans[p][3]
            hits += p >= 0
        return hits


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def _kernel_time(st, kind):
    """Simulation time of one process kind net of per-replicate generator set-up,
    with the step count it covers."""
    gen_under = {}
    for s in st.spans:
        if s[0] == "numerics.RandomStream.generator" and s[3] >= 0:
            gen_under[s[3]] = gen_under.get(s[3], 0.0) + (s[2] - s[1])
    t, steps = 0.0, 0
    for i, s in enumerate(st.spans):
        if s[0] == "processes.simulate" and s[4] and s[4]["kind"] == kind:
            t += (s[2] - s[1]) - gen_under.get(i, 0.0)
            steps += s[4]["step_reps"]
    return t, steps


def layer_metrics(spans, timings, moment_keys) -> dict:
    """The per-layer metrics of one traced pass.

    `timings` is the list of `timings` blocks of the manifests the pass wrote.
    `…_s` metrics are self time; `ns_per_…`/`us_per_…` use inclusive time.
    """
    st = SpanStats(spans)
    c, incl, excl = st.calls, st.incl, st.excl
    get = lambda d, k: d.get(k, 0)
    stage = lambda key: sum(t.get(key, 0.0) for t in timings)
    dbl_t, dbl_n = _kernel_time(st, "DoublingMap")
    cir_t, cir_n = _kernel_time(st, "CircleWalk")
    series_terms = (st.count("bounds.martingale_d1_bound", "series_terms")
                    + st.count("bounds.projective_d1_bound", "series_terms"))
    quad_in_bounds = st.under("numerics.integrate_unit",
                              {"bounds.martingale_d1_bound", "bounds.projective_d1_bound"})
    panels = st.count("numerics.integrate_unit", "points") / POINTS_PER_PANEL
    return {
        "harness.simulate_s": stage("simulate"),
        "harness.distances_s": stage("distances"),
        "harness.bounds_s": stage("bounds"),
        "harness.appendix_s": get(incl, "harness.check_appendix"),
        "harness.diagnose_s": get(incl, "harness.diagnose_conditions"),
        "harness.self_s": st.layer_self("harness"),
        "processes.self_s": st.layer_self("processes"),
        "processes.step_reps": st.count("processes.simulate", "step_reps"),
        "processes.replicates": st.count("processes.simulate", "replicates"),
        "processes.ns_per_step_rep.doubling": _ratio(dbl_t, dbl_n, 1e9),
        "processes.ns_per_step_rep.circle": _ratio(cir_t, cir_n, 1e9),
        "processes.transfer_calls": get(c, "processes.transfer"),
        "processes.transfer_s": get(excl, "processes.transfer"),
        "processes.resolvent_tail_calls": get(c, "processes.resolvent_tail"),
        "processes.long_run_variance_calls": get(c, "processes.long_run_variance"),
        "numerics.self_s": st.layer_self("numerics"),
        "numerics.generator_calls": get(c, "numerics.RandomStream.generator"),
        "numerics.us_per_generator": _ratio(get(incl, "numerics.RandomStream.generator"),
                                            get(c, "numerics.RandomStream.generator"), 1e6),
        "numerics.gauss_cdf_elems": st.count("numerics.gauss_cdf", "elems"),
        "numerics.ns_per_cdf_elem": _ratio(get(incl, "numerics.gauss_cdf"),
                                           st.count("numerics.gauss_cdf", "elems"), 1e9),
        "numerics.gauss_quantile_elems": st.count("numerics.gauss_quantile", "elems"),
        "numerics.ns_per_quantile_elem": _ratio(get(incl, "numerics.gauss_quantile"),
                                                st.count("numerics.gauss_quantile", "elems"), 1e9),
        "numerics.quad_calls": get(c, "numerics.integrate_unit"),
        "numerics.quad_panels": panels,
        "numerics.panels_per_quad": _ratio(panels, get(c, "numerics.integrate_unit")),
        "numerics.quad_s": get(excl, "numerics.integrate_unit"),
        "fourier.self_s": st.layer_self("fourier"),
        "fourier.eval_calls": get(c, "fourier.FourierFn.eval"),
        "fourier.trig_evals": st.count("fourier.FourierFn.eval", "trig_evals"),
        "fourier.ns_per_trig_eval": _ratio(get(incl, "fourier.FourierFn.eval"),
                                           st.count("fourier.FourierFn.eval", "trig_evals"), 1e9),
        "fourier.eval_s": get(excl, "fourier.FourierFn.eval"),
        "fourier.product_calls": get(c, "fourier.product"),
        "fourier.product_s": get(excl, "fourier.product"),
        "fourier.dropped_l1_total": st.count("fourier.product", "dropped_l1"),
        "wasserstein.self_s": st.layer_self("wasserstein"),
        "wasserstein.w1_sample_calls": get(c, "wasserstein.w1_sample_gauss"),
        "wasserstein.ns_per_w1_point": _ratio(get(incl, "wasserstein.w1_sample_gauss"),
                                              st.count("wasserstein.w1_sample_gauss", "points"),
                                              1e9),
        "wasserstein.sorted_points": st.count("wasserstein.EmpiricalSample.__post_init__",
                                              "points"),
        "wasserstein.sort_s": get(excl, "wasserstein.EmpiricalSample.__post_init__"),
        "wasserstein.ks_s": get(excl, "wasserstein.ks_sample_gauss"),
        "wasserstein.w1_pmf_atoms": st.count("wasserstein.w1_pmf_gauss", "atoms"),
        "wasserstein.w1_pmf_s": get(excl, "wasserstein.w1_pmf_gauss"),
        "bounds.self_s": st.layer_self("bounds"),
        "bounds.martingale_s": get(excl, "bounds.martingale_d1_bound"),
        "bounds.projective_s": get(excl, "bounds.projective_d1_bound"),
        "bounds.second_moment_s": get(excl, "bounds.second_moment_norms"),
        "bounds.nonadapted_correction_s": get(excl, "bounds.nonadapted_correction"),
        "bounds.series_terms": series_terms,
        "bounds.quad_per_series_term": _ratio(quad_in_bounds, series_terms),
        "bounds.moments_calls": get(c, "bounds.moments"),
        "bounds.moments_reuse": _ratio(len(moment_keys), get(c, "bounds.moments")),
        "coefficients.self_s": st.layer_self("coefficients"),
        "coefficients.theta_calls": get(c, "coefficients.theta_coeff"),
        "coefficients.theta_s": get(excl, "coefficients.theta_coeff"),
        "coefficients.alpha_s": get(excl, "coefficients.alpha_exact"),
        "coefficients.covariance_check_s": (get(excl, "coefficients.covariance_bound_check")
                                            + get(excl, "coefficients.monotone_difference_bound_check")),
        "coefficients.dispersion_check_s": get(excl, "coefficients.dispersion_check"),
        "coefficients.us_per_appendix_instance": _ratio(get(incl, "harness.check_appendix"),
                                                        st.count("harness.check_appendix",
                                                                 "instances"), 1e6),
        "cli.self_s": st.layer_self("cli"),
        "trace.spans": len(spans),
    }
