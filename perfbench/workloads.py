"""The benchmark's workloads: the CLI calls each one makes and the inputs it writes.

A workload is a list of `Op`s, each one `meanclt.cli.main(argv)` call.  The
seed given on the command line goes only into the generated configs (`seed`)
and the `--seed` options of `preset` and `check-appendix`; file names are
generic (`c1.json`, `o1`), so the program never sees which workload runs.

Sizes are chosen so that one pass takes about 5-6 s on a 2-core Xeon, which
gives several passes in one measured run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

MC_LONG_REPS = 2048
MC_WIDE_REPS = 20000
MC_WIDE_GRID = (16, 64, 256)
MC_WIDE_BOOTSTRAP = 100
NONADAPTED_GRID = (64, 256, 1024, 4096, 16384)
MARTINGALE_GRID = (64, 256, 1024, 4096, 16384, 65536)
CIRCLE4_GRID = (64, 256)
APPENDIX_COUNT = 200

_COS1 = {"constant": 0.0, "cos": [1.0], "sin": []}
_COS2 = {"constant": 0.0, "cos": [0.0, 1.0], "sin": []}
_CIRCLE4 = {"constant": 0.0, "cos": [1.0, 0.5, 0.25, 0.125], "sin": [0.0, 0.3]}
_DOUBLING = {"type": "doubling_map"}
_CIRCLE = {"type": "circle_walk", "a": "sqrt2_minus_one"}


@dataclass(frozen=True)
class Op:
    """One CLI call.  `ref` names its entry in reference.json; `output` is the
    path prefix (manifest ops) or file (JSON-report ops) it writes; `check`
    selects how the output is checked: "exact", "mc" or "appendix"."""

    ref: str
    argv: tuple
    output: str
    check: str

    @property
    def files(self) -> tuple:
        if self.output.endswith(".json"):
            return (self.output,)
        return (self.output + ".manifest.json", self.output + ".csv")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: str
    configs: tuple  # (ref, config dict) pairs written as c<i>.json
    ops: tuple      # (ref, argv template, check) triples; {seed} and {cfg} are filled in


def _config(process, observable, grid, targets, reps=1, bootstrap=None):
    d = {"process": process, "observable": observable, "n_grid": list(grid),
         "reps": reps, "targets": list(targets)}
    if bootstrap is not None:
        d["bootstrap"] = bootstrap
    return d


WORKLOADS = {
    "mc-long": Workload(
        name="mc-long",
        why="long MC paths: the per-step kernels in processes.simulate and FourierFn.eval "
            "do most of the work; distances and bounds are small",
        size=f"presets mds-doubling and circle-walk, n up to 16384, {MC_LONG_REPS} replicates",
        configs=(),
        ops=(("preset:mds-doubling",
              ("preset", "mds-doubling", "--reps", str(MC_LONG_REPS), "--seed", "{seed}"), "mc"),
             ("preset:circle-walk",
              ("preset", "circle-walk", "--reps", str(MC_LONG_REPS), "--seed", "{seed}"), "mc"))),
    "mc-wide": Workload(
        name="mc-wide",
        why="short MC paths, many replicates: exact W1 and its bootstrap, Gaussian cdf/quantile "
            "and per-replicate generator set-up do most of the work",
        size=f"DoublingMap and CircleWalk with cos1, n in {list(MC_WIDE_GRID)}, "
             f"{MC_WIDE_REPS} replicates, bootstrap {MC_WIDE_BOOTSTRAP}",
        configs=(("wide:doubling", _config(_DOUBLING, _COS1, MC_WIDE_GRID,
                                           ("empirical_d1", "ks", "rate_fit"),
                                           MC_WIDE_REPS, MC_WIDE_BOOTSTRAP)),
                 ("wide:circle", _config(_CIRCLE, _COS1, MC_WIDE_GRID,
                                         ("empirical_d1", "ks", "rate_fit"),
                                         MC_WIDE_REPS, MC_WIDE_BOOTSTRAP))),
        ops=(("wide:doubling", ("run", "--config", "{cfg}"), "mc"),
             ("wide:circle", ("run", "--config", "{cfg}"), "mc"))),
    "exact": Workload(
        name="exact",
        why="deterministic work only: bounds through the exact transfer operator, quadrature, "
            "Fourier products, exact-pmf W1, diagnostics and the appendix oracle; no simulation",
        size=f"projective+second-moment bounds n<={NONADAPTED_GRID[-1]}, martingale bound "
             f"n<={MARTINGALE_GRID[-1]}, 4-frequency circle bound n<={CIRCLE4_GRID[-1]}, "
             f"iid-rademacher-exact, 2 diagnoses, {APPENDIX_COUNT} appendix instances",
        configs=(("exact:nonadapted", _config(_DOUBLING, _COS2, NONADAPTED_GRID,
                                              ("projective_bound", "second_moment_terms"))),
                 ("exact:martingale", _config(_DOUBLING, _COS1, MARTINGALE_GRID,
                                              ("martingale_bound",))),
                 ("exact:circle4", _config(_CIRCLE, _CIRCLE4, CIRCLE4_GRID,
                                           ("projective_bound",))),
                 ("diagnose:doubling-cos2", {"process": _DOUBLING, "observable": _COS2}),
                 ("diagnose:circle-cos1", {"process": _CIRCLE, "observable": _COS1})),
        ops=(("exact:nonadapted", ("run", "--config", "{cfg}"), "exact"),
             ("exact:martingale", ("run", "--config", "{cfg}"), "exact"),
             ("exact:circle4", ("run", "--config", "{cfg}"), "exact"),
             ("preset:iid-rademacher-exact",
              ("preset", "iid-rademacher-exact", "--seed", "{seed}"), "exact"),
             ("diagnose:doubling-cos2", ("diagnose", "--config", "{cfg}"), "exact"),
             ("diagnose:circle-cos1", ("diagnose", "--config", "{cfg}"), "exact"),
             ("appendix", ("check-appendix", "--count", str(APPENDIX_COUNT),
                           "--seed", "{seed}"), "appendix"))),
}


def build(name: str, seed: int, workdir: Path) -> list:
    """Write the workload's config files into `workdir` and return its Ops.

    Paths in the returned argv are relative to `workdir`, which the caller
    makes the current directory, so outputs read the same in every pass.
    """
    wl = WORKLOADS[name]
    cfg_files = {}
    for i, (ref, cfg) in enumerate(wl.configs, 1):
        path = f"c{i}.json"
        (workdir / path).write_text(json.dumps(dict(cfg, seed=seed), indent=2, sort_keys=True))
        cfg_files[ref] = path
    ops = []
    for i, (ref, argv, check) in enumerate(wl.ops, 1):
        argv = tuple(a.format(seed=seed, cfg=cfg_files.get(ref, "")) for a in argv)
        output = f"o{i}.json" if argv[0] in ("diagnose", "check-appendix") else f"o{i}"
        ops.append(Op(ref=ref, argv=argv + ("--output", output), output=output, check=check))
    return ops
