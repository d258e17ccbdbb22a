"""Every module-level function of meanclt feeds a command, or is listed in
LIBRARY_ONLY with the reason it stays; every hook of a process family feeds one;
every defaulted parameter of a called function is set by a command, or is listed
in UNSET_PARAMETERS with the reason it stays.

The tests profile (sys.setprofile) small CLI calls that cover every command and
every process family, in a fresh interpreter so that no cache an earlier test
filled hides a call, and check both directions: each module-level `def` in
src/meanclt is called, or is a LIBRARY_ONLY entry; each entry exists and is not
called.  A function that stops feeding a command fails the test until it is
wired, deleted or listed here with its reason, which README repeats.  The
methods of the ProcessSpec classes have no such list: each is called, unless it
is a base-class default that only raises NotImplementedError.  A parameter
with a default that every call leaves at it (or at a value equal to it) is an
option no command has: it fails the test until it is made a constant, wired or
listed with its reason.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import meanclt

SRC = Path(meanclt.__file__).resolve().parent

TRACER = "perfbench's tracer wraps it by name, until ROADMAP item 1 replaces the tracer"
LIBRARY_ONLY = {
    "bounds.nonadapted_correction": TRACER,
    "bounds.variance_l32_norm": TRACER,
    "coefficients.monotone_difference_bound_check": TRACER,
    "coefficients.dispersion_check": TRACER,
    "theta.theta_coeff": TRACER,
    "wasserstein.w1_sample_gauss": TRACER,
    "wasserstein.ks_sample_gauss": TRACER,
    "bounds.cubic_moment_sum": "ROADMAP item 8's kappa_3 is to be computed with it",
    "fourier.cosine": "an observable constructor of the library API",
    "fourier.sine": "an observable constructor of the library API",
}

# 'module.qualname(parameter)' of the defaulted parameters of called functions
# that no command sets, each with the reason it stays
UNSET_PARAMETERS = {}

CHAIN = {"type": "finite_chain", "transition": [[0.9, 0.1], [0.2, 0.8]], "values": [1.0, -1.0]}
DOUBLING = {"type": "doubling_map"}
CIRCLE = {"type": "circle_walk", "a": "sqrt2_minus_one"}
RADEMACHER = {"type": "iid", "law": "rademacher"}
ALL_TARGETS = ["empirical_d1", "ks", "martingale_bound", "projective_bound",
               "second_moment_terms", "rate_fit", "zolotarev"]
RUNS = {
    "chain": {"process": CHAIN, "targets": ["empirical_d1", "ks", "rate_fit"]},
    "gaussian": {"process": {"type": "iid", "law": "gaussian:1.5"}, "targets": ALL_TARGETS},
    "rademacher": {"process": RADEMACHER, "reps": 1,
                   "targets": ["empirical_d1", "ks", "rate_fit", "zolotarev"]},
    "mixed-doubling": {"process": DOUBLING, "observable": {"cos": [0.5, 1.0], "sin": [0.3]},
                       "targets": ["empirical_d1", "ks", "projective_bound",
                                   "second_moment_terms", "rate_fit"]},
    "doubling-martingale": {"process": DOUBLING, "observable": {"cos": [1.0]},
                            "targets": ["empirical_d1", "martingale_bound", "rate_fit"]},
    "circle": {"process": CIRCLE, "observable": {"cos": [1.0]},
               "targets": ["empirical_d1", "ks", "projective_bound", "rate_fit"]},
}
DIAGNOSED = ("chain", "rademacher", "doubling-martingale", "circle")

# run in a fresh interpreter: the argument lists arrive as JSON on stdin; the
# (file, qualified name) of every Python function called, and the (file,
# qualified name, parameter) of every defaulted parameter of a meanclt function
# or method that some call sets to a value that is not its default, nor equal
# to it, leave as JSON on stdout.  Replicate blocks of 32 make the 100-replicate
# runs re-key generators, as runs of more than 4096 replicates do.
PROBE = """
import importlib, inspect, json, pkgutil, sys
import meanclt, meanclt.cli, meanclt.processes
meanclt.processes._BLOCK_SIZE = 32
argvs = json.load(sys.stdin)
unset = {}  # code -> {parameter: default} of the defaults no call has set yet
for info in pkgutil.iter_modules(meanclt.__path__):
    module = importlib.import_module("meanclt." + info.name)
    for obj in vars(module).values():
        owned = inspect.isclass(obj) and obj.__module__ == module.__name__
        for fn in vars(obj).values() if owned else [obj]:
            fn = inspect.unwrap(getattr(fn, "__func__", fn))
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                unset[fn.__code__] = {p.name: p.default
                                      for p in inspect.signature(fn).parameters.values()
                                      if p.default is not p.empty}
defaulted = {(c.co_filename, c.co_qualname, name) for c, d in unset.items() for name in d}
codes, is_set = set(), set()

def equal(value, default):
    try:
        return value is default or bool(value == default)
    except ValueError:  # an array's truth value: an array is no scalar default
        return False

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        codes.add(code)
        if unset.get(code):
            params, values = unset[code], frame.f_locals
            for name in [n for n in params if not equal(values[n], params[n])]:
                del params[name]
                is_set.add((code.co_filename, code.co_qualname, name))

sys.setprofile(profile)
try:
    exits = [meanclt.cli.main(argv) for argv in argvs]
finally:
    sys.setprofile(None)
print(json.dumps({"exits": exits,
                  "called": sorted({(c.co_filename, c.co_qualname) for c in codes}),
                  "defaulted": sorted(defaulted), "set": sorted(is_set)}))
"""


def module_functions() -> set:
    """'module.name' of every module-level def in src/meanclt."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{path.stem}.{node.name}")
    return names


def process_methods() -> set:
    """'Class.method' of every method of ProcessSpec and its subclasses in
    processes.py, but the base-class ones whose body only raises NotImplementedError."""
    tree = ast.parse((SRC / "processes.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)
               and (node.name == "ProcessSpec"
                    or any(getattr(b, "id", None) == "ProcessSpec" for b in node.bases))]
    names = set()
    for cls in classes:
        for node in cls.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            body = [b for b in node.body
                    if not (isinstance(b, ast.Expr) and isinstance(b.value, ast.Constant))]
            exc = body[0].exc if len(body) == 1 and isinstance(body[0], ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if cls.name == "ProcessSpec" and getattr(exc, "id", None) == "NotImplementedError":
                continue
            names.add(f"{cls.name}.{node.name}")
    return names


def command_lines(tmp: Path) -> list:
    argvs = []
    for name, d in RUNS.items():
        cfg = tmp / f"{name}.json"
        cfg.write_text(json.dumps({"n_grid": [16, 32, 64], "reps": 100, "seed": 3, **d}))
        argvs.append(["run", "--config", str(cfg), "--output", str(tmp / name)])
    for preset in ("mds-doubling", "circle-walk", "iid-rademacher-exact", "doubling-nonadapted"):
        argvs.append(["preset", preset, "--n-max", "64", "--reps", "100",
                      "--output", str(tmp / preset)])
    argvs[-1] += ["--seed", "2"]  # perfbench gives presets a seed
    for name in DIAGNOSED:
        argvs.append(["diagnose", "--config", str(tmp / f"{name}.json"), "--kmax", "3",
                      "--window", "1", "--output", str(tmp / f"{name}.diagnosis.json")])
    argvs.append(["check-appendix", "--count", "70", "--seed", "5"])
    argvs.append(["report", *(str(tmp / f"{name}.manifest.json") for name in RUNS),
                  "--output", str(tmp / "report.csv")])
    return argvs


@pytest.fixture(scope="module")
def probe(tmp_path_factory) -> dict:
    """PROBE's output for the command lines."""
    argvs = command_lines(tmp_path_factory.mktemp("reach"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", PROBE], input=json.dumps(argvs),
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    probe = json.loads(out.stdout.splitlines()[-1])
    assert probe["exits"] == [0] * len(argvs), list(zip(probe["exits"], argvs))
    return probe


def in_src(entries) -> set:
    """'module.qualname', or 'module.qualname(parameter)', of the (file,
    qualname[, parameter]) entries whose file is in src/meanclt."""
    return {f"{Path(file).stem}.{name}" + "".join(f"({p})" for p in param)
            for file, name, *param in entries if Path(file).resolve().parent == SRC}


@pytest.fixture(scope="module")
def called(probe) -> set:
    """'module.qualname' of every function in src/meanclt the command lines call."""
    return in_src(probe["called"])


def test_every_function_feeds_a_command_or_is_listed(called):
    defined = module_functions()
    assert sorted(defined - called - set(LIBRARY_ONLY)) == [], "unreached and unlisted"
    assert sorted(set(LIBRARY_ONLY) - defined) == [], "listed but not defined"
    assert sorted(set(LIBRARY_ONLY) & called) == [], "listed but reached"


def test_readme_lists_the_library_only_functions():
    # README's "Library-only functions" section names each entry once, and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Library-only functions\n", 1)[1].split("\n#", 1)[0]
    assert sorted(re.findall(r"`(\w+\.\w+)`", section)) == sorted(LIBRARY_ONLY)
    assert f"except the {len(LIBRARY_ONLY)} below" in " ".join(section.split())


def test_every_process_hook_feeds_a_command(called):
    # an operator hook that no command reaches is one no config can give an input
    hooks = {f"processes.{name}" for name in process_methods()}
    assert "processes.DoublingMap._transfer" in hooks
    assert sorted(hooks - called) == [], "unreached process methods"


def test_every_defaulted_parameter_is_set_by_a_command_or_is_listed(probe, called):
    # a default that every call keeps is an option no command has
    defaulted = {p for p in in_src(probe["defaulted"]) if p.split("(")[0] in called}
    unset = defaulted - in_src(probe["set"])
    assert sorted(unset - set(UNSET_PARAMETERS)) == [], "unset and unlisted"
    assert sorted(set(UNSET_PARAMETERS) - defaulted) == [], "listed but not a called default"
    assert sorted(set(UNSET_PARAMETERS) & (defaulted - unset)) == [], "listed but set"
    assert "harness.preset_config(seed)" in defaulted - unset
