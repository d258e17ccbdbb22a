"""Every module-level function of meanclt feeds a command, or is listed in
LIBRARY_ONLY with the reason it stays; every hook of a process family feeds one.

The tests profile (sys.setprofile) small CLI calls that cover every command and
every process family, in a fresh interpreter so that no cache an earlier test
filled hides a call, and check both directions: each module-level `def` in
src/meanclt is called, or is a LIBRARY_ONLY entry; each entry exists and is not
called.  A function that stops feeding a command fails the test until it is
wired, deleted or listed here with its reason, which README repeats.  The
methods of the ProcessSpec classes have no such list: each is called, unless it
is a base-class default that only raises NotImplementedError.
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

# run in a fresh interpreter: the argument lists arrive as JSON on stdin, and the
# (file, qualified name) of every Python function called leaves as JSON on stdout
PROBE = """
import json, sys
import meanclt.cli
argvs = json.load(sys.stdin)
codes = set()

def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

sys.setprofile(profile)
try:
    exits = [meanclt.cli.main(argv) for argv in argvs]
finally:
    sys.setprofile(None)
print(json.dumps({"exits": exits,
                  "called": sorted({(c.co_filename, c.co_qualname) for c in codes})}))
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
    for name in DIAGNOSED:
        argvs.append(["diagnose", "--config", str(tmp / f"{name}.json"), "--kmax", "3",
                      "--window", "1", "--output", str(tmp / f"{name}.diagnosis.json")])
    argvs.append(["check-appendix", "--count", "70", "--seed", "5"])
    argvs.append(["report", *(str(tmp / f"{name}.manifest.json") for name in RUNS),
                  "--output", str(tmp / "report.csv")])
    return argvs


@pytest.fixture(scope="module")
def called(tmp_path_factory) -> set:
    """'module.qualname' of every function in src/meanclt the command lines call."""
    argvs = command_lines(tmp_path_factory.mktemp("reach"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", PROBE], input=json.dumps(argvs),
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    probe = json.loads(out.stdout.splitlines()[-1])
    assert probe["exits"] == [0] * len(argvs), list(zip(probe["exits"], argvs))
    return {f"{Path(file).stem}.{name}" for file, name in probe["called"]
            if Path(file).resolve().parent == SRC}


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
