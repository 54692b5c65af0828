"""Package hygiene: every exported name exists, nothing in the package
loads scipy, only a process pool loads multiprocessing, the CLI runs
OpenBLAS on one thread, only ``dynamics`` drives an array-state walk,
only ``rng`` maps ``math`` element by element, and every exported name
has a caller in the package or a stated job."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import lorentzlab
from lorentzlab.experiments import RUNNERS
from output_hashes import TINY as _TINY

MODULES = sorted(m.name for m in pkgutil.iter_modules(lorentzlab.__path__))


def _source(name: str) -> str:
    """The source of the package module ``name``."""
    path = os.path.join(os.path.dirname(lorentzlab.__file__), name + ".py")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_modules_found():
    assert {"dynamics", "kinetic", "macroscale", "scattering"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # "from lorentzlab.<module> import *"
    mod = importlib.import_module(f"lorentzlab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


# -- scipy is not a run-time dependency ---------------------------------------

_SRC = os.path.dirname(os.path.dirname(lorentzlab.__file__))


def _python(code: str, *args: str, env: dict | None = None) -> str:
    """Standard output of ``python -c code args`` in a fresh process, in
    ``env`` (default: this process's environment)."""
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True,
                         env={**(os.environ if env is None else env),
                              "PYTHONPATH": _SRC})
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("module", [f"lorentzlab.{m}" for m in MODULES])
def test_import_leaves_scipy_out(module):
    # each module alone, as a library caller imports it
    code = (f"import sys, {module}; "
            "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    assert _python(code).strip() == "[]"


# Imports lorentzlab.cli, runs the subcommand given after the package name
# (if any) through cli.main, and prints the modules of that package
# loaded when it has returned.
_SPY = """
import json, sys
from lorentzlab import cli

package, argv = sys.argv[1], sys.argv[2:]
status = cli.main(argv) if argv else 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] == package)))
sys.exit(status)
"""


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_no_subcommand_loads_scipy(name, tmp_path):
    out = _python(_SPY, "scipy", name, *_TINY[name], "--out-dir",
                  str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == []


@pytest.mark.parametrize("name", [None, *sorted(RUNNERS)])
def test_single_worker_run_leaves_multiprocessing_out(name, tmp_path):
    # only a process pool needs it: not the import, and no run at 1 worker
    argv = [] if name is None else [name, *_TINY[name], "--workers", "1",
                                    "--out-dir", str(tmp_path)]
    out = _python(_SPY, "multiprocessing", *argv)
    assert json.loads(out.splitlines()[-1]) == []


@pytest.mark.parametrize("name", ["fick-slab", "pathology-scan",
                                  "thermalization"])
def test_undrawn_starts_leave_numpy_random_out(name, tmp_path):
    # delta starts, and slab injections drawn through the Philox port,
    # build no Generator: numpy.random (about 4 MB of peak memory) stays
    # out
    out = _python(_SPY, "numpy", name, *_TINY[name], "--workers", "1",
                  "--out-dir", str(tmp_path))
    assert "numpy.random" not in json.loads(out.splitlines()[-1])


# -- one OpenBLAS thread per lorentz process ----------------------------------

# Imports lorentzlab.cli and runs each subcommand of a JSON list of argv
# lists through cli.main; prints, after the import and after each run,
# OPENBLAS_NUM_THREADS and the process's thread count (None without
# /proc).
_THREADS = """
import json, os, sys
from lorentzlab import cli

def seen(when):
    tasks = "/proc/self/task"
    return [when, os.environ.get("OPENBLAS_NUM_THREADS"),
            len(os.listdir(tasks)) if os.path.isdir(tasks) else None]

out = [seen("import")]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    out.append(seen(argv[0]))
print(json.dumps(out))
"""


def test_cli_runs_openblas_on_one_thread(tmp_path):
    # an idle OpenBLAS helper thread spins for about 0.1 s of CPU in
    # every process; the only BLAS calls are two small polyfits
    runs = [[name, *_TINY[name], "--workers", "1", "--out-dir",
             str(tmp_path)] for name in sorted(RUNNERS)]
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    out = json.loads(_python(_THREADS, json.dumps(runs),
                             env=env).splitlines()[-1])
    threads = 1 if os.path.isdir("/proc/self/task") else None
    assert out == [[when, "1", threads]
                   for when in ["import", *sorted(RUNNERS)]]


def test_cli_keeps_the_callers_openblas_threads():
    out = _python(_THREADS, "[]", env={**os.environ,
                                       "OPENBLAS_NUM_THREADS": "2"})
    assert json.loads(out.splitlines()[-1])[0][1] == "2"


# -- the benchmark tracer still finds every name it wraps ----------------------

_TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def test_tracer_wraps_existing_names_and_comes_off():
    # perfbench/tracing.py wraps functions and methods of this package by
    # name: a renamed or deleted one fails here, not only in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Patcher() as patcher:
        tracing.install_layers(patcher, tracing.Tracer())
        assert tracing.leftover_wrappers()
    assert tracing.leftover_wrappers() == []


# -- one refill driver ---------------------------------------------------------

_DRIVER_NAMES = ("_flights", "_resume", "_FieldBatch", "_LIVE_WALKS")


@pytest.mark.parametrize("name", [m for m in MODULES if m != "dynamics"])
def test_only_dynamics_drives_array_walks(name):
    # every array-state walk goes through dynamics._walks: a module that
    # names its kernels or its live cap has grown a second refill loop
    source = _source(name)
    assert [n for n in _DRIVER_NAMES
            if re.search(rf"\b{n}\b", source)] == []


# -- one per-element math map ----------------------------------------------------

def test_only_rng_maps_math_element_by_element():
    # rng._each is the one map of math over array elements: a module that
    # calls np.fromiter has grown a second one
    assert [m for m in MODULES
            if re.search(r"\bfromiter\b", _source(m))] == ["rng"]


def test_kinetic_leaves_dynamics_out():
    # the kinetic samplers take that map from rng: the mechanical flow
    # would add about 3 MB to a bare import of kinetic
    code = ("import sys, lorentzlab.kinetic; "
            "print('lorentzlab.dynamics' in sys.modules)")
    assert _python(code).strip() == "False"


# -- no public helper without a job --------------------------------------------

# The exported names that nothing else in the package uses, and the job
# each does outside it
_KEPT_WITHOUT_A_CALLER = {
    "backward_flow": "checks the paper's time reversal",
    "scattering_moment_integrals": "checks the paper's moment limits",
    "classify_pathologies": "oracle of the array walk's pathology counts",
    "ray_trace_oracle": "oracle of the deflection law",
    "sample_boltzmann_path": "oracle of the batched jump sampler",
    "sample_landau_path": "the one-path library form of the Landau sampler",
    "PlantedField": "the fixture that places disks by hand",
}


def _defines(stmt, name: str) -> bool:
    """Whether the top-level statement ``stmt`` defines ``name``."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _names_used(stmt) -> set:
    """The names, attributes and imported names in ``stmt``."""
    return {n.id if isinstance(n, ast.Name) else
            n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def test_every_exported_name_has_a_job():
    # a public helper whose only caller is its own test is deleted, unless
    # it checks a claim of the paper or is an oracle (listed above)
    statements = {name: ast.parse(_source(name)).body for name in MODULES}
    unused = set()
    for name in MODULES:
        for exported in getattr(importlib.import_module(f"lorentzlab.{name}"),
                                "__all__", ()):
            if not any(exported in _names_used(stmt)
                       for module, body in statements.items()
                       for stmt in body
                       if not (module == name and _defines(stmt, exported))):
                unused.add(exported)
    assert unused == set(_KEPT_WITHOUT_A_CALLER)
