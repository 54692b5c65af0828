"""Package hygiene: every exported name exists, nothing in the package
loads scipy, only a process pool loads multiprocessing, a process loads
only the modules its subcommand runs, the CLI runs OpenBLAS on one thread, only ``dynamics`` drives an array-state walk,
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


# Imports the module named first, runs the subcommand given after it (if
# any) through that module's main, or else builds its parser if it has
# one, and prints every module then loaded.
_SPY = """
import importlib, json, sys

module, argv = importlib.import_module(sys.argv[1]), sys.argv[2:]
status = module.main(argv) if argv else 0
if not argv and hasattr(module, "build_parser"):
    module.build_parser()
print(json.dumps(sorted(sys.modules)))
sys.exit(status)
"""


def _loaded(module: str, *argv: str) -> list:
    """The modules loaded by ``_SPY`` on ``module`` and ``argv``, in a
    fresh process."""
    return json.loads(_python(_SPY, module, *argv).splitlines()[-1])


def _cli_run(name: str, out_dir, *extra: str) -> list:
    """``_loaded`` by the subcommand ``name`` at TINY, run by the CLI."""
    return _loaded("lorentzlab.cli", name, *_TINY[name], *extra,
                   "--out-dir", str(out_dir))


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_no_subcommand_loads_scipy(name, tmp_path):
    assert [m for m in _cli_run(name, tmp_path)
            if m.partition(".")[0] == "scipy"] == []


@pytest.mark.parametrize("name", [None, *sorted(RUNNERS)])
def test_single_worker_run_leaves_multiprocessing_out(name, tmp_path):
    # only a process pool needs it: not the import, and no run at 1 worker
    loaded = (_loaded("lorentzlab.cli") if name is None else
              _cli_run(name, tmp_path, "--workers", "1"))
    assert [m for m in loaded
            if m.partition(".")[0] == "multiprocessing"] == []


@pytest.mark.parametrize("name", ["fick-slab", "pathology-scan",
                                  "thermalization"])
def test_undrawn_starts_leave_numpy_random_out(name, tmp_path):
    # delta starts, and slab injections drawn through the Philox port,
    # build no Generator: numpy.random (about 4 MB of peak memory) stays
    # out
    assert "numpy.random" not in _cli_run(name, tmp_path, "--workers", "1")


# A process loads only what it runs: per case, the module imported, the
# subcommand it runs at TINY (None: the CLI builds its parser and runs
# nothing), and the modules that must stay out.  numpy is the largest
# import of a fresh process; the mechanical flow would add about 3 MB to
# a bare import of kinetic, whose samplers take their math map from rng.
_MECHANICAL = ["lorentzlab.dynamics", "lorentzlab.medium",
               "lorentzlab.macroscale", "lorentzlab.stats"]
_IMPORT_SETS = {
    "cli-parser": ("lorentzlab.cli", None,
                   ["numpy", "lorentzlab.mechanical_runs",
                    "lorentzlab.kinetic_runs"]),
    "scatter-table": ("lorentzlab.cli", "scatter-table", ["numpy"]),
    "b-divergence": ("lorentzlab.cli", "b-divergence", ["numpy"]),
    "diffusion": ("lorentzlab.cli", "diffusion", _MECHANICAL),
    "kinetic-import": ("lorentzlab.kinetic", None, ["lorentzlab.dynamics"]),
}


@pytest.mark.parametrize("case", list(_IMPORT_SETS))
def test_loads_only_what_it_runs(case, tmp_path):
    module, name, absent = _IMPORT_SETS[case]
    loaded = (_loaded(module) if name is None else
              _cli_run(name, tmp_path))
    assert [m for m in absent if m in loaded] == []


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
