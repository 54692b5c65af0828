"""lorentzlab benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload mech --seed 20240901 --seconds 45 --trace 0

Run from the root of a checkout; the program is taken from `src/`.
--trace 0 repeats timed passes of the workload (every `lorentz`
invocation and library call, each in a process of its own) for about
--seconds seconds and reports end-to-end medians over the passes.
--trace 1 makes one timed pass and then traced and untraced passes in
this process, and reports the per-layer metrics.  README.md defines
every metric.  The last line of standard output is the JSON result.
`--write-pins` re-pins the outputs at the pinned seed into pins.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
PINS = os.path.join(HERE, "pins.json")
LIBCALL = os.path.join(HERE, "libcall.py")

sys.path.insert(0, HERE)

from invoke import check_csv, check_value, launch  # noqa: E402
from libcall import call as library_call  # noqa: E402
from tracing import (ChunkRecorder, Patcher, Tracer, install_layers,  # noqa: E402
                     leftover_wrappers)
from workloads import PINNED_SEED, WORKLOADS, Cli, Lib, Workload  # noqa: E402

MIN_PASSES = 3
MAX_PASSES = 40
INVOCATION_LIMIT_S = 40.0  # a hung process is killed and counted as failed
IMPORT_SAMPLES = 3

END_TO_END = (("wall_s", "s"), ("compute_s", "s"), ("setup_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# summaries


def tail(samples) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples
    above it, by nearest rank; None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def describe(name: str, unit: str, samples) -> str:
    t = tail(samples)
    tail_s = f"p{t[0]:.1f} {t[1]:.6g}" if t else "tail n/a (needs >= 11 samples)"
    return (f"  {name:<13} {statistics.median(samples):>12.6g} {unit:<5} "
            f"median, {tail_s}, n={len(samples)}")


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    pkg = os.path.join(SRC, "lorentzlab")
    src_lines = 0
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "seed": seed,
        "src_lines": src_lines,
    }


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


# ---------------------------------------------------------------------------
# one timed pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def check_step(step, out_dir: str) -> tuple[str, float, str]:
    """(problem, duration_s, fingerprint) of a finished step's outputs."""
    if isinstance(step, Cli):
        csv_path = os.path.join(out_dir, step.name + ".csv")
        problem = check_csv(csv_path, step.header, step.rows, step.finite,
                            step.finite_but_last)
        if problem:
            return problem, 0.0, ""
        try:
            with open(os.path.join(out_dir, step.name + ".json"),
                      encoding="utf-8") as fh:
                duration = float(json.load(fh)["duration_s"])
        except (OSError, ValueError, KeyError) as exc:
            return f"sidecar: {exc!r}", 0.0, ""
        return "", duration, sha256(csv_path)
    try:
        with open(os.path.join(out_dir, step.name + ".json"), encoding="utf-8") as fh:
            got = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"no result: {exc!r}", 0.0, ""
    return (check_value(got["value"], step.reference, step.rel_tol),
            float(got["duration_s"]), "repr:" + got["repr"])


def lib_kwargs(step: Lib, seed: int) -> dict:
    return dict(step.kwargs, seed=seed)


def timed_pass(wl: Workload, seed: int, workers: int, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    env = child_env()
    outcomes = []
    t0 = time.perf_counter()
    for step in wl.steps:
        if isinstance(step, Cli):
            argv = [sys.executable, "-m", "lorentzlab.cli", *step.argv,
                    "--seed", str(seed), "--workers", str(workers),
                    "--out-dir", out_dir, "--out-prefix", step.name]
        else:
            argv = [sys.executable, LIBCALL, "--target", step.target,
                    "--kwargs", json.dumps(lib_kwargs(step, seed)),
                    "--out", os.path.join(out_dir, step.name + ".json")]
        out = launch(step.name, argv, env=env, cwd=ROOT,
                     limit_s=INVOCATION_LIMIT_S,
                     log_path=os.path.join(out_dir, step.name + ".log"))
        outcomes.append(out)
        if out.timed_out:
            break  # stop here rather than risk the run's own time limit
    wall = time.perf_counter() - t0

    compute = setup = 0.0
    fingerprints = {}
    for step, out in zip(wl.steps, outcomes):
        duration = 0.0
        if out.ok:
            out.problem, duration, fp = check_step(step, out_dir)
            if out.ok:
                fingerprints[step.name] = fp
        compute += duration
        setup += out.wall_s - duration
    return {
        "wall_s": wall,
        "compute_s": compute,
        "setup_s": setup,
        "cpu_s": sum(o.cpu_s for o in outcomes),
        "peak_rss_mb": max(o.maxrss_mb for o in outcomes),
        "outcomes": outcomes,
        "fingerprints": fingerprints,
    }


def log_tail(path: str, lines: int = 5) -> str:
    with contextlib.suppress(OSError), open(path, encoding="utf-8",
                                             errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])
    return ""


# ---------------------------------------------------------------------------
# pinned outputs


def load_pins() -> dict:
    try:
        with open(PINS, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def drift(workload: str, seed: int, fingerprints: dict) -> tuple[int, list[str]]:
    """(outputs compared with a pin, names of those that differ)."""
    pins = load_pins()
    if pins.get("seed") != seed:
        return 0, []
    pinned = pins.get("outputs", {}).get(workload, {})
    changed = [k for k in sorted(pinned) if fingerprints.get(k) != pinned[k]]
    return len(pinned), changed


def write_pins() -> int:
    outputs = {}
    for name, wl in WORKLOADS.items():
        pass_dir = os.path.join(WORK, f"pins-{name}")
        res = timed_pass(wl, PINNED_SEED, wl.workers, pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        bad = [o for o in res["outcomes"] if not o.ok]
        if bad or len(res["outcomes"]) != len(wl.steps):
            for o in bad:
                print(f"{name}/{o.name}: {o.problem}", file=sys.stderr)
            return 1
        outputs[name] = res["fingerprints"]
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump({"seed": PINNED_SEED, "outputs": outputs}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(f"pinned {sum(map(len, outputs.values()))} outputs at seed {PINNED_SEED}")
    return 0


# ---------------------------------------------------------------------------
# --trace 0


def timed_run(wl: Workload, seed: int, seconds: float, run_dir: str) -> dict:
    start = time.perf_counter()
    passes = []
    attempted = failed = 0
    problems = []
    reference = None
    while len(passes) < MAX_PASSES:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(
                p["wall_s"] for p in passes) > seconds:
            break
        pass_dir = os.path.join(run_dir, f"pass{len(passes)}")
        res = timed_pass(wl, seed, wl.workers, pass_dir)
        if reference is None:
            reference = res["fingerprints"]
        for o in res["outcomes"]:
            fp = res["fingerprints"].get(o.name)
            if o.ok and fp != reference.get(o.name):
                o.problem = "output bytes differ from the first pass"
            attempted += 1
            if not o.ok:
                failed += 1
                problems.append(f"pass {len(passes)} {o.name}: {o.problem}\n"
                                f"{log_tail(o.log_path)}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append(res)
        if any(o.timed_out for o in res["outcomes"]):
            break
    samples = {name: [p[name] for p in passes] for name, _ in END_TO_END}
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "problems": problems, "fingerprints": reference or {}}


# ---------------------------------------------------------------------------
# --trace 1


def import_program():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import lorentzlab.cli  # noqa: F401  (loads every layer)
    got = os.path.dirname(os.path.abspath(sys.modules["lorentzlab"].__file__))
    if got != os.path.join(SRC, "lorentzlab"):
        raise RuntimeError(f"imported lorentzlab from {got}, not from {SRC}")


def inprocess_pass(wl: Workload, seed: int, out_dir: str):
    """The workload at workers=1 in this process: (wall_s, fingerprints,
    csv_bytes, problems)."""
    from lorentzlab import cli

    os.makedirs(out_dir, exist_ok=True)
    fingerprints, problems = {}, []
    csv_bytes = 0
    sink = io.StringIO()
    t0 = time.perf_counter()
    for step in wl.steps:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if isinstance(step, Cli):
                    code = cli.main([*step.argv, "--seed", str(seed),
                                     "--workers", "1", "--out-dir", out_dir,
                                     "--out-prefix", step.name])
                else:
                    library_call(step.target, lib_kwargs(step, seed),
                                 os.path.join(out_dir, step.name + ".json"))
                    code = 0
        except Exception as exc:  # a bug in the program: record and go on
            problems.append(f"{step.name}: {exc!r}")
            continue
        problem, _, fp = check_step(step, out_dir) if code == 0 else (
            f"exit code {code}", 0.0, "")
        if problem:
            problems.append(f"{step.name}: {problem}")
            continue
        fingerprints[step.name] = fp
        if isinstance(step, Cli):
            csv_bytes += os.path.getsize(os.path.join(out_dir, step.name + ".csv"))
    return time.perf_counter() - t0, fingerprints, csv_bytes, problems


def fresh_import_s() -> tuple[float, int]:
    """Median wall time of `import lorentzlab.cli` in a fresh interpreter,
    and how many of the attempts failed."""
    times, bad = [], 0
    for _ in range(IMPORT_SAMPLES):
        out = launch("import", [sys.executable, "-c", "import lorentzlab.cli"],
                     env=child_env(), cwd=ROOT, limit_s=INVOCATION_LIMIT_S,
                     log_path=os.path.join(WORK, "import.log"))
        times.append(out.wall_s)
        bad += not out.ok
    return statistics.median(times), bad


def traced_run(wl: Workload, seed: int, run_dir: str) -> dict:
    from lorentzlab import parallel

    timed = timed_pass(wl, seed, wl.workers, os.path.join(run_dir, "timed"))
    problems = [f"timed {o.name}: {o.problem}\n{log_tail(o.log_path)}"
                for o in timed["outcomes"] if not o.ok]
    attempted = len(timed["outcomes"])

    # a first in-process pass takes the one-off costs (lazy imports, first
    # allocations); the second, recording run_chunked, is the overhead
    # reference and gives the workers=1 chunk times
    _, _, _, bad = inprocess_pass(wl, seed, os.path.join(run_dir, "warm"))
    problems += [f"warm-up {p}" for p in bad]
    rec = ChunkRecorder()
    with Patcher() as patcher:
        rec.install(patcher)
        untraced_s, _, _, bad = inprocess_pass(wl, seed, os.path.join(run_dir, "untraced"))
    problems += [f"untraced {p}" for p in bad]
    attempted += 2 * len(wl.steps)

    serial_s = sum(c[2] for c in rec.calls)
    pools = [c for c in rec.calls if len(c[1]) > 1] if wl.workers > 1 else []
    if pools:
        parallel_s = serial_s - sum(c[2] for c in pools)
        for fn, payloads, _ in pools:
            t0 = time.perf_counter()
            parallel.run_chunked(fn, payloads, wl.workers)
            parallel_s += time.perf_counter() - t0
    else:
        parallel_s = serial_s

    tracer = Tracer()
    with Patcher() as patcher:
        install_layers(patcher, tracer)
        traced_s, fps, csv_bytes, bad = inprocess_pass(
            wl, seed, os.path.join(run_dir, "traced"))
    problems += [f"traced {p}" for p in bad]
    attempted += len(wl.steps)
    left = leftover_wrappers()
    if left:
        problems.append(f"wrappers left installed: {left}")
    for name, fp in fps.items():
        if name in timed["fingerprints"] and fp != timed["fingerprints"][name]:
            problems.append(f"traced {name}: workers=1 output differs from "
                            f"the workers={wl.workers} timed pass")

    import_s, import_bad = fresh_import_s()
    attempted += IMPORT_SAMPLES
    if import_bad:
        problems.append(f"{import_bad} fresh imports failed")
    compared, changed = drift(wl.name, seed, fps)

    tracer.write(os.path.join(WORK, f"spans-{wl.name}.json"))
    metrics = layer_metrics(tracer, wl)
    metrics.update({
        "parallel.pools_opened": len(pools),
        "parallel.wait_s": parallel_s - serial_s / wl.workers,
        "parallel.speedup": serial_s / parallel_s if parallel_s > 0 else 1.0,
        "experiments.import_s": import_s,
        "experiments.csv_bytes": csv_bytes,
        "experiments.output_drift": len(changed),
        "experiments.outputs_pinned": compared,
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
    })
    return {"metrics": metrics, "attempted": attempted, "failed": len(problems),
            "problems": problems, "changed": changed}


def layer_metrics(tracer: Tracer, wl: Workload) -> dict:
    tot = tracer.totals()
    c = tracer.counts

    def n(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def dur(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def layer(prefix):
        return sum(v[2] for k, v in tot.items() if k.startswith(prefix + "."))

    def per(x, base, scale):
        return x * scale / base if base else 0.0

    cells, queries = n("medium.generate"), c["medium.cell_queries"]
    events, jumps = c["dynamics.events"], c["kinetic.jumps"]
    steps = c["kinetic.landau_path_steps"]
    return {
        "medium.cells": cells,
        "medium.cell_queries": queries,
        "medium.cache_hit_ratio": per(queries - cells, queries, 1.0),
        "medium.us_per_cell": per(dur("medium.generate"), cells, 1e6),
        "medium.self_s": layer("medium"),
        "dynamics.trajectories": n("dynamics.run"),
        "dynamics.events": events,
        "dynamics.first_hit_calls": n("dynamics.first_hit"),
        "dynamics.us_per_first_hit": per(own("dynamics.first_hit"),
                                         n("dynamics.first_hit"), 1e6),
        "dynamics.us_per_event": per(dur("dynamics.run"), events, 1e6),
        "dynamics.classified": n("dynamics.classify"),
        "dynamics.classify_ms_per_traj": per(dur("dynamics.classify"),
                                             n("dynamics.classify"), 1e3),
        "dynamics.self_s": layer("dynamics"),
        "kinetic.paths": n("kinetic.boltzmann_path"),
        "kinetic.jumps": jumps,
        "kinetic.us_per_jump": per(own("kinetic.boltzmann_path"), jumps, 1e6),
        "kinetic.B_quadratures": n("kinetic.B_quadrature"),
        "kinetic.ms_per_B_quadrature": per(dur("kinetic.B_quadrature"),
                                           n("kinetic.B_quadrature"), 1e3),
        "kinetic.landau_path_steps": steps,
        "kinetic.ns_per_landau_path_step": per(own("kinetic.landau_vacf_msd"),
                                               steps, 1e9),
        "kinetic.self_s": layer("kinetic"),
        "rng.streams": n("rng.stream"),
        "rng.us_per_stream": per(dur("rng.stream"), n("rng.stream"), 1e6),
        "macroscale.injections": n("macroscale.injection"),
        "macroscale.ms_per_injection": per(dur("macroscale.injection"),
                                           n("macroscale.injection"), 1e3),
        "macroscale.timeouts": c["macroscale.timeouts"],
        "macroscale.heat_steps": n("macroscale.heat_step"),
        "macroscale.us_per_heat_step": per(dur("macroscale.heat_step"),
                                           n("macroscale.heat_step"), 1e6),
        "macroscale.self_s": layer("macroscale"),
        "parallel.chunks": c["parallel.chunks"],
        "stats.self_s": layer("stats"),
        "experiments.write_ms": per(dur("experiments.write_outputs"),
                                    n("experiments.write_outputs"), 1e3),
        "experiments.invocations": len(wl.steps),
        "trace.spans": len(tracer),
    }


# ---------------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lorentzlab", "cli.py")):
        print(f"no lorentzlab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        ap.error("--workload is required")

    wl = WORKLOADS[args.workload]
    bench = load_benchmark()
    env = environment(args.seed)
    run_dir = os.path.join(WORK, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    why = {w["name"]: w["why"] for w in bench["workloads"]}[wl.name]
    print(f"workload {wl.name} (workers={wl.workers}): {why}")

    if args.trace:
        import_program()
        res = traced_run(wl, args.seed, run_dir)
        wanted = bench["per_layer"]
        metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                   for m in wanted}
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
        if res["changed"]:
            print(f"  outputs changed from their pins: {', '.join(res['changed'])}")
    else:
        res = timed_run(wl, args.seed, args.seconds, run_dir)
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(describe(name, unit, res["samples"][name]))
        frac = res["failed"] / max(res["attempted"], 1)
        print(f"  {'failed_frac':<13} {frac:>12.6g} ratio "
              f"({res['failed']} of {res['attempted']} invocations)")
        compared, changed = drift(wl.name, args.seed, res["fingerprints"])
        print(f"  output drift: {len(changed)} of {compared} pinned outputs"
              + (f" changed: {', '.join(changed)}" if changed else ""))
        metrics = {m["name"]: {"value": statistics.median(res["samples"][m["name"]]),
                               "unit": units[m["name"]]}
                   for m in bench["end_to_end"]}
    shutil.rmtree(run_dir, ignore_errors=True)

    for p in res["problems"]:
        print(f"FAILED {p}", file=sys.stderr)
    env["loadavg_end"] = loadavg()
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(WORK, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "problems": res["problems"],
                   "samples": res.get("samples")}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
