"""The byte contract: the sha256 of every subcommand's CSV and sidecar
``summary`` at small configs, and the ``repr`` of ``green_kubo_D`` on
its Monte Carlo routes, against the values in ``output_hashes.json``.

    PYTHONPATH=src python tests/output_hashes.py           # compare
    PYTHONPATH=src python tests/output_hashes.py --write   # rewrite the file

The comparison exits 1 on a difference and names the values and the
host fields that differ.  ``test_output_hashes.py`` runs it in Tier-1.
The Landau paths and the jump law use numpy's ``cos``, ``sin`` and
``exp``, whose last bit can depend on the numpy version and the CPU
features it dispatches to, so these are recorded beside the values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile

HASH_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "output_hashes.json")
SEED = 20240901
WORKERS = (1, 2)

# Every subcommand at a size that runs in well under a second; a new
# subcommand fails test_package until it has an entry here.  The
# diffusive-scale and fick-slab walks are long enough that their CSVs
# move when one math.hypot of the flight kernel becomes np.hypot, which
# differs in the last bit for about 0.6% of arguments.
TINY = {
    "scatter-table": ["--samples", "5"],
    "b-divergence": ["--eps-ladder", "1e-4..1e-5"],
    "kinetic-compare": ["--eps-ladder", "4..4", "--samples", "16",
                        "--time", "0.125"],
    "thermalization": ["--k", "4", "--times", "0.125", "--samples", "16"],
    "diffusion": ["--paths", "16"],
    "diffusive-scale": ["--k", "6", "--time", "0.5",
                        "--trajectories", "64"],
    "pathology-scan": ["--eps-ladder", "3..3", "--time", "0.0625",
                       "--trajectories", "16"],
    "fick-slab": ["--injections", "64"],
}

# Runs of two chunks (two 1,024-injection slab chunks, two 4,096-path
# Landau chunks), so that at workers 2 the chunks go to a pool and the
# run adds two chunk sums
TWO_CHUNKS = {
    "fick-slab": ["--injections", "1100"],
    "diffusion": ["--paths", "4100", "--dt", "0.1"],
}

# A walk long enough to make many refracted chords, so that its CSV moves
# when the flight kernel's libm pow for a chord's squared impact parameter
# becomes numpy's ``** 2`` (different in the last bit for about 0.1% of
# arguments); TINY's walks keep their bytes under that change
LONG_WALK = {
    "diffusive-scale": ["--k", "6", "--time", "1.0",
                        "--trajectories", "128"],
}

# The two math-only subcommands at their default sizes, as the benchmark
# runs them: a 401-point rho grid, whose points TINY's 5-point grid
# leaves exact, and the nine-rung B ladder
DEFAULT_SIZE = {
    "scatter-table": ["--samples", "401"],
    "b-divergence": ["--eps-ladder", "1e-4..1e-12"],
}

# green_kubo_D's two samplers (Landau: B; jump process: mu), each on its
# two Monte Carlo methods
GREEN_KUBO = [{**route, "speed": 1.2, "method": method, "n_paths": 64,
               "seed": 9}
              for route in ({"B": 1.3}, {"mu": 0.8})
              for method in ("monte_carlo", "msd")]

# The jump sampler's two Monte Carlo methods as the benchmark's kinetic
# workload calls them: 6,000 paths make many draw blocks, each split into
# many grid row blocks with a partial last one (GREEN_KUBO's 64 paths
# make one draw block of exactly two)
KINETIC_SIZE = [{"mu": 1.0, "method": method, "n_paths": 6000, "seed": SEED}
                for method in ("monte_carlo", "msd")]


def host() -> dict:
    """The fields of this host that an output's last bit can depend on."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
        simd = [f for f in umath.__cpu_dispatch__
                if umath.__cpu_features__.get(f)]
    except (ImportError, AttributeError):  # private to numpy; may move
        simd = None
    return {"numpy": np.__version__, "numpy_simd": simd,
            "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system(),
            "libc": "-".join(platform.libc_ver())}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute(out_dir: str) -> dict:
    """Run every subcommand at TINY, and those of TWO_CHUNKS, LONG_WALK and
    DEFAULT_SIZE, at seed SEED and each of WORKERS through ``cli.main``,
    writing under ``out_dir``, and return the values the hash file
    records."""
    from lorentzlab import cli
    from lorentzlab.kinetic import green_kubo_D

    values = {}
    for runs, tag in ((TINY, ""), (TWO_CHUNKS, " two-chunk"),
                      (LONG_WALK, " long-walk"),
                      (DEFAULT_SIZE, " default-size")):
        for name, argv in runs.items():
            for workers in WORKERS:
                label = f"{name}{tag} workers={workers}"
                run_dir = os.path.join(out_dir, label.replace(" ", "-"))
                status = cli.main([name, *argv, "--seed", str(SEED),
                                   "--workers", str(workers),
                                   "--out-dir", run_dir])
                if status != 0:
                    raise RuntimeError(f"{label} exited {status}")
                prefix = os.path.join(run_dir, name)
                with open(prefix + ".csv", "rb") as fh:
                    values[f"{label} csv"] = _sha256(fh.read())
                with open(prefix + ".json", encoding="utf-8") as fh:
                    summary = json.load(fh)["summary"]
                values[f"{label} summary"] = _sha256(
                    json.dumps(summary, sort_keys=True).encode())
    for kwargs in (*GREEN_KUBO, *KINETIC_SIZE):
        key = " ".join(["green_kubo_D", *(f"{k}={v}"
                                          for k, v in kwargs.items())])
        values[key] = repr(green_kubo_D(**kwargs))
    return values


def check(out_dir: str) -> str:
    """What differs between the hash file and a ``compute`` run under
    ``out_dir`` on this host, or "" if nothing does."""
    with open(HASH_FILE, encoding="utf-8") as fh:
        recorded = json.load(fh)
    values, this_host = compute(out_dir), host()
    keys = sorted(set(recorded["values"]) | set(values))
    changed = [k for k in keys if recorded["values"].get(k) != values.get(k)]
    if not changed:
        return ""
    lines = [f"{len(changed)} of {len(keys)} values differ from "
             f"{os.path.basename(HASH_FILE)}:"]
    lines += [f"  {k}: recorded {recorded['values'].get(k)}, "
              f"got {values.get(k)}" for k in changed]
    fields = [f for f in sorted(set(recorded["host"]) | set(this_host))
              if recorded["host"].get(f) != this_host.get(f)]
    if fields:
        lines.append("host fields that differ: " + "; ".join(
            f"{f} recorded {recorded['host'].get(f)!r}, "
            f"here {this_host.get(f)!r}" for f in fields))
    else:
        lines.append("host fields that differ: none recorded")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help=f"rewrite {os.path.basename(HASH_FILE)} from "
                         f"this run")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as out_dir:
        if not args.write:
            report = check(out_dir)
            print(report or "every value matches")
            return 1 if report else 0
        values = compute(out_dir)
    with open(HASH_FILE, "w", encoding="utf-8") as fh:
        json.dump({"host": host(), "values": values}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(values)} values to {HASH_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
