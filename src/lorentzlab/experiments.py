"""The experiment registry and its driver.

``RUNNERS`` gives each subcommand's runner, by module and name, and its
one-line summary.  A runner turns a validated ExperimentConfig into a
Report: a CSV table plus a JSON-able summary.  ``run_experiment``
imports the runner's module before the run's clock starts, so a process
loads only what its subcommand runs; the load is the sidecar's
``load_s``, apart from ``duration_s``.  This module, with the two
runners that need only ``math``, loads no numpy.

Every Monte Carlo draw is keyed by (seed, item index), or by (seed,
chunk index) in the Landau ensemble's fixed-size chunks, and results
are folded in index order, so rerunning with any worker count
reproduces the output byte for byte.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field as dc_field

from . import __version__
from .config import ExperimentConfig, parse_decade_ladder
from .parallel import run_pool
from .scattering import BarrierParams, landau_B_quadrature, scattering_angle

__all__ = ["Report", "run_experiment", "write_outputs", "RUNNERS"]


@dataclass
class Report:
    experiment: str
    header: list[str]
    rows: list[tuple]
    summary: dict
    config: ExperimentConfig
    duration_s: float = 0.0
    load_s: float = 0.0
    warnings: list[str] = dc_field(default_factory=list)


def run_scatter_table(cfg: ExperimentConfig) -> Report:
    params = BarrierParams(epsilon=cfg["epsilon"], alpha=cfg["alpha"],
                           speed=cfg["speed"])
    n = cfg["samples"]
    # numpy.linspace(-1.0, 1.0, n) bit for bit: i * step - 1.0, and the
    # endpoint exact; one point is -1.0
    step = 2.0 / (n - 1) if n > 1 else 0.0
    grid = [i * step - 1.0 for i in range(n - 1)] + [1.0 if n > 1 else -1.0]
    rows = []
    n_reflected = 0
    for rho in grid:
        out = scattering_angle(rho, params)
        n_reflected += out.branch == "totally_reflected"
        rows.append((rho, out.angle, out.branch))
    summary = {
        "epsilon": cfg["epsilon"],
        "alpha": cfg["alpha"],
        "always_reflects": params.always_reflects,
        "fraction_totally_reflected": n_reflected / n,
    }
    return Report("scatter-table", ["rho", "theta", "branch"], rows, summary, cfg)


def run_b_divergence(cfg: ExperimentConfig) -> Report:
    mu, speed, alpha = cfg["mu"], cfg["speed"], cfg["alpha"]
    b_tilde = 2.0 * alpha * mu / speed**3
    rows = []
    devs = []
    for eps in parse_decade_ladder(cfg["eps_ladder"]):
        b = landau_B_quadrature(eps, alpha, mu, speed)
        over = b / abs(math.log(eps))
        rows.append((eps, b, over, b_tilde))
        devs.append(abs(over - b_tilde) / b_tilde)
    summary = {
        "B_tilde": b_tilde,
        "relative_deviation": devs,
        "deviation_monotone_improving": all(
            devs[i + 1] <= devs[i] for i in range(len(devs) - 1)
        ),
        "final_relative_deviation": devs[-1],
    }
    return Report("b-divergence",
                  ["epsilon", "B_eps", "B_eps_over_logeps", "B_tilde"],
                  rows, summary, cfg)


# subcommand: (runner module, runner, one-line summary)
RUNNERS = {
    "scatter-table": ("experiments", "run_scatter_table", "Deflection angle "
                      "across one barrier on a uniform rho grid"),
    "b-divergence": ("experiments", "run_b_divergence", "Angular-diffusion "
                     "coefficient along a decade ladder of epsilon"),
    "kinetic-compare": ("mechanical_runs", "run_kinetic_compare",
                        "Mechanical ensemble vs velocity-jump ensemble along "
                        "an eps ladder"),
    "thermalization": ("mechanical_runs", "run_thermalization",
                       "Chi-square uniformity of the mechanical angle law "
                       "over time"),
    "diffusion": ("kinetic_runs", "run_diffusion", "Angular-diffusion "
                  "transport curves and the three D routes"),
    "diffusive-scale": ("mechanical_runs", "run_diffusive_scale",
                        "Mechanical MSD on the long time scale t * |log eps| "
                        "against the angular-diffusion prediction and the "
                        "heat-equation profile"),
    "pathology-scan": ("mechanical_runs", "run_pathology_scan",
                       "Frequency of the memory-effect events along the "
                       "epsilon ladder"),
    "fick-slab": ("mechanical_runs", "run_fick_slab", "Stationary slab: "
                  "density profile, flux constancy, Fick relation"),
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    module, name, _ = RUNNERS[cfg.experiment]
    t0 = time.perf_counter()
    runner = getattr(importlib.import_module("." + module, __package__), name)
    t1 = time.perf_counter()
    with run_pool(cfg["workers"]):  # one process pool for the whole run
        report = runner(cfg)
    report.duration_s = time.perf_counter() - t1
    report.load_s = t1 - t0
    return report


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_outputs(report: Report, out_dir: str) -> tuple[str, str]:
    """CSV table + JSON sidecar; CSV bytes depend only on the config."""
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    prefix = report.config["out_prefix"]
    csv_path = os.path.join(out_dir, prefix + ".csv")
    json_path = os.path.join(out_dir, prefix + ".json")
    lines = [",".join(report.header)]
    for row in report.rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "experiment": report.experiment,
        "config_file_text": report.config.raw_text,
        "config_overrides": {k: str(v) for k, v in
                             report.config.raw_overrides.items()},
        "config_resolved": {k: report.config.values[k]
                            for k in sorted(report.config.values)},
        "seed": report.config["seed"],
        "code_version": __version__,
        "duration_s": report.duration_s,
        "load_s": report.load_s,
        "outputs": {"csv": os.path.basename(csv_path)},
        "summary": report.summary,
        "warnings": report.warnings,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
