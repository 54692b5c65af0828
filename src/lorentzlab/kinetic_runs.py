"""The ``diffusion`` runner: the angular diffusion alone, with no module
of the mechanical flow loaded."""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .experiments import Report
from .kinetic import _landau_vacf_msd, green_kubo_D


def run_diffusion(cfg: ExperimentConfig) -> Report:
    B, speed = cfg["B"], cfg["speed"]
    c = B / speed**2
    t_max = cfg["t"] if cfg["t"] > 0 else 10.0 / c
    dt = cfg["dt"] if cfg["dt"] > 0 else 0.01 / c
    grid, vacf, msd = _landau_vacf_msd(c, speed, cfg["paths"], dt, t_max,
                                       cfg["seed"], cfg["workers"])
    d_running = np.zeros_like(grid)
    d_running[1:] = 0.5 * np.cumsum(0.5 * (vacf[1:] + vacf[:-1]) * np.diff(grid))
    rows = [(float(grid[i]), float(msd[i]), float(vacf[i]), float(d_running[i]))
            for i in range(len(grid))]
    late = grid >= 0.5 * grid[-1]
    d_msd = float(np.polyfit(grid[late], msd[late], 1)[0]) / 4.0
    d_analytic = green_kubo_D(B=B, speed=speed, method="analytic_vacf")
    summary = {
        "D_analytic": d_analytic,
        "D_mc_vacf": float(d_running[-1]),
        "D_msd": d_msd,
        "max_route_spread": max(
            abs(float(d_running[-1]) / d_analytic - 1.0),
            abs(d_msd / d_analytic - 1.0),
        ),
        "paths": cfg["paths"],
        "dt": dt,
    }
    return Report("diffusion", ["t", "msd", "vacf", "D_running"], rows,
                  summary, cfg)
