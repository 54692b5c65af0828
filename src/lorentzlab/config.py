"""Experiment configuration: flat key = value files, schema-validated.

Every experiment has a fixed key schema; unknown keys are rejected so a
typo cannot silently fall back to a default.  The raw file text is
echoed into the run's JSON metadata, and the resolved typed values are
what the experiment actually consumed, so a report is always
re-runnable from its own sidecar.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field

__all__ = ["ConfigError", "ExperimentConfig", "SCHEMAS", "parse_config_file",
           "build_config", "parse_decade_ladder", "parse_float_list"]


class ConfigError(ValueError):
    """Bad key, bad value, or malformed config file (exit code 2)."""


# Most expected scatterer centers in one field cell at a run's coarsest
# epsilon.  The cell generator draws a mean above 64 as halves, one
# after the other, so its work grows with the mean and a mean of 1e300
# never ends; the densest run any test or benchmark makes has about 32.
MAX_CENTERS_PER_CELL = 4096.0


@dataclass(frozen=True)
class Key:
    type: type
    default: object
    help: str = ""


_COMMON = {
    "seed": Key(int, 20240901, "master seed; every stream derives from it"),
    "workers": Key(int, 1, "worker processes; output is identical at any count"),
    "out_dir": Key(str, ".", "directory for the CSV and JSON outputs"),
    "out_prefix": Key(str, "", "output file stem (default: experiment name)"),
}

_MEDIUM = {
    "alpha": Key(float, 0.25, "potential exponent"),
    "mu": Key(float, 1.0, "base intensity"),
    "speed": Key(float, 1.0, "particle speed"),
}

SCHEMAS: dict[str, dict[str, Key]] = {
    "scatter-table": {
        **_COMMON,
        "alpha": Key(float, 0.25, "potential exponent in (0, 1/2]"),
        "epsilon": Key(float, 2.0**-6, "barrier radius scale"),
        "speed": Key(float, 1.0, "particle speed"),
        "samples": Key(int, 401, "rho grid points on [-1, 1]"),
    },
    "b-divergence": {
        **_COMMON,
        **_MEDIUM,
        "eps_ladder": Key(str, "1e-4..1e-12", "decade ladder lo..hi"),
    },
    "kinetic-compare": {
        **_COMMON,
        **_MEDIUM,
        "kmin": Key(int, 4, "coarsest epsilon = 2^-kmin"),
        "kmax": Key(int, 8, "finest epsilon = 2^-kmax"),
        "time": Key(float, 1.0, "kinetic time horizon"),
        "samples": Key(int, 10_000, "trajectories/paths per ladder point"),
        "angle_bins": Key(int, 64, "bins for the angular TV distance"),
        "x_bins": Key(int, 40, "bins for the spatial L1 distance"),
    },
    "thermalization": {
        **_COMMON,
        **_MEDIUM,
        "k": Key(int, 8, "epsilon = 2^-k"),
        "times": Key(str, "0.5,1,2", "comma list of kinetic times"),
        "samples": Key(int, 10_000, "trajectories per time"),
        "angle_bins": Key(int, 32, "chi-square bins"),
        "initial": Key(str, "delta", "initial angle law: delta | uniform"),
    },
    "diffusion": {
        **_COMMON,
        "B": Key(float, 1.0, "angular diffusion coefficient"),
        "speed": Key(float, 1.0, "particle speed"),
        "paths": Key(int, 100_000, "Monte Carlo paths"),
        "t": Key(float, 0.0, "horizon; 0 means 10 correlation times"),
        "dt": Key(float, 0.0, "time step; 0 means 1/100 correlation time"),
    },
    "diffusive-scale": {
        **_COMMON,
        **_MEDIUM,
        "k": Key(int, 8, "epsilon = 2^-k"),
        "time": Key(float, 1.0, "diffusive horizon in units of |log eps|"),
        "trajectories": Key(int, 2000, "mechanical trajectories"),
        "checkpoints": Key(int, 16, "MSD checkpoint count"),
        "heat_bins": Key(int, 24, "grid cells per axis for the heat check"),
        "sigma0": Key(float, 0.4, "st.dev. of the Gaussian initial bump"),
    },
    "pathology-scan": {
        **_COMMON,
        **_MEDIUM,
        "kmin": Key(int, 3, "coarsest epsilon = 2^-kmin"),
        "kmax": Key(int, 8, "finest epsilon = 2^-kmax"),
        "time": Key(float, 0.5, "macroscopic time per trajectory"),
        "trajectories": Key(int, 2000, "trajectories per ladder point"),
    },
    "fick-slab": {
        **_COMMON,
        "L": Key(float, 1.0, "slab width"),
        "rho1": Key(float, 2.0, "left reservoir density"),
        "rho2": Key(float, 1.0, "right reservoir density"),
        "mu": Key(float, 1.0, "base intensity"),
        "epsilon": Key(float, 2.0**-6, "disk radius scale"),
        "eta": Key(float, 2.0, "slow divergence factor"),
        "injections": Key(int, 120_000, "boundary injections"),
        "bins": Key(int, 16, "profile bins across the slab"),
        "t_max": Key(float, 500.0, "per-trajectory time guard"),
        "y_period_cells": Key(int, 16, "field period in cells"),
    },
}


@dataclass
class ExperimentConfig:
    """Resolved configuration for one run."""

    experiment: str
    values: dict
    raw_text: str = ""
    raw_overrides: dict = dc_field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]


def _convert(experiment: str, key: str, raw: str):
    schema = SCHEMAS[experiment]
    if key not in schema:
        raise ConfigError(f"unknown key {key!r} for experiment {experiment!r}")
    typ = schema[key].type
    try:
        if typ is int:
            val = int(raw)
        elif typ is float:
            val = float(raw)
        else:
            val = raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    return val


def parse_config_file(text: str) -> dict[str, str]:
    """Flat key = value lines; '#' comments; later keys win."""
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, val = stripped.partition("=")
        out[key.strip()] = val.strip()
    return out


def build_config(experiment: str, file_text: str = "",
                 overrides: dict | None = None) -> ExperimentConfig:
    """Defaults <- config file <- overrides, all schema-checked."""
    if experiment not in SCHEMAS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    schema = SCHEMAS[experiment]
    values = {k: d.default for k, d in schema.items()}
    raw = parse_config_file(file_text) if file_text else {}
    declared = raw.pop("experiment", None)
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config file is for {declared!r}, not {experiment!r}"
        )
    for k, v in raw.items():
        values[k] = _convert(experiment, k, v)
    for k, v in (overrides or {}).items():
        values[k] = _convert(experiment, k, str(v))
    if not values["out_prefix"]:
        values["out_prefix"] = experiment
    _validate(experiment, values)
    return ExperimentConfig(experiment, values, file_text, dict(overrides or {}))


def _validate(experiment: str, v: dict):
    # an infinite mean or scale never ends a run: the cell generator
    # halves an infinite Poisson mean forever
    for k, val in v.items():
        if SCHEMAS[experiment][k].type is float and not math.isfinite(val):
            raise ConfigError(f"{k} must be finite, got {val}")

    def positive(*keys):
        for k in keys:
            if k in v and not v[k] > 0:
                raise ConfigError(f"{k} must be positive, got {v[k]}")

    positive("speed", "mu", "epsilon", "eta", "L", "samples", "trajectories",
             "injections", "paths", "angle_bins", "x_bins", "heat_bins",
             "sigma0", "t_max", "B", "time", "y_period_cells")
    # the late-half MSD fit and the flux fit over bins - 1 faces need 3
    # points, the slab's two reservoirs an injection each; epsilon = 2^-k
    # must lie in (0, 1)
    for k, least in (("checkpoints", 4), ("bins", 4), ("injections", 2),
                     ("k", 1), ("kmin", 1)):
        if k in v and v[k] < least:
            raise ConfigError(f"{k} must be >= {least}, got {v[k]}")
    if "alpha" in v and not (0.0 < v["alpha"] <= 0.5):
        raise ConfigError(f"alpha must be in (0, 1/2], got {v['alpha']}")
    if experiment == "scatter-table" and not (0.0 < v["epsilon"] < 1.0):
        raise ConfigError(f"epsilon must be in (0, 1), got {v['epsilon']}")
    for k in ("t", "dt"):
        if v.get(k, 0.0) < 0.0:
            raise ConfigError(f"{k} must be >= 0 (0 selects the default)")
    if experiment == "diffusion":
        # resolved as run_diffusion resolves them; the late-half MSD fit
        # needs 2 points after t = 0
        c = v["B"] / v["speed"] ** 2
        t = v["t"] if v["t"] > 0 else 10.0 / c
        dt = v["dt"] if v["dt"] > 0 else 0.01 / c
        if round(t / dt) < 2:
            raise ConfigError(f"t = {t:g} must span at least 2 steps of "
                              f"dt = {dt:g}")
    if "kmin" in v and v["kmin"] > v["kmax"]:
        raise ConfigError("kmin must be <= kmax")
    if v["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    if v["workers"] > 1 and not hasattr(os, "fork"):
        raise ConfigError("workers > 1 needs os.fork, which this platform "
                          "lacks; use workers = 1")
    if experiment == "thermalization":
        if v["initial"] not in ("delta", "uniform"):
            raise ConfigError("initial must be 'delta' or 'uniform'")
        # a one-bin chi-square has no degree of freedom
        if v["angle_bins"] < 2:
            raise ConfigError(
                f"angle_bins must be >= 2, got {v['angle_bins']}")
    if "times" in v and not min(parse_float_list(v["times"]), default=-1) >= 0:
        raise ConfigError(f"times must list times >= 0, got {v['times']!r}")
    if "eps_ladder" in v:
        parse_decade_ladder(v["eps_ladder"])  # raises ConfigError if malformed
    per_cell = _centers_per_cell(experiment, v)
    if per_cell > MAX_CENTERS_PER_CELL:
        raise ConfigError(
            f"{per_cell:g} expected centers per field cell at the coarsest "
            f"epsilon exceed {MAX_CENTERS_PER_CELL:g}")


def _centers_per_cell(experiment: str, v: dict) -> float:
    """mu_eff * (4 eps)**2, the mean count of a field cell of side
    4 eps, at the run's coarsest epsilon; 0 for a run with no field.
    Written so that no epsilon, however small, is divided by."""
    if experiment == "fick-slab":  # mu_eff = mu eta / eps
        return 16.0 * v["mu"] * v["eta"] * v["epsilon"]
    k = v.get("kmin", v.get("k"))
    if k is None:
        return 0.0
    # barrier scaling, mu_eff = mu eps^-(1 + 2 alpha)
    return 16.0 * v["mu"] * (2.0 ** -k) ** (1.0 - 2.0 * v["alpha"])


def parse_decade_ladder(spec: str) -> list[float]:
    """'1e-4..1e-12' -> [1e-4, 1e-5, ..., 1e-12]; every epsilon below 1."""
    try:
        lo_s, hi_s = spec.split("..")
        k0 = round(-math.log10(float(lo_s)))
        k1 = round(-math.log10(float(hi_s)))
    except ValueError as exc:
        raise ConfigError(f"bad ladder spec {spec!r}") from exc
    if k1 < k0:
        k0, k1 = k1, k0
    if k0 < 1:
        raise ConfigError(f"ladder {spec!r} reaches epsilon = {10.0**-k0:g}; "
                          "epsilon must be in (0, 1)")
    return [10.0**-k for k in range(k0, k1 + 1)]


def parse_float_list(spec: str) -> list[float]:
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad number list {spec!r}") from exc
