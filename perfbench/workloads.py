"""The benchmark's workloads: which `lorentz` invocations and library calls
make up one pass, and what a correct output of each looks like.

Sizes are fixed here; only the seed comes from the command line.  Why
each workload was chosen is recorded in BENCHMARK.json.  Every
invocation writes a CSV whose header and row count are known in advance,
so the output check needs no reference run.
"""

from __future__ import annotations

from dataclasses import dataclass

PINNED_SEED = 20240901


@dataclass(frozen=True)
class Cli:
    """One `lorentz <subcommand>` invocation."""

    name: str
    argv: tuple[str, ...]
    header: tuple[str, ...]
    rows: int
    # columns that must be finite in every row, and those that must be
    # finite in every row but the last (fick-slab has one face fewer
    # than bins, so its last flux cell is NaN by design)
    finite: tuple[str, ...]
    finite_but_last: tuple[str, ...] = ()


@dataclass(frozen=True)
class Lib:
    """One call of a public library function, in a process of its own."""

    name: str
    target: str  # "module:function"
    kwargs: tuple[tuple[str, object], ...]
    # the result must be finite and within `rel_tol` of `reference`
    reference: float
    rel_tol: float


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    steps: tuple[Cli | Lib, ...]


_KC_COLS = ("epsilon", "tv_angle", "tv_noise_mean", "tv_noise_hi",
            "l1_spatial", "l1_noise", "mech_collision_rate", "jump_rate")
_PS_COLS = ("epsilon", "frac_recollision", "frac_interference", "frac_overlap",
            "mean_collisions", "p_any_recollision_interference", "p_any_overlap")

# Hard-disk jump process at rate 2*mu*speed: D = speed^2 / (2 nu) with
# nu = rate * (1 - E[cos theta]) = 2 * 4/3, so D = 3/16.  At 6000 paths
# the Monte Carlo routes scatter by a few percent around it; the 25%
# band only catches a broken estimator.
_GK_D = 3.0 / 16.0
_GK_PATHS = 6000

MECH = Workload(
    name="mech",
    workers=2,
    steps=(
        Cli("kinetic-compare",
            ("kinetic-compare", "--eps-ladder", "6..8", "--samples", "2048",
             "--time", "0.125"),
            _KC_COLS, 3, _KC_COLS),
        Cli("thermalization",
            ("thermalization", "--k", "8", "--times", "0.03125,0.0625,0.125",
             "--samples", "2048"),
            ("t", "chi2", "p_value"), 3, ("t", "chi2", "p_value")),
        Cli("pathology-scan",
            ("pathology-scan", "--eps-ladder", "5..8", "--time", "0.0625",
             "--trajectories", "2048"),
            _PS_COLS, 4, _PS_COLS),
        Cli("diffusive-scale",
            ("diffusive-scale", "--k", "8", "--time", "0.03125",
             "--trajectories", "2048"),
            ("t", "msd", "msd_ci95"), 16, ("t", "msd", "msd_ci95")),
    ),
)

SLAB = Workload(
    name="slab",
    workers=1,
    steps=(
        Cli("fick-slab",
            ("fick-slab", "--injections", "4096"),
            ("x1_bin", "rho_hat", "rho_ci", "J_hat", "J_ci"), 16,
            ("x1_bin", "rho_hat", "rho_ci"), ("J_hat", "J_ci")),
    ),
)

KINETIC = Workload(
    name="kinetic",
    workers=1,
    steps=(
        Cli("diffusion", ("diffusion", "--paths", "8192"),
            ("t", "msd", "vacf", "D_running"), 1001,
            ("t", "msd", "vacf", "D_running")),
        Cli("b-divergence", ("b-divergence",),
            ("epsilon", "B_eps", "B_eps_over_logeps", "B_tilde"), 9,
            ("epsilon", "B_eps", "B_eps_over_logeps", "B_tilde")),
        Cli("scatter-table", ("scatter-table",),
            ("rho", "theta", "branch"), 401, ("rho", "theta")),
        Lib("green_kubo_mc", "lorentzlab.kinetic:green_kubo_D",
            (("mu", 1.0), ("method", "monte_carlo"), ("n_paths", _GK_PATHS)),
            _GK_D, 0.25),
        Lib("green_kubo_msd", "lorentzlab.kinetic:green_kubo_D",
            (("mu", 1.0), ("method", "msd"), ("n_paths", _GK_PATHS)),
            _GK_D, 0.25),
    ),
)

WORKLOADS = {w.name: w for w in (MECH, SLAB, KINETIC)}
