"""Command line entry point: ``lorentz <subcommand> [--config file] [...]``.

Precedence: schema defaults < config file < --set pairs < explicit
flags.  Exit codes: 0 success, 2 configuration error, 3 numerical guard
tripped (stuck trajectory, regime violation, stability bound).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, build_config
from .dynamics import StuckParticleError
from .experiments import run_experiment, write_outputs
from .scattering import RegimeError


def _add_common(sp):
    sp.add_argument("--config", help="flat key = value config file")
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                    help="override one config key (repeatable)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--workers", type=int)
    sp.add_argument("--out-dir", dest="out_dir")
    sp.add_argument("--out-prefix", dest="out_prefix")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lorentz",
        description="2D random Lorentz gas laboratory: mechanical, kinetic "
                    "and macroscopic experiments with CSV + JSON outputs.",
    )
    sub = ap.add_subparsers(dest="experiment", required=True)

    sp = sub.add_parser("scatter-table",
                        help="single-barrier deflection angle table")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--samples", type=int)
    _add_common(sp)

    sp = sub.add_parser("b-divergence",
                        help="angular-diffusion coefficient vs epsilon")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--eps", dest="eps_ladder", metavar="LO..HI",
                    help="decade ladder, e.g. 1e-4..1e-12")
    _add_common(sp)

    sp = sub.add_parser("kinetic-compare",
                        help="mechanical vs jump-process ensembles")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--time", type=float)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--eps-ladder", dest="eps_ladder_k", metavar="KMIN..KMAX",
                    help="epsilon = 2^-k ladder, e.g. 4..8")
    _add_common(sp)

    sp = sub.add_parser("thermalization",
                        help="angular uniformity of the mechanical ensemble")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--times")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--k", type=int)
    _add_common(sp)

    sp = sub.add_parser("diffusion",
                        help="angular-diffusion VACF/MSD and D routes")
    sp.add_argument("--B", type=float)
    sp.add_argument("--paths", type=int)
    sp.add_argument("--t", type=float)
    _add_common(sp)

    sp = sub.add_parser("diffusive-scale",
                        help="mechanical MSD on the |log eps| time scale")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--k", type=int)
    sp.add_argument("--time", type=float)
    sp.add_argument("--trajectories", type=int)
    _add_common(sp)

    sp = sub.add_parser("fick-slab",
                        help="boundary-driven stationary slab")
    sp.add_argument("--L", type=float)
    sp.add_argument("--rho1", type=float)
    sp.add_argument("--rho2", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--eta", type=float)
    sp.add_argument("--injections", type=int)
    _add_common(sp)

    sp = sub.add_parser("pathology-scan",
                        help="recollision/interference/overlap frequencies")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--eps-ladder", dest="eps_ladder_k", metavar="KMIN..KMAX")
    sp.add_argument("--time", type=float)
    sp.add_argument("--trajectories", type=int)
    _add_common(sp)

    return ap


def _collect_overrides(args: argparse.Namespace) -> dict:
    skip = {"experiment", "config", "set"}
    overrides: dict[str, object] = {}
    for pair in args.set:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, val = pair.partition("=")
        overrides[key.strip()] = val.strip()
    for key, val in vars(args).items():
        if key in skip or val is None or key == "set":
            continue
        if key == "eps_ladder_k":
            try:
                kmin, kmax = str(val).split("..")
                overrides["kmin"], overrides["kmax"] = int(kmin), int(kmax)
            except ValueError as exc:
                raise ConfigError(f"bad ladder {val!r}; expected KMIN..KMAX") from exc
        else:
            overrides[key] = val
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_text = ""
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    file_text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        cfg = build_config(args.experiment, file_text, _collect_overrides(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg)
        csv_path, json_path = write_outputs(report, cfg["out_dir"])
    except (StuckParticleError, RegimeError, ValueError) as exc:
        # stability bounds, regime limits, geometric guards
        print(f"numerical guard tripped: {exc}", file=sys.stderr)
        return 3
    print(f"{cfg.experiment}: wrote {csv_path} and {json_path} "
          f"in {report.duration_s:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
