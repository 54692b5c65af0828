"""Command line entry point: ``lorentz <subcommand> [--config file] [...]``.

Every key of ``config.SCHEMAS`` is a flag ``--<key>`` (``_`` as ``-``),
converted and validated like a file value.  Precedence: schema defaults
< config file < --set pairs < explicit flags.  Exit codes: 0 success,
2 configuration error, 3 numerical guard tripped (stuck trajectory,
regime violation); any other error is a bug and raises.

The ``--workers`` processes are the program's only parallelism.  The
CLI runs OpenBLAS, the BLAS of numpy's wheels, on one thread unless
``OPENBLAS_NUM_THREADS`` is set: the only BLAS calls are two small
``np.polyfit``s, and an idle OpenBLAS helper thread spins for about
0.1 s of CPU in every process.  The variable is set before numpy loads
and is inherited by the pool workers.  Only OpenBLAS was measured; MKL
and Accelerate builds of numpy are not covered.
"""

from __future__ import annotations

import argparse
import os
import sys

# before the first import that loads numpy, which reads it once
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import SCHEMAS, ConfigError, build_config
from .experiments import RUNNERS, run_experiment, write_outputs
from .scattering import RegimeError, StuckParticleError


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lorentz",
        description="2D random Lorentz gas laboratory: mechanical, kinetic "
                    "and macroscopic experiments with CSV + JSON outputs.",
    )
    sub = ap.add_subparsers(dest="experiment", required=True)
    for name, schema in SCHEMAS.items():
        summary = RUNNERS[name][2]
        sp = sub.add_parser(name, help=summary, description=summary)
        sp.add_argument("--config", help="flat key = value config file")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        help="override one config key (repeatable)")
        for key, spec in schema.items():
            flags = ["--" + key.replace("_", "-")]
            if key == "eps_ladder":
                flags.append("--eps")
            sp.add_argument(*flags, dest=key, help=spec.help)
        if "kmin" in schema:
            sp.add_argument("--eps-ladder", dest="eps_ladder_k",
                            metavar="KMIN..KMAX",
                            help="epsilon = 2^-k ladder: sets kmin and kmax")
    return ap


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides: dict[str, str] = {}
    for pair in args.set:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, val = pair.partition("=")
        overrides[key.strip()] = val.strip()
    for key in SCHEMAS[args.experiment]:
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    ladder = getattr(args, "eps_ladder_k", None)
    if ladder is not None:
        try:
            overrides["kmin"], overrides["kmax"] = ladder.split("..")
        except ValueError as exc:
            raise ConfigError(f"bad ladder {ladder!r}; expected KMIN..KMAX") from exc
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
    except (StuckParticleError, RegimeError) as exc:
        print(f"numerical guard tripped: {exc}", file=sys.stderr)
        return 3
    print(f"{cfg.experiment}: wrote {csv_path} and {json_path} "
          f"in {report.duration_s:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
