"""Call one public lorentzlab function in a fresh process and record it.

    python3 libcall.py --target lorentzlab.kinetic:green_kubo_D \
        --kwargs '{"mu": 1.0, "method": "msd", "seed": 20240901}' --out result.json

The JSON written holds the return value, its repr and the wall time of
the call alone, which plays the part of a CLI sidecar's duration_s.
"""

from __future__ import annotations

import argparse
import importlib
import json
import time


def call(target: str, kwargs: dict, out_path: str) -> None:
    module, _, func = target.partition(":")
    fn = getattr(importlib.import_module(module), func)
    t0 = time.perf_counter()
    value = fn(**kwargs)
    duration = time.perf_counter() - t0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"value": value, "repr": repr(value), "duration_s": duration}, fh)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--target", required=True)
    ap.add_argument("--kwargs", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    call(args.target, json.loads(args.kwargs), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
