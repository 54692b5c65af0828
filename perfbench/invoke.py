"""Launching one process with a wall-clock limit, and checking its outputs.

Each process gets a session (process group) of its own, so a process
killed at the limit takes its pool workers with it.  Resource usage
comes from wait4, which on Linux includes every descendant the process
itself waited for: pool workers are joined by their pool, so their CPU
time is in the parent's figure and their peak resident set is in its
maximum.
"""

from __future__ import annotations

import csv
import math
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    name: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool
    log_path: str
    problem: str = ""  # empty when every check passed

    @property
    def ok(self) -> bool:
        return not self.problem


def launch(name: str, argv: list[str], *, env: dict, cwd: str,
           limit_s: float, log_path: str) -> Outcome:
    """Run argv to completion or until limit_s has passed, then kill its group."""
    box: dict = {}
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            box["t1"] = time.perf_counter()
            box["status"] = status
            box["usage"] = usage

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        waiter.join(limit_s)
        timed_out = waiter.is_alive()
        stop_group(proc.pid)
        waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(box["status"])
    usage = box["usage"]
    out = Outcome(
        name=name,
        wall_s=box["t1"] - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        timed_out=timed_out,
        log_path=log_path,
    )
    if timed_out:
        out.problem = f"killed at the {limit_s:.0f} s wall-clock limit"
    elif proc.returncode != 0:
        out.problem = f"exit code {proc.returncode}"
    return out


def stop_group(pgid: int, grace_s: float = 5.0) -> None:
    """SIGKILL every process left in the group and wait until none is."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def check_csv(path: str, header, rows: int, finite, finite_but_last=()) -> str:
    """Empty string when the CSV has the header, row count and finite
    columns expected; otherwise what is wrong."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        return f"no CSV: {exc}"
    if not table or tuple(table[0]) != tuple(header):
        return f"header {table[0] if table else None} != {list(header)}"
    body = table[1:]
    if len(body) != rows:
        return f"{len(body)} rows, expected {rows}"
    col = {c: j for j, c in enumerate(header)}
    for i, row in enumerate(body):
        if len(row) != len(header):
            return f"row {i} has {len(row)} fields"
        must = list(finite) + (list(finite_but_last) if i < rows - 1 else [])
        for c in must:
            try:
                v = float(row[col[c]])
            except ValueError:
                return f"row {i} column {c}: {row[col[c]]!r} is not a number"
            if not math.isfinite(v):
                return f"row {i} column {c} is {v}"
    return ""


def check_value(value, reference: float, rel_tol: float) -> str:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return f"value {value} is not finite"
    if abs(value / reference - 1.0) > rel_tol:
        return f"value {value} is more than {rel_tol:.0%} from {reference}"
    return ""
