"""Failure accounting: a non-zero exit and a process killed at the limit
both count as failed invocations, and the killed process group is gone."""

import math
import os
import time

import pytest

import run
from invoke import check_csv
from workloads import Lib, Workload

HERE = os.path.dirname(os.path.abspath(__file__))


def _gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(")")[-1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_nonzero_exit_and_timeout_are_counted(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", HERE)
    monkeypatch.setattr(run, "INVOCATION_LIMIT_S", 1.0)
    pid_file = tmp_path / "grandchild.pid"
    wl = Workload("broken", 1, (
        Lib("exits", "fake_target:exit_with", (("code", 3),), 1.0, 0.1),
        Lib("hangs", "fake_target:hang", (("pid_file", str(pid_file)),), 1.0, 0.1),
    ))
    t0 = time.monotonic()
    res = run.timed_run(wl, seed=1, seconds=60, run_dir=str(tmp_path / "run"))
    assert time.monotonic() - t0 < 30
    assert (res["attempted"], res["failed"]) == (2, 2)
    assert "exit code 3" in res["problems"][0]
    assert "wall-clock limit" in res["problems"][1]
    deadline = time.monotonic() + 5
    while not _gone(int(pid_file.read_text())) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(int(pid_file.read_text()))


def test_csv_check(tmp_path):
    path = tmp_path / "t.csv"
    header = ("x", "y")
    path.write_text("x,y\n1.0,2.0\n3.0,nan\n")
    assert check_csv(str(path), header, 2, ("x",), ("y",)) == ""
    assert "row 1 column y" in check_csv(str(path), header, 2, ("x", "y"))
    assert "rows" in check_csv(str(path), header, 3, ("x",))
    assert "header" in check_csv(str(path), ("x", "z"), 2, ("x",))
    path.write_text("x,y\n1.0,inf\n3.0,nan\n")
    assert "row 0 column y" in check_csv(str(path), header, 2, ("x",), ("y",))


@pytest.mark.parametrize("n, expected", [
    (1, None), (10, None), (11, (100 / 11, 0)), (20, (50.0, 9)), (100, (90.0, 89)),
])
def test_tail_percentile_leaves_ten_samples_above(n, expected):
    samples = list(range(n))[::-1]
    got = run.tail(samples)
    if expected is None:
        assert got is None
        return
    assert math.isclose(got[0], expected[0]) and got[1] == expected[1]
    assert sum(s > got[1] for s in samples) == 10
