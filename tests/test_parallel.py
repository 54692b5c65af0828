"""One pool of forked workers per run: forked when its first queued work
is collected, shared, every worker reaped; failures come back to the
parent, and no order of collection deadlocks."""

import os
import signal
import time

import pytest

from lorentzlab import parallel
from lorentzlab.cli import main
from output_hashes import TINY, TWO_CHUNKS


def test_one_pool_per_run_and_no_process_left(opened):
    with parallel.run_pool(2):
        assert parallel.run_chunked(abs, [-1], 2) == [1]  # in process
        assert [p.forks for p in opened] == [0]
        assert parallel.run_chunked(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert parallel.run_chunked(abs, [-4, -5], 2) == [4, 5]
    # each call is collected as soon as it is queued: one generation each
    assert [p.forks for p in opened] == [2]
    assert len(opened[0].children) == 4
    assert opened.unreaped() == []


def test_outside_a_run_each_call_has_its_own_pool(opened):
    with parallel.run_pool(3):  # another worker count
        assert parallel.run_chunked(abs, [-1, -2], 2) == [1, 2]
    assert parallel.run_chunked(abs, [-3, -4], 2) == [3, 4]
    assert [(p.workers, p.forks) for p in opened] == [(3, 0), (2, 1), (2, 1)]
    assert opened.unreaped() == []


def _ranges(payload):
    return payload


def _mark(payload):
    """A chunk worker that fails on its head's word, or else leaves a file
    named by its range in the head's folder after a pause."""
    folder, fail, i0, _ = payload
    if fail:
        raise ZeroDivisionError(f"chunk {i0}")
    time.sleep(0.02)
    open(os.path.join(folder, str(i0)), "w").close()


def test_queued_ensembles_collect_in_chunk_order(opened):
    with parallel.run_pool(2):
        first = parallel.queue_ensemble(_ranges, ("a",), 7, 3, 2)
        second = parallel.queue_ensemble(_ranges, ("b",), 4, 2, 2)
        assert [p.forks for p in opened] == [0]  # both on the run's pool
        assert second() == [("b", 0, 2), ("b", 2, 4)]
        assert opened[0].forks == 1  # one generation took both
        assert first() == [("a", 0, 3), ("a", 3, 6), ("a", 6, 7)]
    assert opened[0].forks == 1
    assert opened.unreaped() == []


def test_a_run_left_before_any_collection_forks_nothing(tmp_path, opened):
    with pytest.raises(KeyError):
        with parallel.run_pool(2):
            parallel.queue_ensemble(_mark, (str(tmp_path), False), 4, 1, 2)
            raise KeyError("left before collecting")
    assert [p.forks for p in opened] == [0]
    assert opened[0].children == []
    assert os.listdir(tmp_path) == []


def test_in_process_work_runs_when_collected(tmp_path):
    with parallel.run_pool(1):
        queued = parallel.queue_ensemble(_mark, (str(tmp_path), False), 4,
                                         2, 1)
        assert os.listdir(tmp_path) == []
        queued()
    assert sorted(os.listdir(tmp_path)) == ["0", "2"]


def test_a_failed_ensemble_cancels_the_queued_work(tmp_path, opened):
    # the block is left at the first failure, without waiting for the
    # 40 ranges queued behind it; the chunk's exception comes back with
    # its type and message
    with pytest.raises(ZeroDivisionError, match="^chunk 0$"):
        with parallel.run_pool(2):
            failing = parallel.queue_ensemble(_mark, (str(tmp_path), True),
                                              2, 1, 2)
            parallel.queue_ensemble(_mark, (str(tmp_path), False), 40, 1, 2)
            failing()
    assert len(os.listdir(tmp_path)) < 40
    assert opened.unreaped() == []


def _die(payload):
    """A chunk worker whose process ends mid-chunk once its range starts
    at 1: by ``os._exit``, by SIGKILL, or by a ``SystemExit`` that the
    worker turns into ``os._exit(1)`` instead of unwinding into the code
    that forked it."""
    how, i0, _ = payload
    if i0 == 1:
        if how == "exit":
            os._exit(7)
        if how == "unwind":
            raise SystemExit(5)
        os.kill(os.getpid(), signal.SIGKILL)
    return i0


@pytest.mark.parametrize("how, status", [("exit", 7), ("kill", -9),
                                         ("unwind", 1)])
def test_a_dead_worker_is_named_not_waited_for(opened, how, status):
    with pytest.raises(RuntimeError) as info:
        with parallel.run_pool(2):
            parallel.queue_ensemble(_die, (how,), 4, 1, 2)()
    (pool,) = opened
    dead = pool.children[1].pid  # range 1 is the pool's task 1
    assert str(info.value).startswith(
        f"pool worker {dead} died mid-chunk: exit status {status} ")
    assert opened.unreaped() == []


_MB = 1 << 20


def _megabyte(payload):
    """About 1 MB back for each range."""
    *_, i0, _ = payload
    return bytes([i0 % 256]) * _MB


def _expire(signum, frame):
    raise TimeoutError("the pool deadlocked")


def test_no_order_of_collection_deadlocks(opened):
    # every result (1 MB) is larger than a pipe's buffer (the tasks, with
    # their 64 KiB heads, ride the fork), and the second ensemble is
    # collected first, so the parent holds the first one's results while
    # it reads
    head = (bytes(1 << 16),)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(120)
    try:
        with parallel.run_pool(2):
            first = parallel.queue_ensemble(_megabyte, head, 200, 1, 2)
            second = parallel.queue_ensemble(_megabyte, head, 200, 1, 2)
            assert [r[0] for r in second()] == [i % 256 for i in range(200)]
            got = first()
            assert [len(r) for r in got] == [_MB] * 200
            assert [r[-1] for r in got] == [i % 256 for i in range(200)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert opened.unreaped() == []


def test_no_generation_of_workers_deadlocks_another(opened):
    # the first generation still owes 1 MB results when the second is
    # forked, and the second's ensemble is collected first, so the parent
    # reads both generations' pipes at once
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(120)
    try:
        with parallel.run_pool(2):
            small = parallel.queue_ensemble(_ranges, ("a",), 2, 1, 2)
            first = parallel.queue_ensemble(_megabyte, (), 40, 1, 2)
            assert small() == [("a", 0, 1), ("a", 1, 2)]
            (pool,) = opened
            assert all(len(c.owed) > 10 for c in pool.children)
            second = parallel.queue_ensemble(_megabyte, (), 40, 1, 2)
            assert [r[0] for r in second()] == [i % 256 for i in range(40)]
            assert pool.forks == 2
            got = first()
            assert [len(r) for r in got] == [_MB] * 40
            assert [r[-1] for r in got] == [i % 256 for i in range(40)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(pool.children) == 4
    assert opened.unreaped() == []


def _nested(payload):
    return parallel.run_chunked(abs, [-payload, payload], 2)


def test_a_chunk_opens_its_own_pool_not_the_runs(opened):
    # a worker inherits the run's pool object, but not its pipes
    with parallel.run_pool(2):
        assert parallel.run_chunked(_nested, [1, 2], 2) == [[1, 1], [2, 2]]
    assert len(opened) == 1  # the workers' pools are their own
    assert opened.unreaped() == []


# Every pooled subcommand at a size where each of its ensembles has at
# least two ranges (fick-slab at two 1,024-injection chunks, diffusion at
# two Landau chunks), and each runner with a ladder of ensembles at two
# rungs of it
_POOLED = {
    "kinetic-compare": ["--eps-ladder", "4..5", "--samples", "16",
                        "--time", "0.125"],
    "thermalization": ["--k", "4", "--times", "0.125,0.25", "--samples",
                       "16"],
    "pathology-scan": ["--eps-ladder", "3..4", "--time", "0.0625",
                       "--trajectories", "16"],
    "diffusive-scale": TINY["diffusive-scale"],
    **TWO_CHUNKS,
}


@pytest.mark.parametrize("name", sorted(_POOLED))
def test_a_run_forks_its_workers_once(name, tmp_path, opened, monkeypatch):
    # a runner queues all its ensembles before it collects the first, so
    # one generation of workers takes all of the run's work; none of it
    # runs in process
    unpooled = []

    def in_process(fn, payloads, workers=1):
        unpooled.append(len(payloads))
        return [fn(p) for p in payloads]

    monkeypatch.setattr(parallel, "run_chunked", in_process)
    assert main([name, *_POOLED[name], "--workers", "2", "--out-dir",
                 str(tmp_path)]) == 0
    assert unpooled == []
    assert [p.forks for p in opened] == [1]
    assert len(opened[0].children) == 2
    assert opened.unreaped() == []
