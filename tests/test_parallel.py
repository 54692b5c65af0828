"""One pool of forked workers per run: opened on first need, shared,
every worker reaped; failures come back to the parent, and no order of
collection deadlocks."""

import os
import signal
import time

import pytest

from lorentzlab import parallel


def test_one_pool_per_run_and_no_process_left(opened):
    with parallel.run_pool(2):
        assert parallel.run_chunked(abs, [-1], 2) == [1]  # in process
        assert opened == []
        assert parallel.run_chunked(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert parallel.run_chunked(abs, [-4, -5], 2) == [4, 5]
    assert len(opened) == 1
    assert len(opened[0].children) == 2
    assert opened.unreaped() == []


def test_outside_a_run_each_call_has_its_own_pool(opened):
    with parallel.run_pool(3):  # another worker count
        assert parallel.run_chunked(abs, [-1, -2], 2) == [1, 2]
    assert parallel.run_chunked(abs, [-3, -4], 2) == [3, 4]
    assert len(opened) == 2
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
        assert len(opened) == 1  # both on the run's pool, before collection
        assert second() == [("b", 0, 2), ("b", 2, 4)]
        assert first() == [("a", 0, 3), ("a", 3, 6), ("a", 6, 7)]
    assert opened.unreaped() == []


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
    # every task (64 KiB of head) and every result (1 MB) is larger than
    # a pipe's buffer, and the second ensemble is collected first, so the
    # parent holds the first one's results while it sends and reads
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


def _nested(payload):
    return parallel.run_chunked(abs, [-payload, payload], 2)


def test_a_chunk_opens_its_own_pool_not_the_runs(opened):
    # a worker inherits the run's pool object, but not its pipes
    with parallel.run_pool(2):
        assert parallel.run_chunked(_nested, [1, 2], 2) == [[1, 1], [2, 2]]
    assert len(opened) == 1  # the workers' pools are their own
    assert opened.unreaped() == []
