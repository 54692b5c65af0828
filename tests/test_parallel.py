"""One process pool per run: opened on first need, shared, shut down."""

import multiprocessing
import os
import time
from concurrent import futures

import pytest

from lorentzlab import parallel


@pytest.fixture
def opened(monkeypatch):
    """The process pools opened while the test runs."""
    pools = []

    class Counted(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Counted)
    return pools


def test_one_pool_per_run_and_no_process_left(opened):
    with parallel.run_pool(2):
        assert parallel.run_chunked(abs, [-1], 2) == [1]  # in process
        assert opened == []
        assert parallel.run_chunked(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert parallel.run_chunked(abs, [-4, -5], 2) == [4, 5]
    assert len(opened) == 1
    assert multiprocessing.active_children() == []


def test_outside_a_run_each_call_has_its_own_pool(opened):
    with parallel.run_pool(3):  # another worker count
        assert parallel.run_chunked(abs, [-1, -2], 2) == [1, 2]
    assert parallel.run_chunked(abs, [-3, -4], 2) == [3, 4]
    assert len(opened) == 2
    assert multiprocessing.active_children() == []


def _ranges(payload):
    return payload


def _mark(payload):
    """A chunk worker that fails on its head's word, or else leaves a file
    named by its range in the head's folder after a pause."""
    folder, fail, i0, _ = payload
    if fail:
        raise ZeroDivisionError(i0)
    time.sleep(0.02)
    open(os.path.join(folder, str(i0)), "w").close()


def test_queued_ensembles_collect_in_chunk_order(opened):
    with parallel.run_pool(2):
        first = parallel.queue_ensemble(_ranges, ("a",), 7, 3, 2)
        second = parallel.queue_ensemble(_ranges, ("b",), 4, 2, 2)
        assert len(opened) == 1  # both on the run's pool, before collection
        assert second() == [("b", 0, 2), ("b", 2, 4)]
        assert first() == [("a", 0, 3), ("a", 3, 6), ("a", 6, 7)]
    assert multiprocessing.active_children() == []


def test_in_process_work_runs_when_collected(tmp_path):
    with parallel.run_pool(1):
        queued = parallel.queue_ensemble(_mark, (str(tmp_path), False), 4,
                                         2, 1)
        assert os.listdir(tmp_path) == []
        queued()
    assert sorted(os.listdir(tmp_path)) == ["0", "2"]


def test_a_failed_ensemble_cancels_the_queued_work(tmp_path, opened):
    # the block is left at the first failure, without waiting for the
    # 40 ranges queued behind it
    with pytest.raises(ZeroDivisionError):
        with parallel.run_pool(2):
            failing = parallel.queue_ensemble(_mark, (str(tmp_path), True),
                                              2, 1, 2)
            parallel.queue_ensemble(_mark, (str(tmp_path), False), 40, 1, 2)
            failing()
    assert len(os.listdir(tmp_path)) < 40
    assert multiprocessing.active_children() == []
