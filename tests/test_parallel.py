"""One process pool per run: opened on first need, shared, shut down."""

import multiprocessing
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
