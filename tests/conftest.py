"""Shared test settings.

Every property test runs under one hypothesis profile, ``lorentzlab``,
loaded here as the default: derandomized, so a run draws the same
examples every time and a failure reproduces, and without a deadline,
since one example may run whole trajectories.  A test sets only its own
example count, ``@settings(max_examples=...)``.

The ``opened`` fixture records the pools of forked workers that
``lorentzlab.parallel`` opens while a test runs, and names their workers
not yet reaped.
"""

import os

import pytest
from hypothesis import settings

from lorentzlab import parallel

settings.register_profile("lorentzlab", derandomize=True, deadline=None)
settings.load_profile("lorentzlab")


class Pools(list):
    """The pools of forked workers opened while a test runs."""

    def unreaped(self) -> list:
        """The pids of their workers that have not been reaped."""
        pids = []
        for pool in self:
            for child in pool.children:
                try:
                    os.kill(child.pid, 0)
                except ProcessLookupError:
                    continue
                pids.append(child.pid)
        return pids


@pytest.fixture
def opened(monkeypatch):
    """The pools ``parallel`` opens while the test runs (``Pools``)."""
    pools = Pools()

    class Counted(parallel._Pool):
        def _fork(self):
            pools.append(self)
            super()._fork()

    monkeypatch.setattr(parallel, "_Pool", Counted)
    return pools
