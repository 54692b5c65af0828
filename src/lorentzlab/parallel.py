"""Deterministic work scheduling: one chunk-and-reduce driver.

Work is split into fixed-size chunks by item index; chunk results are
returned in chunk order for the caller to fold.  Because every random
draw is keyed by item index or chunk index (never by worker), the output
is bit-identical at any worker count: the pool only changes who computes
a chunk, not what it returns or the order it is folded in.  A run opens
one pool for all of its ensembles (``run_pool``) and can queue them on
it at once (``queue_ensemble``).

The pool only queues its tasks until one of them is collected.  Then it
forks its ``workers`` children, which inherit every task queued so far:
task k of the queue goes to child k mod workers, which runs its tasks
in order, writes each result up its one pipe as a length-prefixed
pickle, and leaves after the last.  The parent reads every pipe in one
``select`` loop and keeps each result until its ensemble is collected,
so no order of collection leaves a child blocked for good.  No run
loads ``multiprocessing`` or starts a thread.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
from collections import deque
from types import SimpleNamespace

__all__ = ["queue_ensemble", "run_chunked", "run_pool"]

_POOL = None  # the _Pool of the run_pool block being run, if any


def _serve(tasks: list, results: int):
    """A forked child's life: answer each ``(id, fn, payload)`` of
    ``tasks`` with ``(True, result)`` or ``(False, exception)``, pickled
    after its length in 8 bytes, on ``results``.  It leaves only by
    ``os._exit``, never into the parent's code."""
    global _POOL
    status = 1
    try:
        _POOL = None  # a chunk's own pool work opens its own pool
        with open(results, "wb") as outbox:
            for _, fn, payload in tasks:
                try:
                    body = pickle.dumps((True, fn(payload)), -1)
                except Exception as exc:
                    body = pickle.dumps((False, exc), -1)
                outbox.write(len(body).to_bytes(8, "little") + body)
                outbox.flush()
        status = 0
    finally:
        os._exit(status)


def _died(child):
    """Reap ``child``, found dead, and raise."""
    child.reaped = True
    code = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
    raise RuntimeError(f"pool worker {child.pid} died mid-chunk: exit "
                       f"status {code} (negative: the signal that ended it)")


class _Pool:
    """A run's pool: the tasks queued and not yet forked, as ``(id, fn,
    payload)``; the children forked so far, each with its pid, the
    parent's end of its result pipe, the bytes read from it not yet
    decoded and the ids of the results it still owes; and the results not
    yet collected, by task id."""

    def __init__(self, workers: int):
        self.workers, self.queued, self.children = workers, [], []
        self.done, self.n = {}, 0

    def _fork(self):
        """Fork ``workers`` children, which share out the queued tasks.
        Each write end is closed before the next fork, so only its own
        child holds it and EOF means that child is gone."""
        queued, self.queued = self.queued, []
        for k in range(self.workers):
            share = queued[k::self.workers]
            results, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(share, write)
            os.close(write)
            self.children.append(SimpleNamespace(
                pid=pid, results=results, inbox=bytearray(), reaped=False,
                owed=deque(i for i, _, _ in share)))

    def submit(self, fn, payloads: list):
        """Queue ``fn`` on each payload; returns the function that waits
        for the results, in payload order."""
        ids = range(self.n, self.n + len(payloads))
        self.n = ids.stop
        self.queued += [(i, fn, p) for i, p in zip(ids, payloads)]
        return lambda: self._collect(ids)

    def _collect(self, ids: range) -> list:
        if self.queued and self.queued[0][0] <= ids.start:
            self._fork()  # the ensemble is still queued
        while any(i not in self.done for i in ids):
            self._pump()
        outs = [self.done.pop(i) for i in ids]
        for ok, value in outs:
            if not ok:
                raise value
        return [value for _, value in outs]

    def _pump(self):
        """Wait until a result pipe has bytes (or EOF); read what every
        ready pipe has, decoding each whole result."""
        busy = {c.results: c for c in self.children if c.owed}
        for fd in select.select(list(busy), [], [])[0]:
            child, got = busy[fd], os.read(fd, 1 << 16)
            if not got:
                _died(child)
            buf = child.inbox
            buf += got
            while len(buf) >= 8:
                end = 8 + int.from_bytes(buf[:8], "little")
                if len(buf) < end:
                    break
                self.done[child.owed.popleft()] = pickle.loads(buf[8:end])
                del buf[:end]

    def close(self):
        """Reap every child; one that still owes results (only a failure
        leaves any) is killed first, the others leave after their last."""
        for child in self.children:
            os.close(child.results)
            if not child.reaped:
                if child.owed:
                    import signal  # only a failure needs it
                    os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)


@contextlib.contextmanager
def run_pool(workers: int):
    """Within the block, every ``run_chunked`` call and queued ensemble at
    ``workers`` > 1 runs on one pool of forked workers, forked when the
    first queued work is collected and closed when the block ends: each
    worker is reaped, and one with work still owed is killed first (only
    an exception leaves any).  At one worker no pool is opened."""
    global _POOL
    pool = _Pool(workers) if workers > 1 else None
    outer, _POOL = _POOL, pool
    try:
        yield pool
    finally:
        _POOL = outer
        if pool is not None:
            pool.close()


def run_chunked(fn, payloads: list, workers: int = 1):
    """Apply ``fn`` to each payload, in order; maybe on a pool of forked
    workers: the enclosing ``run_pool``'s at the same worker count, else
    one of its own.  Returns the list of results in payload order
    regardless of scheduling."""
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with contextlib.ExitStack() as stack:
        pool = _POOL
        if pool is None or pool.workers != workers:
            pool = stack.enter_context(run_pool(workers))
        return pool.submit(fn, payloads)()


def queue_ensemble(fn, head: tuple, n: int, chunk: int, workers: int = 1):
    """Queue chunk worker ``fn`` over items 0..n-1 in ``chunk``-sized
    index ranges, payload ``head + (i0, i1)``, on the enclosing
    ``run_pool``'s pool at this worker count, else to run through
    ``run_chunked`` when collected: returns the collector (chunk order)."""
    payloads = [head + (i0, min(i0 + chunk, n)) for i0 in range(0, n, chunk)]
    pool = _POOL
    if workers <= 1 or len(payloads) <= 1 or pool is None or (
            pool.workers != workers):
        return lambda: run_chunked(fn, payloads, workers)
    return pool.submit(fn, payloads)
