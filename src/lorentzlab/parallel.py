"""Deterministic work scheduling: one chunk-and-reduce driver.

Work is split into fixed-size chunks by item index; chunk results are
returned in chunk order for the caller to fold.  Because every random
draw is keyed by item index or chunk index (never by worker), the output
is bit-identical at any worker count: the pool only changes who computes
a chunk, not what it returns or the order it is folded in.  A run opens
one pool for all of its ensembles (``run_pool``) and can queue them on
it at once (``queue_ensemble``).

The pool forks its ``workers`` children at its first task, after the
runner's import.  Its task k goes to child k mod workers, as a
length-prefixed pickle down one pipe; the child runs its tasks in order
and sends each result back up another.  The parent sends and reads in
one ``select`` loop, so it never blocks on a task while a child blocks
on a result, and keeps each result until its ensemble is collected.  No
run loads ``multiprocessing`` or starts a thread.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import pickle
import select
from collections import deque
from types import SimpleNamespace

__all__ = ["queue_ensemble", "run_chunked", "run_pool"]

# the _Pool of the run_pool block being run, if any
_POOL = contextvars.ContextVar("pool", default=None)


def _frame(obj) -> bytes:
    """``obj`` pickled, after its length in 8 bytes."""
    body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return len(body).to_bytes(8, "little") + body


def _serve(tasks: int, results: int, others: list[int]):
    """A forked child's life: close ``others``, its siblings' pipe ends
    (so that EOF reaches every side), then answer each ``(fn, payload)``
    read from ``tasks`` with ``(True, result)`` or ``(False, exception)``
    on ``results``, until EOF.  It leaves only by ``os._exit``, never
    into the parent's code."""
    status = 1
    try:
        for fd in others:
            os.close(fd)
        _POOL.set(None)  # a chunk's own pool work opens its own pool
        with open(tasks, "rb") as inbox, open(results, "wb") as outbox:
            while head := inbox.read(8):
                try:
                    fn, payload = pickle.loads(
                        inbox.read(int.from_bytes(head, "little")))
                    out = _frame((True, fn(payload)))
                except Exception as exc:
                    out = _frame((False, exc))
                outbox.write(out)
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
    """A run's pool: ``workers`` children forked at its first task, each
    with its pid, the parent's ends of its pipes, the task bytes not yet
    sent, the result bytes not yet decoded and the ids of its tasks not
    yet answered; and the results not yet collected, by task id."""

    def __init__(self, workers: int):
        self.workers, self.children, self.done, self.n = workers, [], {}, 0

    def _fork(self):
        for _ in range(self.workers):
            (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(task_r, result_w, [task_w, result_r, *(
                    fd for c in self.children for fd in (c.tasks, c.results))])
            os.close(task_r)
            os.close(result_w)
            os.set_blocking(task_w, False)
            self.children.append(SimpleNamespace(
                pid=pid, tasks=task_w, results=result_r, out=bytearray(),
                inbox=bytearray(), sent=deque(), reaped=False))

    def submit(self, fn, payloads: list):
        """Queue ``fn`` on each payload, forking the children if not yet
        done; returns the function that waits for the results, in
        payload order."""
        if not self.children:
            self._fork()
        ids = range(self.n, self.n + len(payloads))
        self.n = ids.stop
        for i, payload in zip(ids, payloads):
            child = self.children[i % len(self.children)]
            child.out += _frame((fn, payload))
            child.sent.append(i)
        self._pump(0)
        return lambda: self._collect(ids)

    def _collect(self, ids: range) -> list:
        while any(i not in self.done for i in ids):
            self._pump()
        outs = [self.done.pop(i) for i in ids]
        for ok, value in outs:
            if not ok:
                raise value
        return [value for _, value in outs]

    def _pump(self, timeout=None):
        """Wait (at most ``timeout`` s) until a task pipe has room or a
        result pipe has bytes; send and read what is ready, decoding each
        whole result.  A writable pipe takes at least PIPE_BUF bytes."""
        owed = {c.tasks: c for c in self.children if c.out}
        busy = {c.results: c for c in self.children if c.sent}
        readable, writable, _ = select.select(list(busy), list(owed), [],
                                              timeout)
        for fd in writable:
            child = owed[fd]
            try:
                del child.out[:os.write(fd, child.out)]
            except BrokenPipeError:
                _died(child)
        for fd in readable:
            child, got = busy[fd], os.read(fd, 1 << 16)
            if not got:
                _died(child)
            buf = child.inbox
            buf += got
            while len(buf) >= 8:
                end = 8 + int.from_bytes(buf[:8], "little")
                if len(buf) < end:
                    break
                self.done[child.sent.popleft()] = pickle.loads(buf[8:end])
                del buf[:end]

    def close(self):
        """Reap every child; one with tasks not yet answered (only a
        failure leaves any) is killed first, the others leave at the EOF
        of their task pipe."""
        for child in self.children:
            os.close(child.tasks)
            os.close(child.results)
            if not child.reaped:
                if child.sent:
                    import signal  # only a failure needs it
                    os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)


@contextlib.contextmanager
def run_pool(workers: int):
    """Within the block, every ``run_chunked`` call and queued ensemble at
    ``workers`` > 1 runs on one pool of forked workers, opened by the
    first that needs it and closed when the block ends: each worker is
    reaped, and one with work still queued is killed first (only an
    exception leaves any)."""
    pool = _Pool(workers)
    token = _POOL.set(pool)
    try:
        yield pool
    finally:
        _POOL.reset(token)
        pool.close()


def run_chunked(fn, payloads: list, workers: int = 1):
    """Apply ``fn`` to each payload, in order; maybe on a pool of forked
    workers: the enclosing ``run_pool``'s at the same worker count, else
    one of its own.

    ``fn`` must be a picklable top-level callable (or functools.partial
    of one) when workers > 1.  Returns the list of results in payload
    order regardless of scheduling.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with contextlib.ExitStack() as stack:
        pool = _POOL.get()
        if pool is None or pool.workers != workers:
            pool = stack.enter_context(run_pool(workers))
        return pool.submit(fn, payloads)()


def queue_ensemble(fn, head: tuple, n: int, chunk: int, workers: int = 1):
    """Queue chunk worker ``fn`` over items 0..n-1 in ``chunk``-sized
    index ranges, payload ``head + (i0, i1)``, on the enclosing
    ``run_pool``'s pool at this worker count, else to run through
    ``run_chunked`` when collected: returns the collector (chunk order)."""
    payloads = [head + (i0, min(i0 + chunk, n)) for i0 in range(0, n, chunk)]
    pool = _POOL.get()
    if workers <= 1 or len(payloads) <= 1 or pool is None or (
            pool.workers != workers):
        return lambda: run_chunked(fn, payloads, workers)
    return pool.submit(fn, payloads)
