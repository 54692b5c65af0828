"""Deterministic work scheduling: one chunk-and-reduce driver.

Work is split into fixed-size chunks by item index; chunk results are
returned in chunk order for the caller to fold.  Because every random
draw is keyed by item index or chunk index (never by worker), the output
is bit-identical at any worker count: the pool only changes who computes
a chunk, not what it returns or the order it is folded in.  A run opens
one pool for all of its ensembles (``run_pool``) and can queue them on
it at once (``queue_ensemble``).
"""

from __future__ import annotations

import contextlib
import contextvars

__all__ = ["queue_ensemble", "run_chunked", "run_pool"]

# [workers, pool or None] of the run_pool block being run, if any
_POOL = contextvars.ContextVar("pool", default=None)


@contextlib.contextmanager
def run_pool(workers: int):
    """Within the block, every ``run_chunked`` call and queued ensemble at
    ``workers`` > 1 runs on one process pool, opened by the first that
    needs it and shut down when the block ends, cancelling what is
    queued and not started (only an exception leaves any)."""
    run = [workers, None]
    token = _POOL.set(run)
    try:
        yield run
    finally:
        _POOL.reset(token)
        if run[1] is not None:
            run[1].shutdown(cancel_futures=True)


def _submit(run, fn, payloads):
    """``fn`` on each payload on the pool of ``run``, opened if need be;
    returns the function that waits for the results, in payload order."""
    if run[1] is None:
        # imported here: a run without a pool does not load
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        run[1] = ProcessPoolExecutor(max_workers=run[0])
    futures = [run[1].submit(fn, p) for p in payloads]
    return lambda: [f.result() for f in futures]


def run_chunked(fn, payloads: list, workers: int = 1):
    """Apply ``fn`` to each payload, in order; maybe on a process pool:
    the enclosing ``run_pool``'s at the same worker count, else one of
    its own.

    ``fn`` must be a picklable top-level callable (or functools.partial
    of one) when workers > 1.  Returns the list of results in payload
    order regardless of scheduling.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with contextlib.ExitStack() as stack:
        run = _POOL.get()
        if run is None or run[0] != workers:
            run = stack.enter_context(run_pool(workers))
        return _submit(run, fn, payloads)()


def queue_ensemble(fn, head: tuple, n: int, chunk: int, workers: int = 1):
    """Queue chunk worker ``fn`` over items 0..n-1 in ``chunk``-sized
    index ranges, payload ``head + (i0, i1)``, on the enclosing
    ``run_pool``'s pool at this worker count, else to run through
    ``run_chunked`` when collected: returns the collector (chunk order)."""
    payloads = [head + (i0, min(i0 + chunk, n)) for i0 in range(0, n, chunk)]
    run = _POOL.get()
    if workers <= 1 or len(payloads) <= 1 or run is None or run[0] != workers:
        return lambda: run_chunked(fn, payloads, workers)
    return _submit(run, fn, payloads)
