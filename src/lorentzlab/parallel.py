"""Deterministic work scheduling: one chunk-and-reduce driver.

Work is split into fixed-size chunks by item index; chunk results are
returned in chunk order for the caller to fold.  Because every random
draw is keyed by item index or chunk index (never by worker), the output
is bit-identical at any worker count: the pool only changes who computes
a chunk, not what it returns or the order it is folded in.
"""

from __future__ import annotations

__all__ = ["run_chunked", "run_ensemble"]


def run_chunked(fn, payloads: list, workers: int = 1):
    """Apply ``fn`` to each payload, in order; maybe on a process pool.

    ``fn`` must be a picklable top-level callable (or functools.partial
    of one) when workers > 1.  Returns the list of results in payload
    order regardless of scheduling.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # imported here: a run without a pool does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def run_ensemble(fn, head: tuple, n: int, chunk: int, workers: int = 1) -> list:
    """Run chunk worker ``fn`` over items 0..n-1 in ``chunk``-sized index
    ranges, payload ``head + (i0, i1)``; results in chunk order."""
    return run_chunked(fn, [head + (i0, min(i0 + chunk, n))
                            for i0 in range(0, n, chunk)], workers)
