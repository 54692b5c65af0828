"""Reproducible random number streams.

Two mechanisms, both counter-based so that results never depend on the
order in which work is scheduled:

* ``rng_stream(master_seed, stream_index)`` returns an independent
  numpy ``Generator`` (Philox) for bulk sampling.  Same inputs, same
  stream, on every platform and at every worker count.
* ``HashStream`` is a tiny splitmix64 stream keyed by a tuple of
  integers.  It is what the scatterer field uses per lattice cell: the
  draws for a cell are a pure function of (seed, cell index), so a cell
  can be re-generated at any time without storing anything.
  Output i of a stream is splitmix64(key + i*GOLDEN), so
  ``stream_uniforms`` computes any draw of any cell's stream directly,
  and ``stream_block`` a run of draws of each, on uint64 arrays.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """One splitmix64 scramble of a 64-bit integer."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64_array(z: np.ndarray) -> np.ndarray:
    """``splitmix64`` elementwise on a uint64 array (wrapping arithmetic)."""
    z = z + _GOLDEN_U64
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def fold_key(key: np.ndarray, part: np.ndarray) -> np.ndarray:
    """``mix_key`` extended by one part, elementwise: ``mix_key(*parts, p)``
    is ``fold_key(mix_key(*parts), p)``, for an int64 or uint64 ``part``."""
    return splitmix64_array(key ^ part.view(np.uint64))


def stream_uniforms(key: np.ndarray, index) -> np.ndarray:
    """``HashStream.uniform`` elementwise: draw number ``index`` (from 1)
    of the stream whose key, ``mix_key`` of its key tuple, is ``key``."""
    counter = key + np.asarray(index, dtype=np.uint64) * _GOLDEN_U64
    return ((splitmix64_array(counter) >> np.uint64(11))
            * (1.0 / 9007199254740992.0))


def stream_block(key: np.ndarray, at: np.ndarray, n: int) -> np.ndarray:
    """Draws at+1 .. at+n of each stream whose key is ``key`` (as for
    ``stream_uniforms``): row i holds draw at+1+i of every stream."""
    # draw at+i of a stream is draw i of the stream at draws further on
    return stream_uniforms(key + at.astype(np.uint64) * _GOLDEN_U64,
                           np.arange(1, n + 1)[:, None])


def mix_key(*parts: int) -> int:
    """Fold any number of (possibly negative) integers into a 64-bit key."""
    h = 0x6A09E667F3BCC909
    for p in parts:
        h = splitmix64(h ^ (p & _MASK64))
    return h


def rng_stream(master_seed: int, stream_index: int) -> np.random.Generator:
    """Independent generator for a (master seed, stream index) pair.

    Built on Philox, a counter-based generator: distinct keys give
    statistically independent streams by construction, and the mapping
    from inputs to the stream is pure.
    """
    k0 = mix_key(master_seed, stream_index, 1)
    k1 = mix_key(master_seed, stream_index, 2)
    return np.random.Generator(np.random.Philox(key=k0 | (k1 << 64)))


class HashStream:
    """Deterministic scalar stream of uniforms/Poisson counts from a key.

    Output i is splitmix64(key + i*GOLDEN); the stream is a pure
    function of the key tuple.  Cheap enough to re-derive per lattice
    cell in the hot path of the event-driven dynamics.
    """

    __slots__ = ("_counter",)

    def __init__(self, *key: int):
        self._counter = mix_key(*key)

    def next_u64(self) -> int:
        self._counter = (self._counter + _GOLDEN) & _MASK64
        return splitmix64(self._counter)

    def uniform(self) -> float:
        # 53 mantissa bits -> uniform on [0, 1)
        return (self.next_u64() >> 11) * (1.0 / 9007199254740992.0)

    def poisson(self, lam: float) -> int:
        """Poisson count via Knuth's product method (split for large means)."""
        if lam <= 0.0:
            return 0
        if lam > 64.0:
            half = lam / 2.0
            return self.poisson(half) + self.poisson(half)
        limit = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.uniform()
            if p <= limit:
                return k
            k += 1
