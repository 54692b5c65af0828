"""Reproducible random number streams.

Three mechanisms, all counter-based so that results never depend on the
order in which work is scheduled:

* ``rng_stream(master_seed, stream_index)`` returns an independent
  numpy ``Generator`` (Philox) for bulk sampling.  Same inputs, same
  stream, on every platform and at every worker count; ``rng_streams``
  gives many in turn from one ``Generator``.
* ``philox_uniforms`` is a numpy port of the Philox4x64-10 generator
  behind ``rng_stream``: it gives ``rng_stream(seed, i).random()``'s
  draws for many stream indices i in one pass, bit for bit, and can
  start at any draw, since draw j is a pure function of the key and
  the counter j // 4 + 1 (Salmon et al., SC'11).
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
from itertools import repeat

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _each(f, *cols):
    """``f`` element by element on Python floats, where numpy's form of
    ``hypot``, ``cos``, ``sin``, ``arctan2``, ``log1p``, ``** 2`` or the
    deflection law can differ from ``math``'s in the last bit.  A column is
    an array of any shape, read in row-major order by a memoryview, or a
    float for every element; the result has the first column's shape."""
    return np.fromiter(map(f, *(memoryview(c.ravel()) if isinstance(
        c, np.ndarray) else repeat(c) for c in cols)), float,
        cols[0].size).reshape(cols[0].shape)


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


def rng_streams(master_seed: int, index):
    """``rng_stream(master_seed, i)`` for each i of ``index`` in turn: one
    ``Generator`` (it keeps no state of its own) whose Philox is re-keyed
    in place, each good until the next is asked for."""
    base = fold_key(np.uint64(mix_key(master_seed)),
                    np.asarray(index, dtype=np.int64))
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state  # a new Philox's
    for key in np.column_stack([fold_key(base, np.int64(1)),
                                fold_key(base, np.int64(2))]):
        state["state"]["key"] = key
        bits.state = state
        yield gen


_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
# Philox4x64 round multipliers and key increments (Random123, numpy)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * m``, by 32-bit limbs."""
    a_lo, a_hi = a & _M32, a >> _S32
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> _S32) + (lh & _M32) + (hl & _M32)
    hi = a_hi * m_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    return hi, a * np.uint64(m)


def philox_uniforms(seed: int, index: np.ndarray, n: int, at: int = 0
                    ) -> np.ndarray:
    """Draws at .. at+n-1 (counted from 0) of ``rng_stream(seed, i).random``
    for each stream index i in ``index``: row r is stream index[r]'s.

    Philox4x64-10 with numpy's layout: the key words are
    ``mix_key(seed, i, 1)`` and ``mix_key(seed, i, 2)``, block b (from 0)
    is the ten-round bijection of the counter (b + 1, 0, 0, 0), it
    holds draws 4b .. 4b+3, and a draw is its word's top 53 bits.
    """
    idx = np.asarray(index, dtype=np.int64).reshape(-1)
    base = fold_key(np.uint64(mix_key(seed)), idx)
    k0 = fold_key(base, np.int64(1))[:, None]
    k1 = fold_key(base, np.int64(2))[:, None]
    b0, b1 = at // 4, (at + n - 1) // 4 + 1
    c0 = np.broadcast_to(np.arange(b0 + 1, b1 + 1, dtype=np.uint64),
                         (idx.size, b1 - b0))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(idx.size,
                                                         4 * (b1 - b0))
    words = words[:, at - 4 * b0:at - 4 * b0 + n]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


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
