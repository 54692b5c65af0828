"""Poisson scatterer field over the unbounded plane, sampled lazily.

The plane is tiled by square cells of side ``cell_size`` = 4 epsilon,
at least 2 epsilon so that a disk touching a segment can only come from
the segment's cell neighborhood.  The centers inside a cell are a pure
function of (seed, cell index): a Poisson count with mean
``mu_eff * cell_size**2`` followed by i.i.d. uniform positions, all
drawn from a hash stream keyed by the cell.  Any spatial query can
therefore be answered by generating just the cells it touches, and two
queries always agree about the scatterers they both see.

Two intensity scalings are supported: the barrier model
``mu_eff = mu * epsilon**-delta`` and the slab model
``mu_eff = mu * epsilon**-1 * eta``.  ``epsilon`` here is the
interaction radius: the distance from a center at which a trajectory
collides.

``PlantedField`` provides the same query interface for an explicit list
of centers, for deterministic fixtures in tests.  Both expose
``march_window``, the step in which the first-hit search marches a ray.

An ensemble's members differ only in their seeds; ``member_keys``
gives member i's key, ``mix_key`` of its seed.  Both field classes
answer ``cells(keys, ix, iy)``, any cells of any members at once: a
Poisson field with ``cell_centers``, on uint64 arrays in place of one
``HashStream`` per cell, a planted field from its one list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import HashStream, fold_key, mix_key, stream_block, stream_uniforms

__all__ = ["FieldSpec", "ScattererField", "PlantedField", "cell_centers",
           "member_keys"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of one scatterer-field ensemble member.

    Exactly one of ``delta`` (barrier scaling) and ``eta`` (slab
    scaling) must be given.  ``y_period`` (optional) wraps the
    realization periodically in y with a period of a whole number of
    cells.
    """

    mu: float
    epsilon: float
    seed: int
    delta: float | None = None
    eta: float | None = None
    y_period: float | None = None

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if (self.delta is None) == (self.eta is None):
            raise ValueError("exactly one of delta (barrier) or eta (slab) is required")
        if self.y_period is not None:
            ncells = self.y_period / self.cell_size
            if abs(ncells - round(ncells)) > 1e-9 or round(ncells) < 1:
                raise ValueError("y_period must be a positive whole number of cells")

    @property
    def cell_size(self) -> float:
        return 4.0 * self.epsilon

    @property
    def mu_eff(self) -> float:
        """Scatterer intensity actually realized (centers per unit area)."""
        if self.delta is not None:
            return self.mu * self.epsilon ** (-self.delta)
        return self.mu * self.eta / self.epsilon


class ScattererField:
    """Lazy realization of a FieldSpec with per-cell memoization.

    Queries are pure functions of the spec, so concurrent use is safe;
    the cache only avoids re-deriving cells a trajectory revisits.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.epsilon = spec.epsilon
        self.cell_size = spec.cell_size
        self._mean = spec.mu_eff * spec.cell_size**2
        self._ny = (
            int(round(spec.y_period / spec.cell_size))
            if spec.y_period is not None
            else 0
        )
        # ray-march step of the first-hit search: a couple of mean free paths
        self.march_window = max(2.0 * spec.cell_size,
                                1.5 / (2.0 * spec.epsilon * spec.mu_eff))
        self._cache: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def scatterers_in_cell(self, cell: tuple[int, int]) -> list[tuple[float, float]]:
        """Centers inside one lattice cell; identical lists on repeat calls."""
        got = self._cache.get(cell)
        if got is not None:
            return got
        ix, iy = cell
        if self._ny:
            base = iy % self._ny
            shift = (iy - base) * self.cell_size
            pts = self._generate(ix, base)
            pts = [(x, y + shift) for (x, y) in pts]
        else:
            pts = self._generate(ix, iy)
        self._cache[cell] = pts
        return pts

    def _generate(self, ix: int, iy: int) -> list[tuple[float, float]]:
        stream = HashStream(self.spec.seed, ix & _MASK64, iy & _MASK64)
        count = stream.poisson(self._mean)
        cs = self.cell_size
        return [
            ((ix + stream.uniform()) * cs, (iy + stream.uniform()) * cs)
            for _ in range(count)
        ]

    def cells(self, keys, ix, iy):
        """(cx, cy, counts) of cells (ix[c], iy[c]) of the fields of this
        layout keyed by keys[c]: what ``scatterers_in_cell`` gives cell by
        cell, y-period shift included, in one ``cell_centers`` pass."""
        base = iy % self._ny if self._ny else iy
        cx, cy, counts = cell_centers(keys, ix, base, self._mean,
                                      self.cell_size)
        if self._ny:
            cy += np.repeat((iy - base) * self.cell_size, counts)
        return cx, cy, counts

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.cell_size), math.floor(y / self.cell_size)


def member_keys(parent: int, i0: int, i1: int) -> np.ndarray:
    """The keys of ensemble members i0..i1-1 whose field seeds are
    ``mix_key(*parts, i)``, given ``parent = mix_key(*parts)``: member
    i's key, ``mix_key(mix_key(*parts, i))``, is what ``HashStream``
    folds its cells into and what ``cells`` takes."""
    return fold_key(np.uint64(mix_key()), fold_key(
        np.uint64(parent), np.arange(i0, i1, dtype=np.int64)))


def cell_centers(keys, ix, iy, lam: float, cs: float):
    """``ScattererField._generate`` for many cells in one numpy pass.

    Cell c is cell (ix[c], iy[c]) of the field whose ``mix_key(seed)``
    is keys[c]; every cell has mean count ``lam`` and side ``cs``.
    Returns (cx, cy, counts): cell c's centers are the next counts[c]
    entries, in ``_generate`` order and bit for bit its values.

    Every draw of a cell's HashStream is computed directly.  The count
    is ``HashStream.poisson``'s: Knuth's running product, taken down a
    block of about lam + 2 sqrt(lam) uniforms per cell (the same
    sequential products), continued from the end of the block in the
    cells that need more; a mean above 64 is drawn as halves, one after
    the other on the same stream.  The positions follow the count.
    """
    keys = fold_key(fold_key(keys, ix), iy)
    n = keys.size
    used = np.zeros(n, dtype=np.int64)  # draws taken from each stream
    counts = np.zeros(n, dtype=np.int64)
    leaf, leaves = lam, 1
    while leaf > 64.0:
        leaf /= 2.0
        leaves *= 2
    if lam > 0.0:
        # math.exp, as HashStream's: numpy's exp differs in the last bit
        limit = math.exp(-leaf)
        # most counts end within a block
        block = int(leaf + 2.0 * math.sqrt(leaf)) + 2
        for _ in range(leaves):
            start = used.copy()
            todo = np.arange(n)
            p = np.ones(n)
            while todo.size:
                at = used[todo]
                prod = stream_block(keys[todo], at, block)
                prod[0] *= p
                for i in range(1, block):
                    prod[i] *= prod[i - 1]
                # the products only fall: those above the limit come first
                above = (prod > limit).sum(axis=0)
                stop = above < block
                used[todo] = at + np.where(stop, above + 1, block)
                p = prod[-1, ~stop]
                todo = todo[~stop]
            counts += used - start - 1

    cell = np.repeat(np.arange(n), counts)
    first = np.cumsum(counts) - counts
    # point m of a cell draws its x after the count's draws and the 2m
    # before it, then its y
    draw = used[cell] + 1 + 2 * (np.arange(cell.size) - first[cell])
    key = keys[cell]
    cx = (ix[cell] + stream_uniforms(key, draw)) * cs
    cy = (iy[cell] + stream_uniforms(key, draw + 1)) * cs
    return cx, cy, counts


class PlantedField:
    """Explicit finite center list behind the ScattererField interface."""

    def __init__(self, centers, epsilon: float):
        self.epsilon = float(epsilon)
        self.cell_size = 4.0 * self.epsilon
        self.march_window = 2.0 * self.cell_size
        self._cache: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for (x, y) in centers:
            pt = (float(x), float(y))
            self._cache.setdefault(self.cell_of(*pt), []).append(pt)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.cell_size), math.floor(y / self.cell_size)

    def scatterers_in_cell(self, cell: tuple[int, int]) -> list[tuple[float, float]]:
        return self._cache.get(cell, [])

    def cells(self, keys, ix, iy):
        """``ScattererField.cells`` for the one planted list, whatever the
        keys."""
        got = [self._cache.get(c, []) for c in zip(ix.tolist(), iy.tolist())]
        pts = np.array([pt for c in got for pt in c]).reshape(-1, 2)
        return pts[:, 0], pts[:, 1], np.array([len(c) for c in got],
                                              dtype=np.int64)
