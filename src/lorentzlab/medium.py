"""Poisson scatterer field over the unbounded plane, sampled lazily.

The plane is tiled by square cells of side ``cell_size``.  The centers
inside a cell are a pure function of (seed, cell index): a Poisson count
with mean ``mu_eff * cell_size**2`` followed by i.i.d. uniform positions,
all drawn from a hash stream keyed by the cell.  Any spatial query can
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

``strip_centers`` computes the same cells in bulk: one period of a
y-periodic field over a run of columns, for many seeds at once, on
uint64 arrays in place of one ``HashStream`` per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import HashStream, fold_key, mix_key, stream_uniforms

__all__ = ["FieldSpec", "ScattererField", "PlantedField", "strip_centers"]

_MASK64 = (1 << 64) - 1
# uniforms per cell in the bulk Poisson count; a cell whose count needs
# more is generated by HashStream
_KNUTH_BLOCK = 8


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of one scatterer-field ensemble member.

    Exactly one of ``delta`` (barrier scaling) and ``eta`` (slab
    scaling) must be given.  ``cell_size`` defaults to ``4 * epsilon``
    and must be at least ``2 * epsilon`` so a disk touching a segment
    can only come from the segment's cell neighborhood.  ``y_period``
    (optional) wraps the realization periodically in y with a period of
    a whole number of cells.
    """

    mu: float
    epsilon: float
    seed: int
    delta: float | None = None
    eta: float | None = None
    cell_size: float | None = None
    y_period: float | None = None

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if (self.delta is None) == (self.eta is None):
            raise ValueError("exactly one of delta (barrier) or eta (slab) is required")
        if self.cell_size is None:
            object.__setattr__(self, "cell_size", 4.0 * self.epsilon)
        if self.cell_size < 2.0 * self.epsilon:
            raise ValueError(
                f"cell_size {self.cell_size} < 2*epsilon = {2 * self.epsilon}"
            )
        if self.y_period is not None:
            ncells = self.y_period / self.cell_size
            if abs(ncells - round(ncells)) > 1e-9 or round(ncells) < 1:
                raise ValueError("y_period must be a positive whole number of cells")

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

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.cell_size), math.floor(y / self.cell_size)


def strip_centers(fields, ix0: int, ix1: int):
    """Centers of cells ix0..ix1 x 0..ny-1 of y-periodic fields, in bulk.

    ``fields`` are ScattererFields that differ only in their seed.
    Returns (cx, cy, counts): field f's centers are the next counts[f]
    entries, listed cell by cell in (ix, iy) order and within a cell in
    ``_generate`` order, bit for bit its values.  Every draw of a cell's
    HashStream is computed directly: Knuth's product over at most
    ``_KNUTH_BLOCK`` uniforms gives the count, and the positions follow
    it.  A cell whose count needs more uniforms, and every cell of a
    field of mean above 64 (drawn as two halves), is generated by
    ``_generate``.
    """
    f0 = fields[0]
    ny, cs, lam = f0._ny, f0.cell_size, f0._mean
    nx = ix1 - ix0 + 1
    per_field = nx * ny
    # HashStream(seed, ix, iy)'s key, mix_key(seed, ix, iy)
    keys = np.array([mix_key(f.spec.seed) for f in fields], dtype=np.uint64)
    keys = fold_key(keys[:, None], np.arange(ix0, ix1 + 1, dtype=np.int64))
    keys = fold_key(keys[:, :, None], np.arange(ny, dtype=np.int64)).ravel()

    counts = np.full(keys.size, -1, dtype=np.int64)
    if lam <= 64.0:
        # Knuth's running product, advanced only in cells still counting
        limit = math.exp(-lam)
        todo = np.arange(keys.size)
        p = np.ones(keys.size)
        for k in range(_KNUTH_BLOCK):
            p *= stream_uniforms(keys[todo], k + 1)
            stop = p <= limit
            counts[todo[stop]] = k
            todo, p = todo[~stop], p[~stop]
    slow = {}
    for c in np.flatnonzero(counts < 0).tolist():
        f, k = divmod(c, per_field)
        slow[c] = fields[f]._generate(ix0 + k // ny, k % ny)
        counts[c] = len(slow[c])

    cell = np.repeat(np.arange(keys.size), counts)
    first = np.cumsum(counts) - counts
    # point m of a cell draws its x after the count's count + 1 draws
    # and the 2m before it, then its y
    draw = counts[cell] + 2 + 2 * (np.arange(cell.size) - first[cell])
    key = keys[cell]
    cx = (ix0 + cell % per_field // ny + stream_uniforms(key, draw)) * cs
    cy = (cell % ny + stream_uniforms(key, draw + 1)) * cs
    for c, pts in slow.items():
        at = slice(first[c], first[c] + len(pts))
        cx[at] = [x for x, _ in pts]
        cy[at] = [y for _, y in pts]
    return cx, cy, counts.reshape(len(fields), per_field).sum(axis=1)


class PlantedField:
    """Explicit finite center list behind the ScattererField interface."""

    def __init__(self, centers, epsilon: float, cell_size: float | None = None):
        self.epsilon = float(epsilon)
        self.cell_size = float(cell_size) if cell_size is not None else 4.0 * epsilon
        if self.cell_size < 2.0 * self.epsilon:
            raise ValueError("cell_size must be >= 2*epsilon")
        self.march_window = 2.0 * self.cell_size
        self._cache: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for (x, y) in centers:
            pt = (float(x), float(y))
            self._cache.setdefault(self.cell_of(*pt), []).append(pt)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.cell_size), math.floor(y / self.cell_size)

    def scatterers_in_cell(self, cell: tuple[int, int]) -> list[tuple[float, float]]:
        return self._cache.get(cell, [])

    def centers(self) -> list[tuple[float, float]]:
        """Every center, listed cell by cell in (ix, iy) order."""
        return [pt for cell in sorted(self._cache) for pt in self._cache[cell]]
