"""Event-driven particle flow through a scatterer field.

Between scatterers the particle flies straight.  On reaching a disk
boundary it either crosses along the refracted interior chord (interior
speed is n * exterior speed, exit deflected by the closed-form angle)
or reflects specularly (the total-reflection branch).  Hard disks are
``params=None``: refractive index 0, so every impact reflects, as in
``deflection_angle(rho, 0)``.  Disk/line intersections are solved
exactly by the quadratic formula; near-tangential hits (normalized
discriminant < 1e-12) are treated as misses, and after each boundary
interaction the position is nudged 1e-12 along the new velocity so the
boundary just left is not re-detected.

The next hit is found by marching the ray through the field's cells in
steps of the field's ``march_window``; planted fixtures and Poisson
fields take the same march.  In a slab run the search stops at the
first wall crossing, since a disk behind the wall is never reached.

Overlapping disks are not composed: a disk that already contains the
current position is ignored for that flight, the first boundary crossing
always wins, and the overlap shows up in the pathology report instead.
A hard-disk run may not start inside a disk (its interior is unreachable
from outside); that start raises ValueError.  This start rule and the
event label are all that tell a hard disk from an always-reflecting
barrier, whose start inside a disk still flies out through it.

The backward flow is velocity reversal (the dynamics is time
reversible); this is asserted by the time-reversal tests rather than
implemented as a separate integrator.

``_Engine`` runs one trajectory on plain floats, one field query at a
time (``_first_hit``, ``_find_containing_disk``); ``advance`` is its
logged library entry.  The ensembles run their trajectories as one
array-state walk on the same rules in the same order of operations,
through one refill driver, ``_walks``: it lets walks in as others end,
``_resume`` starts a run and ``_flights`` moves every live walk on by
one flight, with the queries of all of them answered at once by
``_FieldBatch``, bit for bit what the scalar search answers on each
walk's own field.  The slab's hard disks are the n = 0 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .rng import _each
from .scattering import BarrierParams, StuckParticleError, deflection_angle

__all__ = [
    "ParticleState",
    "TrajectoryEvent",
    "TrajectoryLog",
    "PathologyReport",
    "StuckParticleError",
    "advance",
    "backward_flow",
    "classify_pathologies",
]

MAX_EVENTS = 10**6
_PUSH = 1e-12
_TANGENT_TOL = 1e-12

# walks live at once in a ``_walks`` walk, at most: it bounds a step's
# working set, and new walks are asked for this many at a time
_LIVE_WALKS = 1024

BARRIER_TRAVERSE = "barrier_traverse"
TOTAL_REFLECT = "total_reflect"
HARD_REFLECT = "hard_reflect"


@dataclass
class ParticleState:
    """Position and velocity, macroscopic units."""

    x: np.ndarray
    v: np.ndarray

    def __init__(self, x, v):
        self.x = np.asarray(x, dtype=float).copy()
        self.v = np.asarray(v, dtype=float).copy()

    @property
    def speed(self) -> float:
        return float(np.hypot(self.v[0], self.v[1]))


@dataclass(frozen=True)
class TrajectoryEvent:
    time: float
    center: tuple[float, float]
    rho: float  # signed entry impact parameter, units of the disk radius
    kind: str  # BARRIER_TRAVERSE | TOTAL_REFLECT | HARD_REFLECT


@dataclass
class TrajectoryLog:
    """Ordered event record plus the polyline actually traveled."""

    events: list[TrajectoryEvent] = dc_field(default_factory=list)
    path: list[tuple[float, tuple[float, float]]] = dc_field(default_factory=list)


@dataclass(frozen=True)
class PathologyReport:
    """Counts of the memory-effect events on one trajectory."""

    overlaps: int
    recollisions: int
    interferences: int
    q_collisions: int


def _bound_cross(x: float, ux: float, s_len: float, lo: float, hi: float):
    """First crossing of x-coordinate with lo/hi within s in (0, s_len]."""
    best = None
    for wall, side in ((lo, "left"), (hi, "right")) if ux else ():
        s = (wall - x) / ux
        if 0.0 < s <= s_len and (best is None or s < best[0]):
            best = (s, side)
    return best


def _first_hit(field, x, y, ux, uy, r, s_max):
    """Earliest disk-boundary entry along (x,y) + s*(ux,uy), s in (0, s_max].

    Marches the ray in steps of ``field.march_window``, enumerating the
    cells whose r-neighborhood the window touches; a disk entered inside
    the window necessarily has its center within r of the window
    segment, so the earliest hit found is the global one.
    """
    r2 = r * r
    cs = field.cell_size
    win = field.march_window
    cell_lists = field.scatterers_in_cell
    floor = math.floor
    s0 = 0.0
    while s0 < s_max:
        s1 = min(s0 + win, s_max)
        ax, ay = x + s0 * ux, y + s0 * uy
        bx, by = x + s1 * ux, y + s1 * uy
        if ax > bx:
            ax, bx = bx, ax
        if ay > by:
            ay, by = by, ay
        ix0 = floor((ax - r) / cs)
        ix1 = floor((bx + r) / cs)
        iy0 = floor((ay - r) / cs)
        iy1 = floor((by + r) / cs)
        best_s = None
        best_c = None
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                for (cx, cy) in cell_lists((ix, iy)):
                    wx, wy = cx - x, cy - y
                    w2 = wx * wx + wy * wy
                    if w2 < r2:
                        continue  # started inside (overlap); do not interact
                    b = wx * ux + wy * uy
                    disc = b * b - (w2 - r2)
                    if disc < _TANGENT_TOL * r2:
                        continue  # tangential graze counts as a miss
                    s_in = b - math.sqrt(disc)
                    if 0.0 < s_in <= s1 and (best_s is None or s_in < best_s):
                        best_s = s_in
                        best_c = (cx, cy)
        if best_s is not None:
            return best_s, best_c
        s0 = s1
    return None


def _find_containing_disk(field, x, y, r):
    """The nearest center within r of (x, y), or None; an exact tie
    goes to the first in scan order."""
    ix, iy = field.cell_of(x, y)
    best = None
    best_d2 = r * r
    for jx in range(ix - 1, ix + 2):
        for jy in range(iy - 1, iy + 2):
            for (cx, cy) in field.scatterers_in_cell((jx, jy)):
                dx, dy = cx - x, cy - y
                d2 = dx * dx + dy * dy
                if d2 < best_d2:
                    best_d2 = d2
                    best = (cx, cy)
    return best


# cells generated per numpy pass of a _FieldBatch query, at most (a
# query's whole box is one pass however many cells it has): this
# bounds the pass's working set, and more per pass saves no time
_BATCH_CELLS = 1 << 12


class _FieldBatch:
    """Answers the field queries of many walks, each in its own field of
    one layout, at once: bit for bit what ``_first_hit`` and
    ``_find_containing_disk`` answer one at a time.

    The fields share every parameter of ``field`` but the seed: row j's
    field is keyed by keys[j], ``mix_key`` of its seed (a planted field
    has one list and ignores the keys).  Their cells come from
    ``field.cells`` per query, never stored; a cell's centers are a pure
    function of its key, so what the scalar search gets from its cache
    is what this one generates again.
    """

    def __init__(self, field, keys):
        self.field = field
        self.keys = keys

    def _candidates(self, rows, box):
        """Every center of cells box[0]..box[1] x box[2]..box[3] of each
        query's field, the field of row rows[q] for query q, in the scalar
        scan order (ix, then iy, then order in the cell): (query of each
        center, cx, cy), yielded in passes of whole queries."""
        ix0, ix1, iy0, iy1 = box
        ny = iy1 - iy0 + 1
        n_cells = (ix1 - ix0 + 1) * ny
        starts = np.cumsum(n_cells) - n_cells
        for part in np.split(np.arange(len(rows)), np.flatnonzero(
                np.diff(starts // _BATCH_CELLS)) + 1):
            q = np.repeat(part, n_cells[part])
            k = np.arange(q.size) - (starts[q] - starts[part[:1]])
            cx, cy, counts = self.field.cells(self.keys[rows[q]],
                                              ix0[q] + k // ny[q],
                                              iy0[q] + k % ny[q])
            yield np.repeat(q, counts), cx, cy

    @staticmethod
    def _earliest(p, key):
        """The queries in p and the index of each one's smallest ``key``
        (the first of an exact tie); p is sorted and the order within a
        query is scan order."""
        order = np.lexsort((key, p))  # stable: a tie keeps scan order
        q, at = np.unique(p[order], return_index=True)
        return q, order[at]

    def _first_hits(self, x, y, ux, uy, s_max):
        """``_first_hit`` for many rays: window by window, over the same
        bounding-box cells, with its disk test in its order of
        operations; a ray stops at its first window with a hit.
        Returns the arrays (s, cx, cy) of the hits, NaN for a miss."""
        r, cs = self.field.epsilon, self.field.cell_size
        r2 = r * r
        out = np.full((3, len(x)), np.nan)
        s0 = np.zeros(len(x))
        todo = np.flatnonzero(s0 < s_max)
        while todo.size:
            s1 = np.minimum(s0[todo] + self.field.march_window, s_max[todo])
            xt, yt, uxt, uyt = x[todo], y[todo], ux[todo], uy[todo]
            ax, ay = xt + s0[todo] * uxt, yt + s0[todo] * uyt
            bx, by = xt + s1 * uxt, yt + s1 * uyt
            box = [np.floor(v / cs).astype(np.int64) for v in (
                np.minimum(ax, bx) - r, np.maximum(ax, bx) + r,
                np.minimum(ay, by) - r, np.maximum(ay, by) + r)]
            found = np.zeros(todo.size, dtype=bool)
            for p, cx, cy in self._candidates(todo, box):
                wx, wy = cx - xt[p], cy - yt[p]
                w2 = wx * wx + wy * wy
                b = wx * uxt[p] + wy * uyt[p]
                disc = b * b - (w2 - r2)
                with np.errstate(invalid="ignore"):
                    s_in = b - np.sqrt(disc)
                ok = ~(w2 < r2)  # started inside (overlap): no interaction
                ok &= ~(disc < _TANGENT_TOL * r2)  # tangential graze: a miss
                ok &= (0.0 < s_in) & (s_in <= s1[p])
                c = np.flatnonzero(ok)
                i, k = self._earliest(p[c], s_in[c])
                k = c[k]
                out[:, todo[i]] = s_in[k], cx[k], cy[k]
                found[i] = True
            s0[todo] = s1
            todo = todo[~found & (s1 < s_max[todo])]
        return out

    def _containing(self, x, y):
        """``_find_containing_disk`` for many points, over only the cells
        of the box of the point's r-disk (of the 3 x 3 it scans, those
        that can hold a center within r).  Returns the arrays (cx, cy) of
        the nearest centers within r, NaN where there is none."""
        cs, r = self.field.cell_size, self.field.epsilon
        r2 = r * r
        box = [np.floor(v / cs).astype(np.int64)
               for v in (x - r, x + r, y - r, y + r)]
        out = np.full((2, len(x)), np.nan)
        for p, cx, cy in self._candidates(np.arange(len(x)), box):
            dx, dy = cx - x[p], cy - y[p]
            d2 = dx * dx + dy * dy
            c = np.flatnonzero(d2 < r2)
            i, k = self._earliest(p[c], d2[c])
            out[:, i] = cx[c[k]], cy[c[k]]
        return out


def _ranges(lo, hi):
    """(i, k) for every integer k in lo[i]..hi[i], i in order."""
    n = np.maximum(hi - lo + 1, 0)
    i = np.repeat(np.arange(len(n)), n)
    return i, np.arange(i.size) - (np.cumsum(n) - n)[i] + lo[i]


def _chords(x, y, dx, dy, v_int, length, t, t_max):
    """``_Engine._chord`` for arrays: (stop, x, y, t) at the chord's end,
    or at t_max where the time runs out first."""
    transit = length / v_int
    stop = transit > t_max - t
    s = np.where(stop, (t_max - t) * v_int, length)
    return stop, x + s * dx, y + s * dy, np.where(stop, t_max, t + transit)


def _resume(batch, F, t_max, n, log=None):
    """The start of ``_Engine.run`` for each walk of F (see ``_flights``)
    through barriers of index n: a walk inside a disk (asked only when
    n > 0) first finishes its chord out as ``_Engine._escape`` does, and
    each walk's speed is set."""
    r = batch.field.epsilon
    if log is not None:
        log.path(np.arange(len(F)), 0.0, F[:, 0], F[:, 1])
    if n > 0.0:
        cx, cy = batch._containing(F[:, 0], F[:, 1])
        e = np.flatnonzero(~np.isnan(cx))
        (x, y, vx, vy, _, t), cx, cy = F[e].T, cx[e], cy[e]
        v_int = _each(math.hypot, vx, vy)
        ux, uy = vx / v_int, vy / v_int
        wx, wy = x - cx, y - cy
        b = -(wx * ux + wy * uy)
        disc = b * b - (wx * wx + wy * wy - r * r)
        stop, xo, yo, t1 = _chords(x, y, ux, uy, v_int,
                                   b + np.sqrt(np.maximum(0.0, disc)), t,
                                   t_max[e])
        mx, my = (xo - cx) / r, (yo - cy) / r
        c1 = ux * mx + uy * my
        sx, sy = n * (ux - c1 * mx), n * (uy - c1 * my)
        c2 = np.sqrt(np.maximum(0.0, 1.0 - (sx * sx + sy * sy)))
        ex, ey = sx + c2 * mx, sy + c2 * my
        out = np.where(stop, [xo, yo, vx, vy], [
            xo + _PUSH * ex, yo + _PUSH * ey, v_int / n * ex, v_int / n * ey])
        F[e, :4], F[e, 5] = out.T, t1
        if log is not None:
            log.path(e, t1, xo, yo)
            log.path(e[~stop], t1[~stop], *out[:2, ~stop])
    F[:, 4] = _each(math.hypot, F[:, 2], F[:, 3])


def _flights(batch, F, ev, t_max, n, log=None, walls=None):
    """One flight of ``_Engine.run`` for each walk of the array state F,
    by its rules in its order of operations.  F's rows, updated in
    place, are (x, y, vx, vy, speed = hypot(vx, vy), t) of walks through
    disks of index n (0: all reflect), walk j in the field keyed by
    batch.keys[j], until t_max (one per walk); ``ev`` counts
    their events against MAX_EVENTS.  ``walls`` (lo, hi) bound a slab of
    hard disks; ``log`` is an ``_ArrayLog``.  Returns (t, t1, x, x1, end,
    left): each flight's segment in x, which walks have ended their run,
    and which of those left the slab.
    """
    x, y, vx, vy, speed, t = F.T.copy()
    r = batch.field.epsilon
    ux, uy = vx / speed, vy / speed
    s_budget = speed * (t_max - t)
    s_wall = np.full(len(F), np.inf)
    if walls is not None:  # _bound_cross: the nearer wall within budget
        with np.errstate(divide="ignore", invalid="ignore"):
            for s_w in ((walls[1] - x) / ux, (walls[0] - x) / ux):
                s_wall = np.minimum(s_wall, np.where(
                    (0.0 < s_w) & (s_w <= s_budget), s_w, np.inf))
    # a disk behind the wall is never reached: search up to the wall
    s_hit, cx, cy = batch._first_hits(x, y, ux, uy,
                                      np.minimum(s_wall, s_budget))
    left = (s_wall < np.inf) & ~(s_hit < s_wall)  # a tie goes to the wall
    hit = ~left & ~np.isnan(s_hit)
    s = np.where(left, s_wall, np.where(hit, s_hit, s_budget))
    x1, y1 = x + s * ux, y + s * uy
    t1 = np.where(left | hit, t + s / speed, t_max)
    F[:, 0], F[:, 1], F[:, 5] = x1, y1, t1
    h = np.flatnonzero(hit)
    ev[h] += 1
    if h.size and ev[h].max() > MAX_EVENTS:
        j = h[np.argmax(ev[h])]
        raise StuckParticleError(
            f"{ev[j]} events before reaching t = {t_max[j]}")

    xe, ye, te, vx, vy, speed, ux, uy, cx, cy = (v[h] for v in (
        x1, y1, t1, vx, vy, speed, ux, uy, cx, cy))
    rho = np.clip(((cx - xe) * uy - (cy - ye) * ux) / r, -1.0, 1.0)
    refl = (n == 0.0) | (np.abs(rho) > n)
    if log is not None:
        log.path(np.arange(len(F)), t1, x1, y1)
        log.event(h, te, cx, cy, rho, ~refl)
    a, b = np.flatnonzero(refl), np.flatnonzero(~refl)
    ox, oy = xe[a] - cx[a], ye[a] - cy[a]
    onorm = _each(math.hypot, ox, oy)
    ox, oy = ox / onorm, oy / onorm
    d = 2.0 * (ox * vx[a] + oy * vy[a])
    wx, wy = vx[a] - d * ox, vy[a] - d * oy
    sp = _each(math.hypot, wx, wy)
    xa, ya = xe[a] + _PUSH * wx / sp, ye[a] + _PUSH * wy / sp
    F[h[a]] = np.column_stack([xa, ya, wx, wy, sp, te[a]])
    if log is not None:
        log.path(h[a], te[a], xa, ya)
    if walls is not None:
        # off a disk that straddles a wall, the push can carry the walk
        # out through the wall: it has left the slab
        left[h[a]] = ((xa < walls[0]) & (wx < 0.0)) | ((xa > walls[1])
                                                       & (wx > 0.0))
    if b.size:
        # refracted traversal: the interior chord bends by half the
        # deflection at entry and the other half at exit
        theta = _each(deflection_angle, rho[b], n)
        ch, sh = _each(math.cos, 0.5 * theta), _each(math.sin, 0.5 * theta)
        dx, dy = ch * ux[b] - sh * uy[b], sh * ux[b] + ch * uy[b]
        q = _each(pow, np.abs(rho[b]) / n, 2.0)
        v_int = n * speed[b]
        stop, xo, yo, t2 = _chords(
            xe[b], ye[b], dx, dy, v_int,
            2.0 * r * np.sqrt(np.maximum(0.0, 1.0 - q)), te[b], t_max[h[b]])
        c2, s2 = _each(math.cos, theta), _each(math.sin, theta)
        wx, wy = c2 * vx[b] - s2 * vy[b], s2 * vx[b] + c2 * vy[b]
        xb, yb = xo + _PUSH * wx / speed[b], yo + _PUSH * wy / speed[b]
        # a walk stopped mid-chord keeps its interior velocity
        F[h[b]] = np.where(stop[:, None], np.column_stack([
            xo, yo, v_int * dx, v_int * dy, speed[b], t2]), np.column_stack(
            [xb, yb, wx, wy, _each(math.hypot, wx, wy), t2]))
        if log is not None:
            log.path(h[b], t2, xo, yo)
            log.path(h[b][~stop], t2[~stop], xb[~stop], yb[~stop])
    end = ~hit
    end[h] = left[h] | ~(F[h, 5] < t_max[h])
    return t, t1, x, x1, end, left


def _walks(field, m, new, spans, n, walls=None, tally=None, width=0,
           log=None):
    """The refill driver of every array-state walk: walks 0..m-1 through
    disks of index n (0: all reflect), each in the field of ``field``'s
    layout keyed by its key, each as ``_Engine.run`` runs it.

    ``new(a, b)`` gives the keys and starts (x, y, vx, vy) of walks
    a..b-1.  They are asked for in index order, ``_LIVE_WALKS`` at a time,
    and let in as others end, at most ``_LIVE_WALKS`` live at once.  A
    walk runs one time slice per entry of ``spans`` (each slice's
    duration; or one row of them per walk), each on its own clock: a new
    ``_Engine.run`` from where the last one stopped (``_resume``, then
    ``_flights`` per flight).  ``walls`` (lo, hi) bound a slab of hard
    disks, run in one slice: a walk that starts inside a disk ends at
    once, as ``_run_injection``'s does.  ``tally(acc, t, t1, x, x1)``
    adds each flight's segment in x to its walks' rows of ``width``
    accumulators, which start each slice at 0; ``log`` is an
    ``_ArrayLog`` of walks 0..m-1.

    Yields, step by step, the slices that ended: the arrays (walk, slice,
    state (x, y, vx, vy, speed, t), events, accumulators, timed_out), a
    slice timed out unless it left the slab or never entered it.
    """
    spans = np.broadcast_to(spans, (m, np.shape(spans)[-1]))
    asked = 0
    # walks asked for and not yet let in: index, key, state
    wait = [np.zeros(0, np.int64), np.zeros(0, np.uint64), np.zeros((0, 6))]
    # live walks: (x, y, vx, vy, speed, t), (walk, slice, events in the
    # slice, whether the slice is to start), key, accumulators
    F, I = np.zeros((0, 6)), np.zeros((0, 4), np.int64)
    K, A = np.zeros(0, np.uint64), np.zeros((0, width))

    def step(kernel, rows, *args, **kw):
        # kernel on the live walks ``rows``, in place
        if log is not None:
            log.ids = I[rows, 0]
        G = F[rows]
        out = kernel(_FieldBatch(field, K[rows]), G, *args, log=log, **kw)
        F[rows] = G
        return out

    while asked < m or len(wait[0]) or len(F):
        need = _LIVE_WALKS - len(F)
        if len(wait[0]) < need and asked < m:
            # a whole block at once: keys and starts cost a pass each
            j = np.arange(asked, min(m, asked + _LIVE_WALKS))
            keys, starts = new(asked, asked + len(j))
            asked += len(j)
            G = np.column_stack([np.reshape(starts, (-1, 4)),
                                 np.zeros((len(j), 2))])
            wait = [np.concatenate(p) for p in zip(wait, (j, keys, G))]
        (j, keys, G), wait = ([a[:need] for a in wait],
                              [a[need:] for a in wait])
        if walls is not None and len(j):
            # a wall point covered by a disk: the walk never enters
            c = ~np.isnan(_FieldBatch(field, keys)._containing(G[:, 0],
                                                               G[:, 1])[0])
            z = np.zeros(int(c.sum()), np.int64)
            yield (j[c], z, G[c], z, np.zeros((len(z), width)),
                   np.zeros(len(z), dtype=bool))
            j, keys, G = j[~c], keys[~c], G[~c]
        F, K = np.concatenate([F, G]), np.concatenate([K, keys])
        I = np.concatenate([I, np.column_stack([
            j, np.zeros((len(j), 2), np.int64), np.ones_like(j)])])
        A = np.concatenate([A, np.zeros((len(j), width))])
        t_max = spans[I[:, 0], I[:, 1]]
        rows = np.flatnonzero(I[:, 3])
        if rows.size:
            step(_resume, rows, t_max[rows], n)
        end = ~(F[:, 5] < t_max)
        left = np.zeros(len(F), dtype=bool)
        # every live walk, in place, unless some ended on starting
        rows = np.flatnonzero(~end) if end.any() else slice(None)
        if not end.all():
            ev = I[rows, 2]
            t, t1, x, x1, end[rows], left[rows] = step(
                _flights, rows, ev, t_max[rows], n, walls=walls)
            I[rows, 2] = ev
            if tally is not None:
                acc = A[rows]
                tally(acc, t, t1, x, x1)
                A[rows] = acc
        e = np.flatnonzero(end)
        if e.size:
            yield I[e, 0], I[e, 1], F[e], I[e, 2], A[e], ~left[e]
        # the slices that ended: the next one is to start
        I[e, 1] += 1
        I[e, 2], F[e, 5], A[e], I[:, 3] = 0, 0.0, 0.0, end
        keep = I[:, 1] < spans.shape[1]
        F, I, K, A = F[keep], I[keep], K[keep], A[keep]


class _ArrayLog:
    """The logs of walks 0..n-1 of an array walk through barriers, as
    rows of path points (walk, t, x, y) and events (walk, t, cx, cy, rho,
    traversed) that each ``_resume`` or ``_flights`` call appends in the
    order ``_Engine.run`` logs them (``ids``, set by ``_walks``, gives the
    walk of each row of the state the call is given).  Sorted stably by
    walk, they give the ``TrajectoryLog``s (``logs``) and the pathology
    counts of every walk (``pathologies``)."""

    def __init__(self, n):
        self.n, self.ids = n, None
        self._path, self._events = [np.zeros((0, 4))], [np.zeros((0, 6))]

    def path(self, rows, *txy):
        self._path.append(np.column_stack(np.broadcast_arrays(self.ids[rows],
                                                              *txy)))

    def event(self, rows, *cols):  # t, cx, cy, rho, traversed
        self._events.append(np.column_stack([self.ids[rows], *cols]))

    @staticmethod
    def _by_walk(parts):
        rows = np.concatenate(parts)
        return rows[np.argsort(rows[:, 0], kind="stable")]

    @property
    def logs(self):
        logs = [TrajectoryLog() for _ in range(self.n)]
        for j, t, x, y in self._by_walk(self._path).tolist():
            logs[int(j)].path.append((t, (x, y)))
        for j, t, cx, cy, rho, tr in self._by_walk(self._events).tolist():
            logs[int(j)].events.append(TrajectoryEvent(
                t, (cx, cy), rho, BARRIER_TRAVERSE if tr else TOTAL_REFLECT))
        return logs

    def pathologies(self, r):
        """``classify_pathologies`` of each walk's log (disks of radius r)
        in its order of operations: rows (recollisions, interferences,
        overlaps, collisions).  A walk's path times must not fall (the log
        of one run), so its segments before a time are a prefix."""
        n = self.n
        events = self._by_walk(self._events)
        w, t, cx, cy = events[:, :4].T
        w = w.astype(np.int64)
        # each walk's centers (exact float equality) in order of sighting
        u = np.sort(np.unique(events[:, [0, 2, 3]], axis=0,
                              return_index=True)[1])
        uw, ut, ux, uy = w[u], t[u], cx[u], cy[u]
        collisions = np.bincount(w, minlength=n)
        seen = np.bincount(uw, minlength=n)

        # overlaps: pairs a < b of a walk's centers, the squares by libm
        # pow on Python floats as the scalar rule takes them; x * x, within
        # an ulp of it, only picks the pairs near enough to ask
        a, b = _ranges(np.arange(1, u.size + 1), np.cumsum(seen)[uw] - 1)
        dx, dy = ux[a] - ux[b], uy[a] - uy[b]
        lim2 = (2.0 * r) ** 2
        near = np.flatnonzero(dx * dx + dy * dy < 2.0 * lim2)
        d2 = _each(lambda ex, ey: ex ** 2 + ey ** 2, dx[near], dy[near])
        overlaps = np.bincount(uw[a[near[d2 < lim2]]], minlength=n)

        # interferences: a center is crossed by a segment of its walk, of
        # points k and k + 1, that has length and starts before the
        # center's first sighting
        pw, pt, px, py = self._by_walk(self._path).T
        k = np.flatnonzero(pw[1:] == pw[:-1])
        first = np.searchsorted(pw[k], np.arange(n + 1))
        c, s = _ranges(first[uw], first[uw + 1] - 1)
        before = pt[k[s]] < ut[c]
        c, k = c[before], k[s[before]]
        x0, y0 = px[k], py[k]
        sx, sy = px[k + 1] - x0, py[k + 1] - y0
        seg2 = sx * sx + sy * sy
        with np.errstate(divide="ignore", invalid="ignore"):
            tproj = ((ux[c] - x0) * sx + (uy[c] - y0) * sy) / seg2
        tproj = np.where(tproj < 0.0, 0.0, np.where(tproj > 1.0, 1.0, tproj))
        ex = ux[c] - (x0 + tproj * sx)
        ey = uy[c] - (y0 + tproj * sy)
        thresh2 = (r * (1.0 - 1e-8)) ** 2
        crossed = np.unique(c[(seg2 != 0.0) & (ex * ex + ey * ey < thresh2)])
        interferences = np.bincount(uw[crossed], minlength=n)
        return np.column_stack([collisions - seen, interferences, overlaps,
                                collisions])


class _Engine:
    """One trajectory through one field; ``params=None`` means hard disks,
    the only disks ``x_bounds`` (a slab's walls) are for."""

    __slots__ = ("field", "hard", "radius", "n_index", "log", "on_segment",
                 "x_bounds")

    def __init__(self, field, params: BarrierParams | None,
                 log: TrajectoryLog | None = None, on_segment=None,
                 x_bounds=None):
        self.field = field
        self.hard = params is None
        self.radius = field.epsilon
        if not self.hard and (abs(field.epsilon - params.epsilon)
                              > 1e-12 * params.epsilon):
            raise ValueError("field.epsilon and params.epsilon disagree")
        self.n_index = 0.0 if self.hard else params.n_index
        self.log = log
        self.on_segment = on_segment
        self.x_bounds = x_bounds

    def run(self, x, y, vx, vy, t_max):
        """Returns (x, y, vx, vy, t_elapsed, exit_side)."""
        log = self.log
        bounds = self.x_bounds
        r = self.radius
        t = 0.0
        events = 0
        if log is not None:
            log.path.append((0.0, (x, y)))

        if self.hard or self.n_index > 0.0:
            inside = _find_containing_disk(self.field, x, y, r)
            if inside is not None:
                if self.hard:
                    # no trajectory from outside reaches a hard disk's interior
                    raise ValueError(
                        f"hard-disk run starts inside the disk at {inside}"
                    )
                x, y, vx, vy, t, side = self._escape(x, y, vx, vy, inside,
                                                     t, t_max)
                if side is not None or t >= t_max:
                    return x, y, vx, vy, t, side

        while t < t_max:
            speed = math.hypot(vx, vy)
            ux, uy = vx / speed, vy / speed
            remaining = t_max - t
            s_budget = speed * remaining
            bc = None
            if bounds is not None:
                bc = _bound_cross(x, ux, s_budget, bounds[0], bounds[1])
            # a disk behind the wall is never reached: search up to the wall
            hit = _first_hit(self.field, x, y, ux, uy, r,
                             s_budget if bc is None else bc[0])
            if bc is not None and (hit is None or bc[0] <= hit[0]):
                s_b, side = bc
                t1 = t + s_b / speed
                self._segment(t, t1, x, y, x + s_b * ux, y + s_b * uy, vx, vy)
                return x + s_b * ux, y + s_b * uy, vx, vy, t1, side

            if hit is None:
                x1, y1 = x + s_budget * ux, y + s_budget * uy
                self._segment(t, t_max, x, y, x1, y1, vx, vy)
                return x1, y1, vx, vy, t_max, None

            events += 1
            if events > MAX_EVENTS:
                raise StuckParticleError(
                    f"{events} events before reaching t = {t_max}"
                )

            s_in, (cx, cy) = hit
            xe, ye = x + s_in * ux, y + s_in * uy
            te = t + s_in / speed
            self._segment(t, te, x, y, xe, ye, vx, vy)
            t = te
            rho = ((cx - xe) * uy - (cy - ye) * ux) / r
            rho = max(-1.0, min(1.0, rho))

            if self.n_index == 0.0 or abs(rho) > self.n_index:
                ox, oy = xe - cx, ye - cy
                onorm = math.hypot(ox, oy)
                ox, oy = ox / onorm, oy / onorm
                d = 2.0 * (ox * vx + oy * vy)
                vx, vy = vx - d * ox, vy - d * oy
                kind = HARD_REFLECT if self.hard else TOTAL_REFLECT
                if log is not None:
                    log.events.append(TrajectoryEvent(t, (cx, cy), rho, kind))
                speed = math.hypot(vx, vy)
                x, y = xe + _PUSH * vx / speed, ye + _PUSH * vy / speed
                if log is not None:
                    log.path.append((t, (x, y)))
                # off a disk that straddles a wall, the push can carry the
                # particle out through the wall: it has left the slab
                if bounds is not None:
                    if x < bounds[0] and vx < 0.0:
                        return x, y, vx, vy, t, "left"
                    if x > bounds[1] and vx > 0.0:
                        return x, y, vx, vy, t, "right"
                continue

            # refracted traversal: the interior chord bends by half the
            # deflection at entry and the other half at exit
            n = self.n_index
            theta = deflection_angle(rho, n)
            half = 0.5 * theta
            ch, sh = math.cos(half), math.sin(half)
            dx, dy = ch * ux - sh * uy, sh * ux + ch * uy  # interior direction
            chord = 2.0 * r * math.sqrt(max(0.0, 1.0 - (abs(rho) / n) ** 2))
            v_int = n * speed
            if log is not None:
                log.events.append(
                    TrajectoryEvent(t, (cx, cy), rho, BARRIER_TRAVERSE)
                )
            stop, xo, yo, t = self._chord(xe, ye, dx, dy, v_int * dx,
                                          v_int * dy, v_int, chord, t, t_max)
            if stop is not None:
                return stop
            c2, s2 = math.cos(theta), math.sin(theta)
            vx, vy = c2 * vx - s2 * vy, s2 * vx + c2 * vy
            x, y = xo + _PUSH * vx / speed, yo + _PUSH * vy / speed
            if log is not None:
                log.path.append((t, (x, y)))

        return x, y, vx, vy, t, None

    def _escape(self, x, y, vx, vy, center, t, t_max):
        """Finish the interior chord when the run starts inside a disk."""
        r = self.radius
        cx, cy = center
        v_int = math.hypot(vx, vy)
        ux, uy = vx / v_int, vy / v_int
        wx, wy = x - cx, y - cy
        b = -(wx * ux + wy * uy)
        disc = b * b - (wx * wx + wy * wy - r * r)
        s_out = b + math.sqrt(max(0.0, disc))
        stop, xo, yo, t1 = self._chord(x, y, ux, uy, vx, vy, v_int, s_out,
                                       t, t_max)
        if stop is not None:
            return stop
        # out through the outward normal m: the tangential sine scales
        # by n on the way out (n < 1, so it never traps)
        mx, my = (xo - cx) / r, (yo - cy) / r
        c1 = ux * mx + uy * my
        sx, sy = self.n_index * (ux - c1 * mx), self.n_index * (uy - c1 * my)
        c2 = math.sqrt(max(0.0, 1.0 - (sx * sx + sy * sy)))
        ex, ey = sx + c2 * mx, sy + c2 * my
        speed_out = v_int / self.n_index
        vx, vy = speed_out * ex, speed_out * ey
        xo, yo = xo + _PUSH * ex, yo + _PUSH * ey
        if self.log is not None:
            self.log.path.append((t1, (xo, yo)))
        return xo, yo, vx, vy, t1, None

    def _chord(self, x, y, dx, dy, vx, vy, v_int, length, t, t_max):
        """Walk ``length`` along unit (dx, dy) inside a disk at velocity
        (vx, vy) of speed v_int.

        Returns (stop, x_out, y_out, t_out): the chord's end point and
        time, or ``stop``, the run's final result, when the time budget
        runs out mid-chord (the particle stays inside with its interior
        velocity).
        """
        transit = length / v_int
        if transit > t_max - t:
            s_part = (t_max - t) * v_int
            x1, y1 = x + s_part * dx, y + s_part * dy
            self._segment(t, t_max, x, y, x1, y1, vx, vy)
            return (x1, y1, vx, vy, t_max, None), None, None, None
        xo, yo = x + length * dx, y + length * dy
        t1 = t + transit
        self._segment(t, t1, x, y, xo, yo, vx, vy)
        return None, xo, yo, t1

    def _segment(self, t0, t1, x0, y0, x1, y1, vx, vy):
        if self.on_segment is not None:
            self.on_segment(t0, t1, x0, y0, x1, y1, vx, vy)
        if self.log is not None:
            self.log.path.append((t1, (x1, y1)))


def advance(state: ParticleState, field, params: BarrierParams | None,
            t: float) -> tuple[ParticleState, TrajectoryLog]:
    """Flow the state for duration t through the field.

    Returns the state at time t and the ordered event/path log;
    ``params=None`` flows through hard disks.  Through barriers the
    particle normally starts outside every disk; a start inside a disk
    (as returned by a mid-chord stop) resumes the interior chord first,
    while a hard-disk start inside a disk raises ValueError.  More than
    MAX_EVENTS boundary events raise StuckParticleError.
    """
    if t < 0.0:
        raise ValueError("duration must be nonnegative")
    log = TrajectoryLog()
    eng = _Engine(field, params, log=log)
    x, y, vx, vy, _, _ = eng.run(state.x[0], state.x[1],
                                 state.v[0], state.v[1], t)
    return ParticleState((x, y), (vx, vy)), log


def backward_flow(state: ParticleState, field, params: BarrierParams | None,
                  t: float):
    """advance applied to (x, -v), with the returned velocity negated.

    Velocity reversal realizes the backward flow exactly because the
    dynamics is time reversible.
    """
    rev = ParticleState(state.x, -np.asarray(state.v, dtype=float))
    out, log = advance(rev, field, params, t)
    return ParticleState(out.x, -out.v), log


def classify_pathologies(log: TrajectoryLog, field) -> PathologyReport:
    """Count overlap/recollision/interference events in a trajectory log.

    overlaps: unordered pairs of collided scatterers closer than 2 eps;
    recollisions: events re-entering a previously collided scatterer;
    interferences: scatterers whose disk is crossed by a path segment
    earlier than their first collision.
    """
    r = field.epsilon
    events = log.events
    q = len(events)

    first_seen: dict[tuple[float, float], float] = {}
    recollisions = 0
    for ev in events:
        if ev.center in first_seen:
            recollisions += 1
        else:
            first_seen[ev.center] = ev.time

    centers = list(first_seen)
    overlaps = 0
    lim2 = (2.0 * r) ** 2
    for i in range(len(centers)):
        xi, yi = centers[i]
        for j in range(i + 1, len(centers)):
            xj, yj = centers[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 < lim2:
                overlaps += 1

    interferences = 0
    thresh2 = (r * (1.0 - 1e-8)) ** 2
    path = log.path
    for (cx, cy), t_first in first_seen.items():
        for k in range(len(path) - 1):
            t0, (x0, y0) = path[k]
            t1, (x1, y1) = path[k + 1]
            if t0 >= t_first:
                break
            dx, dy = x1 - x0, y1 - y0
            seg2 = dx * dx + dy * dy
            if seg2 == 0.0:
                continue
            tproj = ((cx - x0) * dx + (cy - y0) * dy) / seg2
            tproj = 0.0 if tproj < 0.0 else (1.0 if tproj > 1.0 else tproj)
            ex = cx - (x0 + tproj * dx)
            ey = cy - (y0 + tproj * dy)
            if ex * ex + ey * ey < thresh2:
                interferences += 1
                break
    return PathologyReport(overlaps, recollisions, interferences, q)
