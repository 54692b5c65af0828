"""Macroscopic reference solutions and the boundary-driven slab run.

The heat solver is a plain explicit finite-difference scheme on a
rectangular grid with reflecting edges, used as the reference the
transport ensembles are compared against.  The slab experiment realizes
the nonequilibrium steady state directly: particles are injected at the
two walls with flux-weighted angles at rates proportional to the
reservoir densities, evolved by hard-disk dynamics until they leave,
and the stationary density/flux are read off from occupation times and
signed bin-face crossings.  That long-run injection average is the
standard particle realization of a boundary-driven steady state; the
fixed-point characterization of the stationary density is only the
rationale for why it converges.

The injections of a chunk advance in lockstep: their engines' field
queries are answered together, one numpy search per step over each
injection's strip of centers.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from itertools import islice

import numpy as np

from .dynamics import (HIT_QUERY, INSIDE_QUERY, _TANGENT_TOL, _Engine,
                       _find_containing_disk, _first_hit)
from .medium import FieldSpec, PlantedField, ScattererField, strip_centers
from .parallel import run_ensemble
from .rng import mix_key, rng_stream

__all__ = [
    "HeatProblem",
    "SlabSpec",
    "SlabResult",
    "solve_heat",
    "stationary_profile",
    "fick_flux",
    "simulate_slab_stationary",
    "slab_field_spec",
]

# Injections per chunk of the slab ensemble.
SLAB_CHUNK = 1024
# Injections live at once in the lockstep driver, queries per numpy
# search, and injections whose strips are generated per numpy pass.
# Each injection's result is its own, so the bytes depend on none of
# them; the last two bound the working set.
_LOCKSTEP = 128
_SEARCH = 32
_GENERATE = 32
# y-period images of a strip searched per query round
_IMAGES = 2


@dataclass
class HeatProblem:
    """Explicit-scheme heat equation setup on a square-celled grid.

    The stability bound D*dt/dx^2 <= 0.25 (2D explicit scheme) is
    enforced at construction.
    """

    D: float
    initial: np.ndarray
    dx: float
    dt: float

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        if self.D < 0.0:
            raise ValueError("D must be nonnegative")
        if self.dx <= 0.0 or self.dt <= 0.0:
            raise ValueError("dx and dt must be positive")
        if np.any(self.initial < 0.0):
            raise ValueError("initial density must be nonnegative")
        if self.D * self.dt / self.dx**2 > 0.25 + 1e-15:
            raise ValueError(
                f"CFL violated: D*dt/dx^2 = {self.D * self.dt / self.dx ** 2:g} > 0.25"
            )


def _heat_step(u: np.ndarray, lam: float) -> np.ndarray:
    p = np.pad(u, 1, mode="edge")  # reflecting edges: zero flux, mass exact
    return u + lam * (
        p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * u
    )


def solve_heat(problem: HeatProblem, t: float) -> np.ndarray:
    """Density grid at time t on a closed (reflecting) domain."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    u = problem.initial.copy()
    if problem.D == 0.0 or t == 0.0:
        return u
    lam = problem.D * problem.dt / problem.dx**2
    n_full = int(t / problem.dt)
    for _ in range(n_full):
        u = _heat_step(u, lam)
    rem = t - n_full * problem.dt
    if rem > 1e-15 * t:
        u = _heat_step(u, problem.D * rem / problem.dx**2)
    return u


@dataclass(frozen=True)
class SlabSpec:
    """Slab (0, L) x R with mass reservoirs at densities rho1 (left)
    and rho2 (right), hard disks of collision radius epsilon, intensity
    mu * eta / epsilon.

    The reservoir densities are per unit free area (the area outside
    every disk), the same convention as the simulated profile.
    """

    L: float
    rho1: float
    rho2: float
    eta: float
    epsilon: float
    mu: float = 1.0

    def __post_init__(self):
        if self.L <= 0.0:
            raise ValueError("L must be positive")
        if self.rho1 < 0.0 or self.rho2 < 0.0:
            raise ValueError("reservoir densities must be nonnegative")
        if self.eta <= 0.0 or self.epsilon <= 0.0 or self.mu <= 0.0:
            raise ValueError("eta, epsilon, mu must be positive")
        if math.sqrt(self.epsilon) * self.eta**6 > 1.0:
            warnings.warn(
                f"slab regime guard: eps^(1/2)*eta^6 = "
                f"{math.sqrt(self.epsilon) * self.eta ** 6:g} > 1",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def mu_eff(self) -> float:
        return self.mu * self.eta / self.epsilon


def stationary_profile(slab: SlabSpec):
    """Linear density profile between the reservoir values."""

    def profile(x1):
        x1 = np.asarray(x1, dtype=float)
        return (slab.rho1 * (slab.L - x1) + slab.rho2 * x1) / slab.L

    return profile


def fick_flux(slab: SlabSpec, D: float) -> float:
    """Stationary flux -D (rho2 - rho1) / L; constant across the slab."""
    if D <= 0.0:
        raise ValueError("D must be positive")
    return -D * (slab.rho2 - slab.rho1) / slab.L


def slab_field_spec(slab: SlabSpec, seed: int,
                    y_period_cells: int = 16) -> FieldSpec:
    """Scatterer-field parameters realizing the slab intensity.

    The field takes the slab's epsilon (the collision radius) and eta,
    so its realized intensity is exactly SlabSpec.mu_eff.  The
    realization is periodic in y with period y_period_cells cells of
    the default size 4 * epsilon, so the default period is 64 * epsilon.
    """
    return FieldSpec(
        mu=slab.mu,
        epsilon=slab.epsilon,
        seed=seed,
        eta=slab.eta,
        y_period=y_period_cells * 4.0 * slab.epsilon,
    )


@dataclass
class SlabResult:
    """Stationary profile and flux estimates with per-bin standard errors."""

    x_centers: np.ndarray
    rho_hat: np.ndarray
    rho_se: np.ndarray
    face_x: np.ndarray
    J_hat: np.ndarray
    J_se: np.ndarray
    rho_halves: np.ndarray  # (2, n_bins): first/second injection half
    rho_halves_se: np.ndarray
    n_injections: int
    n_timeouts: int
    metadata: dict = dc_field(default_factory=dict)


def _poisson_injection_field(base: FieldSpec, injection: int):
    """Injection i's member of the slab's own Poisson ensemble."""
    return ScattererField(replace(base, seed=mix_key(base.seed, injection)))


def _layout(field: ScattererField):
    """What fixes a Poisson field's cells besides its seed."""
    return field._mean, field.cell_size, field._ny


def _bin_segment(tau, net, dxb, t0, t1, ax, ay, bx, by, vx, vy):
    """Add one flight segment to an injection's occupation time per bin
    (``tau``) and net signed crossings per bin face (``net``)."""
    n_bins = len(tau)
    if ax == bx:
        b = min(n_bins - 1, max(0, int(ax / dxb)))
        tau[b] += t1 - t0
        return
    inv = (t1 - t0) / abs(bx - ax)  # time per unit |x| travel
    lo, hi = (ax, bx) if ax < bx else (bx, ax)
    b0 = min(n_bins - 1, max(0, int(lo / dxb)))
    b1 = min(n_bins - 1, max(0, int(hi / dxb)))
    if b0 == b1:
        tau[b0] += (hi - lo) * inv
    else:
        tau[b0] += ((b0 + 1) * dxb - lo) * inv
        tau[b1] += (hi - b1 * dxb) * inv
        if b1 > b0 + 1:
            tau[b0 + 1:b1] += dxb * inv
    sgn = 1.0 if bx > ax else -1.0
    j0 = int(math.floor(lo / dxb)) + 1
    j1 = int(math.floor(hi / dxb))
    j0 = max(j0, 1)
    j1 = min(j1, n_bins - 1)
    if j0 <= j1:
        net[j0 - 1:j1] += sgn


def _run_injection(field, slab, x0, y0, vx, vy, n_bins, t_max):
    """One trajectory; returns (occupation per bin, net face crossings,
    timed_out).

    A wall point covered by a disk contributes nothing: a reservoir
    particle aimed at it hits that disk before it reaches the wall.
    This is the scalar form of ``_run_lockstep``, and its oracle.
    """
    tau = np.zeros(n_bins)
    net = np.zeros(n_bins - 1)
    if _find_containing_disk(field, x0, y0, field.epsilon) is not None:
        return tau, net, False
    eng = _Engine(field, None,
                  on_segment=partial(_bin_segment, tau, net, slab.L / n_bins),
                  x_bounds=(0.0, slab.L))
    _, _, _, _, _, side = eng.run(x0, y0, vx, vy, t_max)
    return tau, net, side is None


class _Strips:
    """Scatterer centers of the live injections, searched in bulk.

    A live injection holds a row: its field's centers in scan order,
    NaN-padded, and the row's geometry.  A y-periodic Poisson field's row
    is one period over the columns a slab query can reach; it stands for
    its images shifted by whole periods, (k * ny) * cell_size as the
    field shifts them.  These rows are generated ahead, a batch of
    injections per ``strip_centers`` call.  A planted field's row is
    every center.  Any other field, and a ray that runs outside its
    row's columns, gets the scalar search.
    """

    # (ny, cell size, period, x_lo, x_hi) of a planted field's row
    APERIODIC = (0, 0.0, np.inf, -np.inf, np.inf)

    def __init__(self, slab, n_rows):
        r = self.radius = slab.epsilon
        # a query is answered in bulk only if every center its scalar
        # search could meet lies this far inside the candidates
        self.slack = 0.25 * r
        self.slab = slab
        self.made = {}  # injection -> (cx, cy, geometry) or None, until opened
        self.field_of = {}
        self.row_of = {}
        self.free = list(range(n_rows - 1, -1, -1))
        self.cx = np.full((n_rows, 1), np.nan)
        self.cy = np.full((n_rows, 1), np.nan)
        self.ny = np.zeros(n_rows, dtype=np.int64)
        self.cell = np.zeros(n_rows)
        self.period = np.full(n_rows, np.inf)
        self.x_lo = np.full(n_rows, -np.inf)
        self.x_hi = np.full(n_rows, np.inf)

    def prepare(self, batch):
        """Make the rows-to-be of a batch of (injection, field) pairs."""
        r = self.radius
        periodic = []
        for j, f in batch:
            self.made[j] = None  # the scalar search's
            if isinstance(f, PlantedField) and f.epsilon == r:
                pts = np.array(f.centers(), dtype=float).reshape(-1, 2)
                self.made[j] = (pts[:, 0], pts[:, 1], self.APERIODIC)
            # two images of a period of at least 3r cover a ray's reach
            # with room to advance; one strip_centers call, one layout
            elif (isinstance(f, ScattererField) and f.epsilon == r
                  and f._ny * f.cell_size >= 3.0 * r
                  and (not periodic or _layout(f) == _layout(periodic[0][1]))):
                periodic.append((j, f))
        if not periodic:
            return
        f0 = periodic[0][1]
        cs = f0.cell_size
        cx, cy, counts = strip_centers(
            [f for _, f in periodic], math.floor(-2.0 * r / cs),
            math.floor((self.slab.L + 2.0 * r) / cs))
        geometry = (f0._ny, cs, f0._ny * cs, -0.5 * r, self.slab.L + 0.5 * r)
        ends = np.cumsum(counts)
        for (j, _), a, b in zip(periodic, ends - counts, ends):
            self.made[j] = (cx[a:b], cy[a:b], geometry)

    def open(self, j, field):
        """Take injection j live, its centers into a row if it has one."""
        self.field_of[j] = field
        made = self.made.pop(j)
        if made is None:
            return
        cx, cy, geometry = made
        row = self.free.pop()
        if len(cx) > self.cx.shape[1]:
            grow = ((0, 0), (0, len(cx) - self.cx.shape[1]))
            self.cx = np.pad(self.cx, grow, constant_values=np.nan)
            self.cy = np.pad(self.cy, grow, constant_values=np.nan)
        self.cx[row] = np.nan
        self.cy[row] = np.nan
        self.cx[row, :len(cx)] = cx
        self.cy[row, :len(cy)] = cy
        (self.ny[row], self.cell[row], self.period[row], self.x_lo[row],
         self.x_hi[row]) = geometry
        self.row_of[j] = row

    def close(self, j):
        """Injection j has finished; free its row."""
        del self.field_of[j]
        if j in self.row_of:
            self.free.append(self.row_of.pop(j))

    def answer(self, queries: dict) -> dict:
        """Answers to ``_Engine.walk`` queries, keyed like ``queries`` by
        injection, each the one ``_first_hit`` or ``_find_containing_disk``
        gives on the injection's field."""
        out = {}
        hits, insides = [], []
        for j, q in queries.items():
            row = self.row_of.get(j)
            x0 = x1 = q[1]
            if q[0] == HIT_QUERY:
                x1 += q[5] * q[3]
            if row is None or not (self.x_lo[row] <= min(x0, x1)
                                   and max(x0, x1) <= self.x_hi[row]):
                out[j] = self._scalar(j, q)
            elif q[0] == HIT_QUERY:
                hits.append(j)
            else:
                insides.append(j)
        for js, search in ((hits, self._first_hits),
                           (insides, self._containing)):
            for a in range(0, len(js), _SEARCH):
                part = js[a:a + _SEARCH]
                out.update(zip(part, search(
                    np.array([self.row_of[j] for j in part]),
                    np.array([queries[j][1:] for j in part]))))
        return out

    def _scalar(self, j, q):
        if q[0] == HIT_QUERY:
            return _first_hit(self.field_of[j], *q[1:5], self.radius, q[5])
        return _find_containing_disk(self.field_of[j], q[1], q[2],
                                     self.radius)

    def _images(self, rows, y, up):
        """Row images for a ray from height y going up (or down): the
        y-range they cover and the shifts of the ``_IMAGES`` images."""
        period = self.period[rows]
        reach = self.radius + self.slack
        first = np.where(up, np.floor((y - reach) / period),
                         np.floor((y + reach) / period) - (_IMAGES - 1)
                         ).astype(np.int64)
        k = first[:, None] + np.arange(_IMAGES)
        shift = (k * self.ny[rows][:, None]) * self.cell[rows][:, None]
        return first, period, shift

    def _first_hits(self, rows, q):
        """``_first_hit`` for many rays.

        A round searches each ray up to s_hi, as far as its two images
        hold every center within reach of it, and settles the ray if it
        has a hit by then or s_hi is its s_max; the rest go on from
        s_hi.  The earliest entry in (0, s_hi] over all disks is what the
        scalar march finds.  An exact tie between two disks goes to the
        first in image, then scan order: the scalar's order for a planted
        field, and a Poisson field has no ties.
        """
        out = [None] * len(rows)
        x, y, ux, uy, s_max = q.T
        r = self.radius
        r2 = r * r
        reach = r + self.slack
        s_lo = np.zeros(len(rows))
        todo = np.arange(len(rows))
        while todo.size:
            j = rows[todo]
            xt, yt = x[todo, None], y[todo, None]
            uxt, uyt = ux[todo, None], uy[todo, None]
            up = uy[todo] >= 0.0
            first, period, shift = self._images(
                j, y[todo] + s_lo[todo] * uy[todo], up)
            # how far along the ray every center within reach is a
            # candidate; all of it for an aperiodic row or a level ray
            with np.errstate(divide="ignore", invalid="ignore"):
                edge = np.where(up, (first + _IMAGES) * period - reach,
                                first * period + reach)
                s_hi = (edge - y[todo]) / uy[todo]
            s_hi = np.where(np.isfinite(period) & (uy[todo] != 0.0),
                            np.minimum(s_hi, s_max[todo]), s_max[todo])
            # keep the centers a ray can enter by s_hi: ahead of it and
            # within reach of its line (NaN padding drops out here)
            cy = self.cy[j]
            wx = self.cx[j] - xt
            bx = wx * uxt
            ox = wx * uyt
            picks = []
            for k in range(_IMAGES):
                wy = cy + shift[:, k:k + 1]
                wy -= yt
                b = wy * uyt
                b += bx
                off = wy * uxt
                off -= ox
                near = np.abs(off, out=off) <= reach
                near &= b > 0.0
                near &= b <= s_hi[:, None] + reach
                p, c = np.nonzero(near)
                picks.append((p, np.full(p.size, k), c, wy[p, c], b[p, c]))
            p, k, c, wy, b = (np.concatenate(a) for a in zip(*picks))
            wx = wx[p, c]
            # _first_hit's disk test, in its order of operations
            w2 = wx * wx + wy * wy
            disc = b * b - (w2 - r2)
            with np.errstate(invalid="ignore"):
                s_in = b - np.sqrt(disc)
            ok = ~(w2 < r2)  # started inside (overlap): no interaction
            ok &= ~(disc < _TANGENT_TOL * r2)  # tangential graze: a miss
            ok &= (0.0 < s_in) & (s_in <= s_hi[p])
            p, k, c, s_in = p[ok], k[ok], c[ok], s_in[ok]
            # each ray's earliest entry; a tie keeps scan order
            order = np.lexsort((c, k, s_in, p))
            lead = order[np.unique(p[order], return_index=True)[1]]
            found = np.zeros(len(todo), dtype=bool)
            found[p[lead]] = True
            for i, kk, cc, s in zip(p[lead].tolist(), k[lead].tolist(),
                                    c[lead].tolist(), s_in[lead].tolist()):
                t = j[i]
                out[todo[i]] = (s, (self.cx[t, cc].item(), (
                    self.cy[t, cc] + shift[i, kk]).item()))
            done = found | (s_hi >= s_max[todo])
            s_lo[todo] = s_hi
            todo = todo[~done]
        return out

    def _containing(self, rows, q):
        """``_find_containing_disk`` for many points: whether a disk
        contains the point, and if so one that does."""
        x, y = q.T
        r2 = self.radius * self.radius
        _, _, shift = self._images(rows, y, np.ones(len(rows), dtype=bool))
        d2 = (((self.cx[rows] - x[:, None]) ** 2)[:, None, :]
              + ((self.cy[rows][:, None, :] + shift[:, :, None])
                 - y[:, None, None]) ** 2)
        inside = (d2 < r2).reshape(len(rows), -1)
        first = inside.argmax(axis=1)
        n_c = self.cx.shape[1]
        out = [None] * len(rows)
        for i in np.flatnonzero(inside.any(axis=1)).tolist():
            k, c = divmod(int(first[i]), n_c)
            out[i] = (self.cx[rows[i], c].item(),
                      (self.cy[rows[i], c] + shift[i, k]).item())
        return out


def _run_lockstep(slab, injections, n, n_bins, t_max):
    """(tau, net, timed_out) of each of the n (field, start) pairs that
    ``injections`` yields, row j equal to ``_run_injection(field, slab,
    *start, n_bins, t_max)`` for the j-th pair.

    Up to ``_LOCKSTEP`` injections are live at once, each a suspended
    ``_Engine.walk``.  Every step answers all their pending field
    queries together, then resumes each walk; a finished injection's
    place goes to the next one waiting.  Pairs are taken
    ``_GENERATE`` at a time, as their strips are generated.
    """
    dxb = slab.L / n_bins
    tau = np.zeros((n, n_bins))
    net = np.zeros((n, n_bins - 1))
    timed_out = np.zeros(n, dtype=bool)
    strips = _Strips(slab, _LOCKSTEP)
    pending = enumerate(injections)
    ready = deque()
    walks, queries = {}, {}

    def start_next():
        if not ready:
            ready.extend(islice(pending, _GENERATE))
            strips.prepare([(j, field) for j, (field, _) in ready])
        if ready:
            j, (field, start) = ready.popleft()
            strips.open(j, field)
            eng = _Engine(field, None, on_segment=partial(
                _bin_segment, tau[j], net[j], dxb), x_bounds=(0.0, slab.L))
            walks[j] = eng.walk(*start, t_max)
            queries[j] = next(walks[j])

    def finish(j):
        del queries[j], walks[j]
        strips.close(j)
        start_next()

    for _ in range(_LOCKSTEP):
        start_next()
    while queries:
        for j, answer in strips.answer(queries).items():
            if queries[j][0] == INSIDE_QUERY and answer is not None:
                # the wall point is covered: the injection never enters
                walks[j].close()
                finish(j)
                continue
            try:
                queries[j] = walks[j].send(answer)
            except StopIteration as done:
                timed_out[j] = done.value[5] is None
                finish(j)
    return tau, net, timed_out


def _injection_start(slab, seed, width, i):
    """Wall point and inward flux-weighted velocity of injection i."""
    rng = rng_stream(seed, i)
    y0 = rng.random() * width
    phi = math.asin(2.0 * rng.random() - 1.0)  # flux-weighted inward angle
    vx, vy = math.cos(phi), math.sin(phi)
    if i % 2 == 0:  # left reservoir
        return 0.0, y0, vx, vy
    return slab.L, y0, -vx, vy


def _slab_chunk(payload):
    (slab, factory, seed, n_bins, t_max, n_total, width, i0, i1) = payload
    n_faces = n_bins - 1
    # per (side, half): occupation sums; per side: crossing sums
    sums = np.zeros((2, 2, n_bins))
    sqs = np.zeros((2, 2, n_bins))
    cnt = np.zeros((2, 2), dtype=np.int64)
    nsum = np.zeros((2, n_faces))
    nsq = np.zeros((2, n_faces))
    timeouts = 0
    half_at = n_total // 2
    chunk = range(i0, i1)
    taus, nets, timed_out = _run_lockstep(
        slab, ((factory(i), _injection_start(slab, seed, width, i))
               for i in chunk), len(chunk), n_bins, t_max)
    for i, tau, net, late in zip(chunk, taus, nets, timed_out):
        side = i % 2  # 0: left reservoir, 1: right
        half = 0 if i < half_at else 1
        sums[side, half] += tau
        sqs[side, half] += tau * tau
        cnt[side, half] += 1
        nsum[side] += net
        nsq[side] += net * net
        timeouts += int(late)
    return sums, sqs, cnt, nsum, nsq, timeouts


def simulate_slab_stationary(slab: SlabSpec, field_factory=None,
                             n_injections: int = 100_000, seed: int = 0, *,
                             n_bins: int = 16, t_max: float = 500.0,
                             workers: int = 1, y_period_cells: int = 16
                             ) -> SlabResult:
    """Boundary-injection estimate of the stationary density and flux.

    Alternating injections enter at the left wall (density weight rho1)
    and the right wall (weight rho2) with inward flux-weighted angles;
    each uses a fresh y-periodic field realization keyed by its index.
    An injection whose wall point lies inside a disk adds no
    occupation and no crossings but still counts as an injection.

    The density estimate in a bin of width dx is
    (rho1 E_left[occupation] + rho2 E_right[occupation]) / (pi dx phi),
    per unit free area: phi is the free-area fraction of the ensemble,
    exp(-mu_eff pi r^2) for the slab's Poisson field of radius-r disks.
    The flux at a bin face is eta * (rho1 E_left[net crossings] +
    rho2 E_right[net]) / pi, per unit wall length.  An equilibrium
    reservoir pair (rho1 = rho2) therefore reproduces a flat profile at
    that density and zero flux, with or without scatterers.

    ``field_factory(i)`` may supply the field for injection i (fixtures,
    empty fields; picklable when ``workers > 1``); the default is the
    slab's own Poisson ensemble.  A supplied field is taken to have
    phi = 1, exact for empty fields.  Injections run in chunks of
    SLAB_CHUNK, and the chunk sums are added in chunk order; within a
    chunk they advance in lockstep (``_run_lockstep``), each with the
    result the scalar ``_run_injection`` gives it.
    """
    if n_bins < 2 or n_injections < 2:
        raise ValueError("need at least 2 bins and 2 injections")
    spec = slab_field_spec(slab, mix_key(seed, 0xF1E1D),
                           y_period_cells=y_period_cells)
    width = spec.y_period
    free = 1.0
    if field_factory is None:
        field_factory = partial(_poisson_injection_field, spec)
        free = math.exp(-slab.mu_eff * math.pi * slab.epsilon**2)

    parts = run_ensemble(_slab_chunk, (slab, field_factory, seed, n_bins,
                                       t_max, n_injections, width),
                         n_injections, SLAB_CHUNK, workers)
    sums, sqs, cnt, nsum, nsq, timeouts = map(sum, zip(*parts))

    dxb = slab.L / n_bins
    w = np.array([[slab.rho1], [slab.rho2]])

    def estimate(sums_s, sqs_s, cnt_s, scale, norm):
        # reservoir-weighted mean over the two sides, and its standard error
        c = cnt_s[:, None]
        mean = sums_s / c
        var = (sqs_s - c * mean**2) / np.maximum(c - 1, 1)
        return (scale * (w * mean).sum(axis=0) / norm,
                scale * np.sqrt(((w / norm) ** 2 * var / c).sum(axis=0)))

    rho_norm = math.pi * dxb * free
    rho_hat, rho_se = estimate(sums.sum(axis=1), sqs.sum(axis=1),
                               cnt.sum(axis=1), 1.0, rho_norm)
    halves, halves_se = np.swapaxes([
        estimate(sums[:, h], sqs[:, h], cnt[:, h], 1.0, rho_norm)
        for h in (0, 1)], 0, 1)
    J_hat, J_se = estimate(nsum, nsq, cnt.sum(axis=1), slab.eta, math.pi)

    meta = {
        "y_period": width,
        "collision_radius": slab.epsilon,
        "mu_eff": slab.mu_eff,
        "free_area_fraction": free,
        "t_max": t_max,
        "n_bins": n_bins,
        "seed": seed,
    }
    return SlabResult(
        x_centers=(np.arange(n_bins) + 0.5) * dxb,
        rho_hat=rho_hat,
        rho_se=rho_se,
        face_x=np.arange(1, n_bins) * dxb,
        J_hat=J_hat,
        J_se=J_se,
        rho_halves=halves,
        rho_halves_se=halves_se,
        n_injections=n_injections,
        n_timeouts=timeouts,
        metadata=meta,
    )
