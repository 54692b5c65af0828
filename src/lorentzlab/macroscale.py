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

Each injection runs in its own member of the slab's Poisson ensemble,
keyed by its index (``medium.member_keys``).  A worker's injections run
as one array-state hard-disk walk between the walls through
``dynamics._walks``, the refill driver the mechanical ensembles share,
for hard disks the case n = 0; ``_bin_segments`` bins each flight.  The
scalar ``_run_injection`` is its oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .dynamics import _Engine, _find_containing_disk, _ranges, _walks
from .medium import FieldSpec, ScattererField, member_keys
from .parallel import queue_ensemble
from .rng import mix_key, philox_uniforms

__all__ = [
    "HeatProblem",
    "SlabSpec",
    "SlabResult",
    "solve_heat",
    "simulate_slab_stationary",
    "slab_field_spec",
]

# Injections per chunk of the slab ensemble.
SLAB_CHUNK = 1024


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


def slab_field_spec(slab: SlabSpec, seed: int,
                    y_period_cells: int = 16) -> FieldSpec:
    """Scatterer-field parameters realizing the slab intensity.

    The field takes the slab's epsilon (the collision radius) and eta,
    so its realized intensity is exactly SlabSpec.mu_eff.  The
    realization is periodic in y with period y_period_cells cells of
    side 4 * epsilon, so the default period is 64 * epsilon.
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
    This is the scalar form of ``_slab_chunks``' walk, and its oracle.
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


def _bin_segments(tau, net, dxb, t0, t1, ax, bx):
    """``_bin_segment`` for one segment per row of ``tau`` and ``net``,
    in its arithmetic; a row's bins and faces take one addition each."""
    n_bins = tau.shape[1]
    lo, hi = np.minimum(ax, bx), np.maximum(ax, bx)
    b0, b1 = (np.clip(np.trunc(v / dxb), 0, n_bins - 1).astype(np.int64)
              for v in (lo, hi))
    with np.errstate(all="ignore"):  # a point, or a hair's length
        inv = (t1 - t0) / np.abs(bx - ax)
        first = np.where(ax == bx, t1 - t0, np.where(
            b0 == b1, (hi - lo) * inv, ((b0 + 1) * dxb - lo) * inv))
        last = (hi - b1 * dxb) * inv
    i, b = _ranges(b0, b1)
    tau[i, b] += np.where(b == b0[i], first[i],
                          np.where(b == b1[i], last[i], dxb * inv[i]))
    i, j = _ranges(np.maximum(np.floor(lo / dxb).astype(np.int64) + 1, 1),
                   np.minimum(np.floor(hi / dxb).astype(np.int64),
                              n_bins - 1))
    net[i, j - 1] += np.where(bx > ax, 1.0, -1.0)[i]


def _injection_starts(slab, seed, width, i0, i1):
    """Wall point and inward flux-weighted velocity of injections
    i0..i1-1: injection i takes its height and its angle from draws 0
    and 1 of rng_stream(seed, i), all of them in one Philox pass."""
    u = philox_uniforms(seed, np.arange(i0, i1), 2)
    starts = []
    for i, y0, a in zip(range(i0, i1), (u[:, 0] * width).tolist(),
                        (2.0 * u[:, 1] - 1.0).tolist()):
        phi = math.asin(a)  # flux-weighted inward angle
        vx, vy = math.cos(phi), math.sin(phi)
        if i % 2 == 0:  # left reservoir
            starts.append((0.0, y0, vx, vy))
        else:
            starts.append((slab.L, y0, -vx, vy))
    return starts


def _fold(i0, half_at, taus, nets, timed_out):
    """Per (side, half) occupation sums and per side crossing sums of
    injections i0, i0 + 1, ... with rows taus, nets and timed_out, each
    row added onto 0 one at a time, in index order."""
    i = np.arange(i0, i0 + len(taus))
    side, half = i % 2, i >= half_at  # side 0: left reservoir, 1: right
    groups = [[(side == s) & (half == h) for h in (0, 1)] for s in (0, 1)]

    def total(rows, m):
        return np.add.accumulate(np.concatenate(
            [np.zeros((1, rows.shape[1])), rows[m]]))[-1]

    return (np.array([[total(taus, m) for m in g] for g in groups]),
            np.array([[total(taus * taus, m) for m in g] for g in groups]),
            np.array([[m.sum() for m in g] for g in groups]),
            np.array([total(nets, side == s) for s in (0, 1)]),
            np.array([total(nets * nets, side == s) for s in (0, 1)]),
            int(timed_out.sum()))


def _slab_chunks(payload):
    """The sums of each SLAB_CHUNK of injections i0..i1-1, in chunk
    order, injection i in the member of ``field``'s layout keyed by
    ``member_keys(parent, i, i + 1)``.  All of them run as one
    ``_walks`` walk, and a chunk's rows are folded once all are in."""
    (slab, field, parent, seed, n_bins, t_max, n_total, width,
     i0, i1) = payload
    dxb = slab.L / n_bins

    def new(a, b):
        return (member_keys(parent, i0 + a, i0 + b),
                _injection_starts(slab, seed, width, i0 + a, i0 + b))

    def tally(occ, *segment):
        _bin_segments(occ[:, :n_bins], occ[:, n_bins:], dxb, *segment)

    # by number, each chunk not yet folded: its rows of tau and net side
    # by side, its timed_out, and the count of its injections not ended
    pending, sums = {}, {}
    for j, _, _, _, occ, late in _walks(field, i1 - i0, new, (t_max,), 0.0,
                                        walls=(0.0, slab.L), tally=tally,
                                        width=2 * n_bins - 1):
        for c in np.unique(j // SLAB_CHUNK).tolist():
            a = c * SLAB_CHUNK
            m = j // SLAB_CHUNK == c
            if c not in pending:
                size = min(SLAB_CHUNK, i1 - i0 - a)
                pending[c] = [np.zeros((size, 2 * n_bins - 1)),
                              np.zeros(size, dtype=bool), size]
            chunk = pending[c]
            chunk[0][j[m] - a], chunk[1][j[m] - a] = occ[m], late[m]
            chunk[2] -= int(m.sum())
            if chunk[2] == 0:
                del pending[c]
                sums[c] = _fold(i0 + a, n_total // 2, chunk[0][:, :n_bins],
                                chunk[0][:, n_bins:], chunk[1])
    return [sums[c] for c in range(len(sums))]


def simulate_slab_stationary(slab: SlabSpec, n_injections: int = 100_000,
                             seed: int = 0, *,
                             n_bins: int = 16, t_max: float = 500.0,
                             workers: int = 1, y_period_cells: int = 16
                             ) -> SlabResult:
    """Boundary-injection estimate of the stationary density and flux.

    Alternating injections enter at the left wall (density weight rho1)
    and the right wall (weight rho2) with inward flux-weighted angles;
    each runs in its own member of the slab's y-periodic Poisson
    ensemble, keyed by its index.
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

    Injections are summed in chunks of SLAB_CHUNK, and the chunk sums
    are added in chunk order.  Each worker takes a run of whole chunks
    and walks them all together on one layout field (``_slab_chunks``),
    each injection with the result the scalar ``_run_injection`` gives
    it.
    """
    if n_bins < 2 or n_injections < 2:
        raise ValueError("need at least 2 bins and 2 injections")
    spec = slab_field_spec(slab, mix_key(seed, 0xF1E1D),
                           y_period_cells=y_period_cells)
    width = spec.y_period
    free = math.exp(-slab.mu_eff * math.pi * slab.epsilon**2)

    # each worker takes a run of whole chunks
    per_worker = SLAB_CHUNK * -(-n_injections
                                // (SLAB_CHUNK * max(workers, 1)))
    parts = queue_ensemble(_slab_chunks, (slab, ScattererField(spec),
                                          mix_key(spec.seed), seed, n_bins,
                                          t_max, n_injections, width),
                           n_injections, per_worker, workers)()
    sums, sqs, cnt, nsum, nsq, timeouts = map(
        sum, zip(*(chunk for part in parts for chunk in part)))

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
