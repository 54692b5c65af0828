"""Mesoscopic samplers and transport coefficients.

Two Markov processes stand between the mechanical flow and the heat
equation:

* the velocity-jump process: exponential waiting times at the total
  collision rate ``2 mu eps^(-2 alpha) |v|``, each jump rotating the
  velocity by the single-barrier angle at a uniform impact parameter;
* angular Brownian motion on the speed circle with generator
  ``c d^2/dphi^2``, ``c = B / speed**2`` (the angular-diffusion form of
  a collision operator equal to B times the Laplace-Beltrami operator
  on the circle of radius |v|).

The barrier's angle law comes from ``scattering.deflection_angle``, and
the jump law's mean cosine from ``scattering._gauss_kronrod``, the
quadrature that also gives the angular-diffusion coefficient
``landau_B_quadrature`` (bound here too).  Note the conversions between
parameterizations of the same angular diffusion: generator
c*d^2/dphi^2 <-> collision operator B*Laplace-Beltrami at radius |v| via
c = B/|v|^2; an operator written as (mu/2)(1/|v|)*Laplace-Beltrami
corresponds to B = mu/(2 |v|).

The spatial diffusion coefficient is defined operationally through the
heat-equation convention ``d_t rho = D lap rho``: in 2D,
``D = (1/2) * integral_0^inf E[v(0).v(t)] dt``, equivalently the late
slope of E|X(t)-X(0)|^2 / (4 t).  Three routes (closed-form VACF,
Monte Carlo VACF, Monte Carlo MSD) must agree, which pins the
normalization internally.  At c = mu/(2 |v|^3) the operational D is
|v|^5/mu; the textbook variants (2/mu)|v| int v.(-lap^-1)v dv
(normalized angular measure) and (2 pi/mu)|v|^2 int_0^inf E[v.V(t)] dt
(V under the bare Laplace-Beltrami operator) give 2 and 2 pi |v| times
that.

``sample_boltzmann_path`` draws one jump path as it goes from the
caller's generator.  The ensembles of jump paths (the Monte Carlo
routes of ``green_kubo_D`` and kinetic-compare's jump ensemble) run
batched instead: ``_jump_batch`` takes many paths' draws from
``rng.philox_uniforms`` in one pass and gives each path, bit for bit,
what ``sample_boltzmann_path`` gives it on ``rng_stream(seed, i)``; the
only per-element Python left is ``rng._each`` on the ``math`` calls
(``log1p`` and the deflection law) whose numpy versions round differently.

One kernel, ``_landau_paths``, samples the angular Brownian motion
into buffers its caller owns: ``sample_landau_path`` is its one-path
case, and the Monte Carlo routes run it over chunks of ``LANDAU_CHUNK``
paths through ``parallel.queue_ensemble``.  Chunk k draws from
``rng_stream(seed, k)``, so the ensemble depends on the chunk size but
not on the worker count; within a chunk the paths go in row blocks on
one reused workspace, sized so that its five arrays together hold
``_JUMP_ENTRIES`` entries, and the sums do not depend on the block size.
Both Monte Carlo routes take only the sums their callers read: the
VACF, the MSD, or both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .parallel import queue_ensemble
from .rng import _each, philox_uniforms, rng_stream
from .scattering import (BarrierParams, _gauss_kronrod, deflection_angle,
                         landau_B_quadrature)

__all__ = [
    "JumpProcessParams",
    "BoltzmannPath",
    "LandauPath",
    "sample_boltzmann_path",
    "sample_landau_path",
    "landau_B_quadrature",
    "green_kubo_D",
]

# Paths per chunk of the Landau ensemble; each chunk owns one stream.
LANDAU_CHUNK = 4096

# Entries per path in one numpy pass of a batched sampler (the jump
# sampler's draws, or the grid points a draw block is sampled at; the
# five workspace arrays' columns of a Landau block), times the paths of
# the pass, at most: this bounds the draw blocks and the Landau
# workspace.  2^18 ran fastest for the jumps on a 2-core x86 box; 2^19
# spills the cache, 2^17 pays more passes
_JUMP_ENTRIES = 1 << 18

# Entries of one (rows, grid) array of the jump routes' grid pass, at
# most: 2^14 float64s stay under glibc's 128 KiB mmap threshold, so each
# temporary reuses heap memory instead of being mapped and faulted in
# afresh (on a 2-core x86 box 2^16 ran as slowly as one pass per draw
# block, and 2^13 no faster than 2^14)
_GRID_ENTRIES = 1 << 14


@dataclass(frozen=True)
class JumpProcessParams:
    """Total jump rate plus the single-collision angle law.

    The angle law is ``deflection_angle(rho, n_index)`` with rho uniform
    on [-1, 1]; it is symmetric about zero.  ``n_index = 0`` means the
    hard-disk law theta = sign(rho) * 2 arccos|rho|.
    """

    rate: float
    n_index: float

    def __post_init__(self):
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")
        if not (0.0 <= self.n_index < 1.0):
            raise ValueError("n_index must be in [0, 1)")

    @classmethod
    def from_barrier(cls, params: BarrierParams, mu: float = 1.0
                     ) -> "JumpProcessParams":
        rate = 2.0 * mu * params.epsilon ** (-2.0 * params.alpha) * params.speed
        return cls(rate=rate, n_index=params.n_index)

    @classmethod
    def hard_disk(cls, rate: float) -> "JumpProcessParams":
        return cls(rate=rate, n_index=0.0)

    def mean_cos_jump(self) -> float:
        """E[cos theta] over the jump law: -1/3 for hard disks, else
        quadrature."""
        if self.n_index == 0.0:
            return -1.0 / 3.0  # E[2 rho^2 - 1], rho ~ U[0, 1]
        n = self.n_index
        val, _ = _gauss_kronrod(lambda r: math.cos(deflection_angle(r, n)),
                               (0.0, n, 1.0), epsabs=0.0, epsrel=1e-12)
        return val

    def momentum_transfer_rate(self) -> float:
        """nu = rate * (1 - E[cos theta]); the VACF decays as e^(-nu t)."""
        return self.rate * (1.0 - self.mean_cos_jump())


@dataclass
class BoltzmannPath:
    """Piecewise-linear positions with velocity jumps at Markov times.

    node_times[k] bounds segment k, which carries angle angles[k]; there
    are len(node_times) - 1 segments and len(node_times) - 2 jumps.
    """

    node_times: np.ndarray
    angles: np.ndarray
    positions: np.ndarray

    @property
    def n_jumps(self) -> int:
        return len(self.node_times) - 2

    @property
    def final_position(self) -> np.ndarray:
        return self.positions[-1]

    @property
    def final_angle(self) -> float:
        return float(self.angles[-1])


def sample_boltzmann_path(x0, v0, t: float, params: JumpProcessParams,
                          rng) -> BoltzmannPath:
    """One realization of the velocity-jump transport process.

    Waiting times are Exponential(rate) drawn by inverse CDF from the
    given stream; at each jump the velocity rotates by theta(rho) with
    rho uniform on [-1, 1]; the position integrates the velocity.
    """
    if t < 0.0:
        raise ValueError("duration must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    vx, vy = float(v0[0]), float(v0[1])
    speed = math.hypot(vx, vy)
    if speed <= 0.0:
        raise ValueError("initial velocity must be nonzero")
    phi = math.atan2(vy, vx)
    inv_rate = 1.0 / params.rate

    times = [0.0]
    angles = [phi]
    tau = 0.0
    while True:
        tau -= math.log1p(-rng.random()) * inv_rate
        if tau >= t:
            break
        times.append(tau)
        rho = 2.0 * rng.random() - 1.0
        phi += deflection_angle(rho, params.n_index)
        angles.append(phi)
    times.append(t)

    node_times = np.array(times)
    ang = np.array(angles)
    seg = np.diff(node_times)
    pos = np.empty((len(node_times), 2))
    pos[0] = x0
    pos[1:, 0] = x0[0] + np.cumsum(seg * speed * np.cos(ang))
    pos[1:, 1] = x0[1] + np.cumsum(seg * speed * np.sin(ang))
    return BoltzmannPath(node_times, ang, pos)


@dataclass
class LandauPath:
    """Angular Brownian motion sampled on a uniform time grid."""

    times: np.ndarray
    angles: np.ndarray
    positions: np.ndarray

    @property
    def final_position(self) -> np.ndarray:
        return self.positions[-1]

    @property
    def final_angle(self) -> float:
        return float(self.angles[-1])


def _landau_workspace(m: int, n_steps: int) -> list[np.ndarray]:
    """Buffers for ``_landau_paths`` on m paths of n_steps steps: angles
    and x, y displacements of n_steps + 1 columns, then two scratch
    arrays of n_steps columns."""
    return ([np.empty((m, n_steps + 1)) for _ in range(3)]
            + [np.empty((m, n_steps)) for _ in range(2)])


def _landau_paths(rng, steps: np.ndarray, c: float, speed: float,
                  phi0: float, work: list[np.ndarray],
                  positions: bool = True):
    """Angular Brownian paths over the given step lengths, one a row of
    the ``_landau_workspace`` arrays ``work``.

    Exact Gaussian angle increments of variance 2 c dt per step, drawn
    from ``rng`` row after row in one call, so consecutive calls on one
    generator draw what one call over all their rows would; the
    positions, relative to the start, integrate the velocity by the
    midpoint rule.  Returns angles and x, y displacements, the first
    three arrays of ``work``, with the start in column 0; without
    ``positions``, the angles and None, None.
    """
    phi, x, y, incr, step = work
    rng.standard_normal(out=incr)
    incr *= np.sqrt(2.0 * c * steps)
    phi[:, 0] = phi0
    np.cumsum(incr, axis=1, out=phi[:, 1:])
    phi[:, 1:] += phi0
    if not positions:
        return phi, None, None
    mid = np.add(phi[:, :-1], phi[:, 1:], out=incr)
    mid *= 0.5
    ds = speed * steps
    for trig, pos in ((np.cos, x), (np.sin, y)):
        pos[:, 0] = 0.0
        np.multiply(trig(mid, out=step), ds, out=step)
        np.cumsum(step, axis=1, out=pos[:, 1:])
    return phi, x, y


def sample_landau_path(x0, v0, t: float, B: float, dt: float, rng) -> LandauPath:
    """Angular Brownian motion with generator (B/speed^2) d^2/dphi^2.

    ``_landau_paths`` with one path over the ceil(t/dt) steps of the
    grid ``linspace(0, t)``; the speed is preserved exactly by the angle
    representation.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t < 0.0:
        raise ValueError("duration must be nonnegative")
    if B < 0.0:
        raise ValueError("B must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    vx, vy = float(v0[0]), float(v0[1])
    speed = math.hypot(vx, vy)
    if speed <= 0.0:
        raise ValueError("initial velocity must be nonzero")
    n_steps = max(1, math.ceil(t / dt)) if t > 0 else 0
    grid = np.linspace(0.0, t, n_steps + 1)
    phi, x, y = _landau_paths(rng, np.diff(grid), B / speed**2, speed,
                              math.atan2(vy, vx),
                              _landau_workspace(1, n_steps))
    pos = np.column_stack((x0[0] + x[0], x0[1] + y[0]))
    return LandauPath(grid, phi[0], pos)


# ---------------------------------------------------------------------------
# Green-Kubo diffusion coefficient, three routes.


def _landau_chunk(payload):
    """Per-step sums of cos(phi) and |X|^2 over paths i0..i1-1, each
    only if ``need`` names it (``"vacf"``, ``"msd"``); None in its place
    otherwise.

    The chunk's stream feeds ``_landau_paths`` in blocks of as many
    paths as fit ``_JUMP_ENTRIES`` entries over the five workspace
    arrays, all on one workspace; each block's rows are added into the
    sums in path order, so the sums do not depend on the block size.
    """
    (c, speed, dt, n_steps, seed, need, i0, i1) = payload
    rng = rng_stream(seed, i0 // LANDAU_CHUNK)
    steps = np.full(n_steps, dt)
    rows = max(1, _JUMP_ENTRIES // (5 * (n_steps + 1)))
    work = _landau_workspace(min(rows, i1 - i0), n_steps)
    vacf, msd = "vacf" in need, "msd" in need
    sum_cos = np.zeros(n_steps + 1) if vacf else None
    sum_msd = np.zeros(n_steps + 1) if msd else None
    for a in range(i0, i1, rows):
        phi, x, y = _landau_paths(rng, steps, c, speed, 0.0,
                                  [w[:i1 - a] for w in work], msd)
        if vacf:
            sum_cos = _fold_rows(sum_cos, np.cos(phi, out=phi))
        if msd:
            np.square(x, out=x)
            x += np.square(y, out=y)
            sum_msd = _fold_rows(sum_msd, x)
    return sum_cos, sum_msd


def _landau_vacf_msd(c: float, speed: float, n_paths: int, dt: float,
                     t_max: float, seed: int, workers: int = 1,
                     need: tuple[str, ...] = ("vacf", "msd")):
    """Ensemble VACF and MSD of the angular diffusion on a time grid;
    each only if ``need`` names it, None in its place otherwise."""
    n_steps = int(round(t_max / dt))
    parts = queue_ensemble(_landau_chunk, (c, speed, dt, n_steps, seed, need),
                           n_paths, LANDAU_CHUNK, workers)()
    sum_cos, sum_msd = (None if s[0] is None else sum(s) for s in zip(*parts))
    return _ensemble_means(np.arange(n_steps + 1) * dt, speed, n_paths,
                           sum_cos, sum_msd)


def _ensemble_means(grid: np.ndarray, speed: float, n_paths: int, sum_cos,
                    sum_msd):
    """The grid, VACF and MSD of an ensemble from its per-step sums of
    cos(phi) and |X|^2; None for a sum not taken."""
    return (grid, None if sum_cos is None else speed**2 * sum_cos / n_paths,
            None if sum_msd is None else sum_msd / n_paths)


def green_kubo_D(B: float | None = None, mu: float | None = None,
                 speed: float = 1.0, method: str = "analytic_vacf", *,
                 n_paths: int = 100_000, seed: int = 2024,
                 rate: float | None = None) -> float:
    """Spatial diffusion coefficient, D = (1/2) integral of the VACF.

    Landau route: pass ``B``; the angular diffusion constant is
    c = B/speed^2 and the VACF is speed^2 e^(-c t).  Hard-disk
    Boltzmann route: pass ``mu`` (limiting jump process at rate
    2*mu*speed, matching the slab's radius convention) or an explicit
    ``rate``; its VACF is speed^2 e^(-nu t) with
    nu = rate (1 - E[cos theta]).

    methods: ``analytic_vacf`` (closed form), ``monte_carlo``
    (trapezoid over the empirical VACF, cutoff at 10 correlation
    times), ``msd`` (late-time slope of E|X|^2 / (4 t)).  Each Monte
    Carlo route samples only the sum it integrates, the VACF or the
    MSD.  The Monte Carlo time step is 1/100 correlation time (Landau)
    or 1/50 (jumps).  ``B``, ``mu``, ``rate`` and ``speed``, where
    given, must be positive and finite, and so must what is derived
    from them: ``speed^2``, the rate, ``nu``, the analytic ``D`` and
    the Monte Carlo horizon ``t_max``; one that overflows or underflows
    raises ``ValueError``.
    """
    def check(name, value):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value!r}")

    if method not in ("analytic_vacf", "monte_carlo", "msd"):
        raise ValueError(f"unknown method {method!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    for name, value in (("speed", speed), ("B", B), ("mu", mu),
                        ("rate", rate)):
        if value is not None:
            check(name, value)
    # speed**2 raises OverflowError where the product is inf
    check("speed^2", speed * speed)
    if B is not None:
        nu = B / speed**2  # angular correlation decay rate
    else:
        if rate is None:
            if mu is None:
                raise ValueError("pass B, mu, or rate")
            rate = 2.0 * mu * speed
            check("rate = 2 mu speed", rate)
        nu = JumpProcessParams.hard_disk(rate).momentum_transfer_rate()
    check("nu", nu)

    if method == "analytic_vacf":
        d = speed**2 / (2.0 * nu)
        check("D", d)
        return d

    t_max = 10.0 / nu
    check("t_max = 10 / nu", t_max)
    need = ("vacf",) if method == "monte_carlo" else ("msd",)
    if B is not None:
        grid, vacf, msd = _landau_vacf_msd(nu, speed, n_paths, 0.01 / nu,
                                           t_max, seed, need=need)
    else:
        grid, vacf, msd = _jump_vacf_msd(rate, speed, n_paths, 0.02 / nu,
                                         t_max, seed, need=need)
    if method == "monte_carlo":
        return 0.5 * float(np.trapezoid(vacf, grid))
    half = grid >= 0.5 * grid[-1]
    slope = np.polyfit(grid[half], msd[half], 1)[0]
    return float(slope) / 4.0


def _jump_vacf_msd(rate: float, speed: float, n_paths: int, dt: float,
                   t_max: float, seed: int,
                   need: tuple[str, ...] = ("vacf", "msd")):
    """Grid-sampled VACF/MSD of the hard-disk jump process; each only
    if ``need`` names it, None in its place otherwise.

    Path i is ``sample_boltzmann_path`` from the origin at velocity
    (speed, 0) on ``rng_stream(seed, i)``, sampled through
    ``_jump_blocks``.  Each grid time takes the last node at or before
    it (at most the last segment): segment s covers the grid times from
    the first at or after node s to the first at or after node s + 1,
    found by one ``searchsorted`` of the node times into the grid, and
    its values are repeated over them.  This grid pass runs over
    sub-blocks of each draw block's rows, of at most ``_GRID_ENTRIES``
    grid points in all.  The rows are added into the sums in path
    order, so the sums are those of the path-by-path loop.
    """
    n_steps = int(round(t_max / dt))
    grid = np.arange(n_steps + 1) * dt
    g = grid.size
    jp = JumpProcessParams.hard_disk(rate)
    vacf, msd = "vacf" in need, "msd" in need
    sum_cos = np.zeros(g) if vacf else None
    sum_msd = np.zeros(g) if msd else None
    rows = max(1, _GRID_ENTRIES // g)
    for block in _jump_blocks(seed, 0, n_paths, t_max, speed, jp, g):
        for r in range(0, block[-1].size, rows):
            nodes, phi, x, y, m = (a[r:r + rows] for a in block)
            p, n_seg = phi.shape
            # the last segment, m, runs to the end of the grid; the
            # padding after it covers no grid time
            first = np.searchsorted(grid, nodes, side="left")
            first[np.arange(n_seg + 1) > m[:, None]] = g
            counts = np.diff(first, axis=1).ravel()

            def at_grid(a):  # a[r, s] at every grid time segment s covers
                return np.repeat(a.ravel(), counts).reshape(p, g)
            cos_k = at_grid(np.cos(phi))
            if msd:
                tt = grid - at_grid(nodes[:, :-1])
                px = at_grid(x[:, :-1]) + tt * speed * cos_k
                py = at_grid(y[:, :-1]) + tt * speed * at_grid(np.sin(phi))
                sum_msd = _fold_rows(sum_msd, px**2 + py**2)
            if vacf:
                sum_cos = _fold_rows(sum_cos, cos_k)
    return _ensemble_means(grid, speed, n_paths, sum_cos, sum_msd)


def _fold_rows(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """acc + rows[0] + rows[1] + ..., added in that order: numpy sums
    C-ordered rows of 2 or more columns over axis 0 row by row (a single
    column pairwise), and every caller's rows span 3 or more grid points."""
    rows[0] += acc
    return rows.sum(axis=0)


# ---------------------------------------------------------------------------
# Batched jump paths.


def _jump_batch(seed: int, index: np.ndarray, t: float, speed: float,
                params: JumpProcessParams, width: int):
    """Paths of ``sample_boltzmann_path`` from the origin at velocity
    (speed, 0) over [0, t], row r driven by ``rng_stream(seed, index[r])``
    bit for bit: draw 2k gives the k-th waiting time and draw 2k + 1 the
    k-th jump's impact parameter.

    The first ``width`` (even) draws of every row come in one Philox
    pass; rows whose waiting times have not yet reached t continue from
    their counter offset, in blocks as wide as all drawn so far.
    Returns node times (P, J + 1), segment angles (P, J), node positions
    x, y (P, J + 1) and jump counts m (P,): row r's path has nodes
    0 .. m[r] + 1 and segments 0 .. m[r], padded on the right by its end
    time t, its last angle and its final position.
    """
    inv_rate = 1.0 / params.rate
    u = philox_uniforms(seed, index, width)
    odd = u[:, 1::2]
    # waiting times by inverse CDF, as sample_boltzmann_path draws them
    tau = np.cumsum(-(_each(math.log1p, -u[:, ::2]) * inv_rate), axis=1)
    short = np.flatnonzero(tau[:, -1] < t)
    while short.size:
        drawn = 2 * tau.shape[1]
        more = philox_uniforms(seed, index[short], drawn, at=drawn)
        wait = -(_each(math.log1p, -more[:, ::2]) * inv_rate)
        wait[:, 0] += tau[short, -1]
        odd = np.concatenate((odd, np.zeros_like(odd)), axis=1)
        odd[short, drawn // 2:] = more[:, 1::2]
        tau = np.concatenate((tau, np.full_like(tau, np.inf)), axis=1)
        tau[short, drawn // 2:] = np.cumsum(wait, axis=1)
        short = short[tau[short, -1] < t]
    m = np.argmax(tau >= t, axis=1)
    p, n_seg = m.size, int(m.max()) + 1
    jumped = np.arange(n_seg - 1) < m[:, None]
    rho = 2.0 * odd[:, :n_seg - 1][jumped] - 1.0
    theta = np.zeros((p, n_seg))
    theta[:, 1:][jumped] = _each(deflection_angle, rho, params.n_index)
    phi = np.cumsum(theta, axis=1)
    nodes = np.zeros((p, n_seg + 1))
    nodes[:, 1:] = np.where(np.arange(n_seg) < m[:, None], tau[:, :n_seg], t)
    seg = np.diff(nodes, axis=1)
    x = np.zeros((p, n_seg + 1))
    y = np.zeros((p, n_seg + 1))
    np.cumsum(seg * speed * np.cos(phi), axis=1, out=x[:, 1:])
    np.cumsum(seg * speed * np.sin(phi), axis=1, out=y[:, 1:])
    return nodes, phi, x, y, m


def _jump_blocks(seed: int, i0: int, i1: int, t: float, speed: float,
                 params: JumpProcessParams, cols: int = 0):
    """``_jump_batch`` over paths i0 .. i1 - 1, in blocks of paths whose
    draws (or ``cols`` entries a path, if more) fit ``_JUMP_ENTRIES``.

    The first draw block allows for 4 standard deviations plus 4 jumps
    over the mean count rate * t, so few paths need a second one.
    """
    lam = params.rate * t
    width = min(4 * math.ceil((lam + 4.0 * math.sqrt(lam) + 5.0) / 2.0),
                _JUMP_ENTRIES)
    rows = max(1, _JUMP_ENTRIES // max(width, cols))
    for a in range(i0, i1, rows):
        yield _jump_batch(seed, np.arange(a, min(a + rows, i1)), t, speed,
                          params, width)
