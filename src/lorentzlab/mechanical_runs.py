"""The runners that run the mechanical flow, and their chunk workers.

A mechanical or jump-path result depends on its item index only, so
each worker takes one index range and no chunk fold.  A mechanical
worker runs its range as one array-state walk (``_mech_chunk``) through
``dynamics._walks``, the refill driver the slab shares, each trajectory
with the result the scalar ``_Engine.run`` gives it in its own field.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig, parse_float_list
from .dynamics import _ArrayLog, _walks
from .experiments import Report
from .kinetic import JumpProcessParams, _jump_blocks, green_kubo_D
from .macroscale import (HeatProblem, SlabSpec, simulate_slab_stationary,
                         solve_heat)
from .medium import FieldSpec, ScattererField, member_keys
from .parallel import queue_ensemble
from .rng import _each, mix_key, rng_streams
from .scattering import BarrierParams, landau_B_quadrature
from .stats import (angle_histogram, chi_square_uniform, linear_fit, msd_curve,
                    tv_distance, tv_self_noise)

# ---------------------------------------------------------------------------
# chunk workers (top level: picklable)


def _barrier_field(eps, alpha, mu, seed, tag, i):
    """Barrier-scaled Poisson field of mechanical trajectory i."""
    spec = FieldSpec(mu=mu, epsilon=eps, seed=mix_key(seed, tag, i),
                     delta=1.0 + 2.0 * alpha)
    return ScattererField(spec)


def _mech_chunk(payload, log=None):
    """Final velocity angles, displacements from x0 at each checkpoint,
    final positions and events summed over the checkpoints of mechanical
    trajectories i0..i1-1.

    For a uniform initial angle, rng_stream(seed, i) draws trajectory
    i's angle and then, if sigma0 > 0, its Gaussian start point (from
    ``rng_streams``); a delta start (angle 0 at the origin) draws
    nothing.  Its field is keyed by (seed, tag, i).  They run as one
    ``dynamics._walks`` walk, each checkpoint a time slice that starts
    on its own clock, as a new ``_Engine.run`` from where the last
    stopped.  ``log`` (an ``_ArrayLog``) records trajectory i as walk
    i - i0.
    """
    (eps, alpha, mu, speed, checks, seed, tag, initial, sigma0,
     i0, i1) = payload
    n = BarrierParams(epsilon=eps, alpha=alpha, speed=speed).n_index
    field = _barrier_field(eps, alpha, mu, seed, tag, i0)
    keys = member_keys(mix_key(seed, tag), i0, i1)
    spans = np.diff(checks, prepend=0.0)  # each slice's t_max
    m, n_checks = i1 - i0, len(checks)
    phi0, start = np.zeros(m), np.zeros((m, 4))
    drawn = rng_streams(seed, range(i0, i1)) if initial == "uniform" else ()
    for j, rng in enumerate(drawn):
        phi0[j] = rng.random() * 2.0 * math.pi
        if sigma0 > 0:
            start[j, :2] = rng.standard_normal(2) * sigma0
    start[:, 2] = speed * _each(math.cos, phi0)
    start[:, 3] = speed * _each(math.sin, phi0)
    disp, final = np.zeros((m, n_checks, 2)), np.zeros((m, 4))
    events = np.zeros(m, dtype=np.int64)
    walks = _walks(field, m, lambda a, b: (keys[a:b], start[a:b]), spans, n,
                   log=log)
    for j, c, F, ev, _, _ in walks:
        disp[j, c] = F[:, :2] - start[j, :2]
        events[j] += ev
        final[j] = F[:, :4]
    return (_each(math.atan2, final[:, 3], final[:, 2]), disp, final[:, :2],
            events)


def _jump_final_chunk(payload):
    """Final angle, final position and jump count of velocity-jump paths
    i0..i1 (``_jump_blocks``), path i on rng_stream(mix_key(seed, tag), i)."""
    (eps, alpha, mu, speed, T, seed, tag, i0, i1) = payload
    params = BarrierParams(epsilon=eps, alpha=alpha, speed=speed)
    jp = JumpProcessParams.from_barrier(params, mu)
    ang, pos, n_jumps = [], [], []
    for _, phi, x, y, m in _jump_blocks(mix_key(seed, tag), i0, i1, T, speed,
                                        jp):
        rows = np.arange(m.size)
        ang.append(phi[rows, m])
        pos.append(np.column_stack((x[rows, m + 1], y[rows, m + 1])))
        n_jumps.append(m)
    return (np.concatenate(ang), np.concatenate(pos),
            np.concatenate(n_jumps).astype(np.int64))


def _pathology_chunk(payload):
    """Pathology counts (recollisions, interferences, overlaps,
    collisions) of each ``_mech_chunk`` trajectory, from its log, all
    classified at once (``_ArrayLog.pathologies``)."""
    eps, *_, i0, i1 = payload
    log = _ArrayLog(i1 - i0)
    _mech_chunk(payload, log)
    return (log.pathologies(eps),)


def _ensemble(fn, head: tuple, n: int, workers: int):
    """Queue chunk worker ``fn`` over items 0..n-1, one index range per
    worker (``queue_ensemble``); returns the function that waits for its
    outputs, each concatenated in index order."""
    parts = queue_ensemble(fn, head, n, -(-n // max(workers, 1)), workers)
    return lambda: tuple(np.concatenate(out) for out in zip(*parts()))


def _mech_ensemble(cfg, eps, n, checks, tag, initial="delta", sigma0=0.0,
                  worker=_mech_chunk):
    """``_ensemble`` of ``worker`` over n trajectories in cfg's medium."""
    return _ensemble(worker, (eps, cfg["alpha"], cfg["mu"], cfg["speed"],
                              checks, cfg["seed"], tag, initial, sigma0),
                     n, cfg["workers"])


# ---------------------------------------------------------------------------
# runners


def run_kinetic_compare(cfg: ExperimentConfig) -> Report:
    """Reports the angular TV distance and the spatial L1 distance per
    ladder point, each with its sampling noise floor (the distance two
    same-law histograms of these sizes would show).  A trend is read
    against the floors, not against zero.
    """
    n = cfg["samples"]
    T = cfg["time"]
    rows = []
    tvs, floors = [], []
    ladder = range(cfg["kmin"], cfg["kmax"] + 1)
    # every ensemble queued first, then each ladder point folded in order
    queued = [(_mech_ensemble(cfg, 2.0**-k, n, (T,), 1000 + k), _ensemble(
        _jump_final_chunk, (2.0**-k, cfg["alpha"], cfg["mu"], cfg["speed"],
                            T, cfg["seed"], 2000 + k), n, cfg["workers"]))
              for k in ladder]
    for k, (mech, jump) in zip(ladder, queued):
        eps = 2.0**-k
        mech_a, _, mech_pos, mech_ev = mech()
        jump_a, jump_pos, jump_ev = jump()

        ha = angle_histogram(mech_a, cfg["angle_bins"])
        hb = angle_histogram(jump_a, cfg["angle_bins"])
        tv = tv_distance(ha, hb)
        floor_mean, floor_hi = tv_self_noise(ha, hb, seed=mix_key(cfg["seed"], k))
        span = cfg["speed"] * T
        hm, hj = (np.histogram(pos[:, 0], cfg["x_bins"], (-span, span))[0]
                  for pos in (mech_pos, jump_pos))
        l1 = 2.0 * tv_distance(hm, hj)  # L1 distance of the x histograms
        l1_floor, _ = tv_self_noise(hm, hj, seed=mix_key(cfg["seed"], k, 3))
        rows.append((eps, tv, floor_mean, floor_hi, l1, 2.0 * l1_floor,
                     float(mech_ev.mean()) / T, float(jump_ev.mean()) / T))
        tvs.append(tv)
        floors.append((floor_mean, floor_hi))

    # non-increasing up to the 97.5% noise excursion of both points
    slacks = [
        (floors[i][1] - floors[i][0]) + (floors[i + 1][1] - floors[i + 1][0])
        for i in range(len(tvs) - 1)
    ]
    monotone = all(tvs[i + 1] <= tvs[i] + slacks[i] for i in range(len(tvs) - 1))
    summary = {
        "tv_angle": tvs,
        "tv_noise_floor": [f[0] for f in floors],
        "tv_monotone_within_noise": monotone,
        "tv_finest": tvs[-1],
        "time": T,
    }
    return Report(
        "kinetic-compare",
        ["epsilon", "tv_angle", "tv_noise_mean", "tv_noise_hi",
         "l1_spatial", "l1_noise", "mech_collision_rate", "jump_rate"],
        rows, summary, cfg,
    )


def run_thermalization(cfg: ExperimentConfig) -> Report:
    eps = 2.0**-cfg["k"]
    n = cfg["samples"]
    rows = []
    p_values = {}
    times = parse_float_list(cfg["times"])
    queued = [_mech_ensemble(cfg, eps, n, (t,), 3000 + idx, cfg["initial"])
              for idx, t in enumerate(times)]
    for t, ensemble in zip(times, queued):
        ang = ensemble()[0]
        stat, p = chi_square_uniform(angle_histogram(ang, cfg["angle_bins"]))
        rows.append((t, stat, p))
        p_values[str(t)] = p
    summary = {
        "epsilon": eps,
        "initial": cfg["initial"],
        "p_values": p_values,
        "angle_bins": cfg["angle_bins"],
    }
    return Report("thermalization", ["t", "chi2", "p_value"], rows, summary, cfg)


def run_diffusive_scale(cfg: ExperimentConfig) -> Report:
    eps = 2.0**-cfg["k"]
    alpha, mu, speed = cfg["alpha"], cfg["mu"], cfg["speed"]
    t_final = cfg["time"] * abs(math.log(eps))
    n_check = cfg["checkpoints"]
    checks = tuple(t_final * (j + 1) / n_check for j in range(n_check))
    n = cfg["trajectories"]
    sigma0 = cfg["sigma0"]
    # queued first: the workers walk while B is computed
    ensemble = _mech_ensemble(cfg, eps, n, checks, 4000, "uniform", sigma0)
    B = landau_B_quadrature(eps, alpha, mu, speed)
    d_kin = speed**4 / (2.0 * B)
    _, disp, final_abs, _ = ensemble()
    msd, msd_ci = msd_curve(disp)
    rows = [(checks[i], float(msd[i]), float(msd_ci[i]))
            for i in range(n_check)]

    tarr = np.asarray(checks)
    late = tarr >= 0.5 * t_final
    fit = linear_fit(tarr[late], msd[late])
    d_mech = fit.slope / 4.0

    # heat-equation check: Gaussian bump spread over the same duration
    span = 4.0 * math.sqrt(sigma0**2 + 2.0 * d_kin * t_final)
    bins = cfg["heat_bins"]
    edges = np.linspace(-span, span, bins + 1)
    dx = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    init = np.exp(-(gx**2 + gy**2) / (2.0 * sigma0**2))
    init /= init.sum() * dx * dx
    dt_heat = 0.2 * dx * dx / d_kin
    heat = solve_heat(HeatProblem(d_kin, init, dx, dt_heat), t_final)
    hist, _, _ = np.histogram2d(final_abs[:, 0], final_abs[:, 1],
                                bins=[edges, edges])
    emp = hist / (n * dx * dx)
    l2_heat = float(np.sqrt(((emp - heat) ** 2).sum() * dx * dx))

    summary = {
        "epsilon": eps,
        "B_eps": B,
        "D_kinetic": d_kin,
        "D_mechanical": d_mech,
        "ratio_mech_over_kinetic": d_mech / d_kin,
        "msd_late_r_squared": fit.r_squared,
        "l2_vs_heat": l2_heat,
        "t_final": t_final,
    }
    return Report("diffusive-scale", ["t", "msd", "msd_ci95"], rows, summary,
                  cfg)


def run_pathology_scan(cfg: ExperimentConfig) -> Report:
    """frac_* columns are event counts per collision; the p_any_* columns
    are per-trajectory indicator frequencies."""
    n = cfg["trajectories"]
    rows = []
    per_coll = []
    ladder = range(cfg["kmin"], cfg["kmax"] + 1)
    queued = [_mech_ensemble(cfg, 2.0**-k, n, (cfg["time"],), 5000 + k,
                             worker=_pathology_chunk) for k in ladder]
    for k, ensemble in zip(ladder, queued):
        eps = 2.0**-k
        (counts,) = ensemble()
        rec, intf, ov, q = counts.T
        q_tot = max(int(q.sum()), 1)
        frac_rec = float(rec.sum()) / q_tot
        frac_int = float(intf.sum()) / q_tot
        frac_ov = float(ov.sum()) / q_tot
        p_ri = float(((rec + intf) > 0).mean())
        p_ov = float((ov > 0).mean())
        rows.append((eps, frac_rec, frac_int, frac_ov,
                     float(q.mean()) / cfg["time"], p_ri, p_ov))
        per_coll.append((frac_rec + frac_int, frac_ov))
    mono_ri = all(per_coll[i + 1][0] <= per_coll[i][0]
                  for i in range(len(per_coll) - 1))
    mono_ov = all(per_coll[i + 1][1] <= per_coll[i][1]
                  for i in range(len(per_coll) - 1))
    summary = {
        "per_collision_rec_plus_int": [v[0] for v in per_coll],
        "per_collision_overlap": [v[1] for v in per_coll],
        "monotone_rec_plus_int": mono_ri,
        "monotone_overlap": mono_ov,
        "time": cfg["time"],
    }
    return Report(
        "pathology-scan",
        ["epsilon", "frac_recollision", "frac_interference", "frac_overlap",
         "mean_collisions", "p_any_recollision_interference", "p_any_overlap"],
        rows, summary, cfg,
    )


def run_fick_slab(cfg: ExperimentConfig) -> Report:
    import warnings as _warnings

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always", RuntimeWarning)
        slab = SlabSpec(L=cfg["L"], rho1=cfg["rho1"], rho2=cfg["rho2"],
                        eta=cfg["eta"], epsilon=cfg["epsilon"], mu=cfg["mu"])
    guard_notes = [str(w.message) for w in caught]
    res = simulate_slab_stationary(
        slab, n_injections=cfg["injections"], seed=cfg["seed"],
        n_bins=cfg["bins"], t_max=cfg["t_max"], workers=cfg["workers"],
        y_period_cells=cfg["y_period_cells"],
    )
    rows = []
    for i in range(cfg["bins"]):
        j_val = res.J_hat[i] if i < len(res.J_hat) else math.nan
        j_ci = 1.96 * res.J_se[i] if i < len(res.J_se) else math.nan
        rows.append((float(res.x_centers[i]), float(res.rho_hat[i]),
                     1.96 * float(res.rho_se[i]), float(j_val), float(j_ci)))

    fit = linear_fit(res.x_centers, res.rho_hat, res.rho_se)
    jfit = linear_fit(res.face_x, res.J_hat, res.J_se)
    w = 1.0 / res.J_se**2
    j_mean = float((res.J_hat * w).sum() / w.sum())
    j_mean_ci = 1.96 / math.sqrt(float(w.sum()))
    drho = slab.rho1 - slab.rho2
    implied_d = j_mean * slab.L / drho if drho != 0 else math.nan
    # Green-Kubo cross-check at the realized geometry: limiting jump rate
    # per eta-rescaled time is 2 * radius * mu_eff * speed / eta
    rate_kin = 2.0 * slab.epsilon * slab.mu_eff / slab.eta
    gk_d = green_kubo_D(rate=rate_kin, speed=1.0, method="analytic_vacf")
    halves_compatible = bool(
        np.all(
            np.abs(res.rho_halves[0] - res.rho_halves[1])
            <= 1.96 * (res.rho_halves_se[0] + res.rho_halves_se[1])
        )
    )
    summary = {
        "slope": fit.slope,
        "intercept_left": fit.intercept,
        "intercept_right": fit.intercept + fit.slope * slab.L,
        "r_squared": fit.r_squared,
        "J_mean": j_mean,
        "J_mean_ci95": j_mean_ci,
        "implied_D": implied_d,
        "green_kubo_D": gk_d,
        "flux_slope_ci": list(jfit.slope_ci),
        "flux_constant_within_ci": jfit.slope_ci[0] <= 0.0 <= jfit.slope_ci[1],
        "stationary_halves_compatible": halves_compatible,
        "timeouts": res.n_timeouts,
        "y_period": res.metadata["y_period"],
        "free_area_fraction": res.metadata["free_area_fraction"],
    }
    return Report("fick-slab",
                  ["x1_bin", "rho_hat", "rho_ci", "J_hat", "J_ci"],
                  rows, summary, cfg, warnings=guard_notes)
