"""Event-driven flow: planted-fixture geometry, reversal, pathologies."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorentzlab import dynamics
from lorentzlab.dynamics import (
    ParticleState,
    StuckParticleError,
    TOTAL_REFLECT,
    BARRIER_TRAVERSE,
    HARD_REFLECT,
    TrajectoryEvent,
    TrajectoryLog,
    _ArrayLog,
    _Engine,
    _FieldBatch,
    _find_containing_disk,
    _first_hit,
    _walks,
    advance,
    backward_flow,
    classify_pathologies,
)
from lorentzlab.medium import FieldSpec, PlantedField, ScattererField
from lorentzlab.rng import mix_key
from lorentzlab.scattering import BarrierParams, refractive_index, scattering_angle

# refractive regime: n = sqrt(1 - 2*0.01^0.25) ~ 0.606
REFR = BarrierParams(epsilon=0.01, alpha=0.25, speed=1.0)
# always-reflecting regime: 2*eps^alpha/speed^2 = 1.6
HARD = BarrierParams(epsilon=0.04, alpha=0.5, speed=0.5)


def state(x, y, vx, vy):
    return ParticleState((x, y), (vx, vy))


def first_wall_hit(s, fld, t_max):
    """Time and side of a hard-disk flight's first crossing of x = 0 or
    x = 1, or (None, None) when it stays inside for all of t_max."""
    _, _, _, _, t, side = _Engine(fld, None, x_bounds=(0.0, 1.0)).run(
        s.x[0], s.x[1], s.v[0], s.v[1], t_max)
    return (None if side is None else t), side


class TestFreeFlight:
    def test_empty_field(self):
        out, log = advance(state(0, 0, 1, 0), PlantedField([], 0.01), REFR, 2.5)
        assert np.allclose(out.x, [2.5, 0.0], atol=0.0)
        assert np.allclose(out.v, [1.0, 0.0], atol=0.0)
        assert log.events == []

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            advance(state(0, 0, 1, 0), PlantedField([], 0.01), REFR, -1.0)


class TestBarrierTraversal:
    def test_head_on_time_accounting(self):
        # crosses the diameter at interior speed n, exits undeflected
        fld = PlantedField([(1.0, 0.0)], 0.01)
        n = refractive_index(REFR)
        out, log = advance(state(0, 0, 1, 0), fld, REFR, 2.0)
        assert [e.kind for e in log.events] == [BARRIER_TRAVERSE]
        assert log.events[0].rho == 0.0
        t_inside = 0.02 / n
        expected_x = 1.01 + (2.0 - 0.99 - t_inside)
        assert out.x[0] == pytest.approx(expected_x, abs=1e-9)
        assert out.x[1] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(out.v, [1, 0], atol=1e-12)

    def test_generic_rho_exit_direction_and_point(self):
        # exit rotated by theta(rho); exit point matches the explicit
        # entry/chord construction
        fld = PlantedField([(1.0, 0.0)], 0.01)
        out, log = advance(state(0, 0.005, 1, 0), fld, REFR, 2.0)
        assert log.events[0].rho == pytest.approx(0.5, abs=1e-12)
        theta = scattering_angle(0.5, REFR).angle
        assert math.atan2(out.v[1], out.v[0]) == pytest.approx(theta, abs=1e-12)
        n = refractive_index(REFR)
        b1, b2 = math.asin(0.5), math.asin(0.5 / n)
        entry = np.array([1.0, 0.0]) + 0.01 * np.array(
            [-math.sqrt(1 - 0.25), 0.5]
        )
        d_in = np.array([math.cos(b2 - b1), math.sin(b2 - b1)])
        chord = 2 * 0.01 * math.sqrt(1 - (0.5 / n) ** 2)
        exit_point = entry + chord * d_in
        t_entry = log.events[0].time
        t_exit = t_entry + chord / n
        nodes = [xy for (t, xy) in log.path if abs(t - t_exit) < 1e-12]
        assert nodes, "exit node missing from path"
        assert np.abs(np.array(nodes[0]) - exit_point).max() < 1e-9

    def test_total_reflection_within_refractive_regime(self):
        # rho beyond n: specular bounce, no interior segment
        fld = PlantedField([(1.0, 0.0)], 0.01)
        rho = 0.8  # > n ~ 0.606
        out, log = advance(state(0, 0.008, 1, 0), fld, REFR, 2.0)
        assert [e.kind for e in log.events] == [TOTAL_REFLECT]
        theta = scattering_angle(rho, REFR).angle
        assert math.atan2(out.v[1], out.v[0]) == pytest.approx(theta, abs=1e-12)

    def test_speed_outside_conserved(self):
        rng = np.random.default_rng(2)
        centers = [tuple(c) for c in rng.uniform(-1, 1, (150, 2))
                   if c[0] ** 2 + c[1] ** 2 > 0.05**2]
        fld = PlantedField(centers, 0.02)
        p = BarrierParams(epsilon=0.02, alpha=0.25, speed=1.0)
        out, log = advance(state(0, 0, 1, 0), fld, p, 5.0)
        assert len(log.events) >= 3
        # the stop time may land mid-chord; nudge out of the disk first
        for _ in range(5):
            if abs(out.speed - 1.0) < 1e-6:
                break
            out, _ = advance(out, fld, p, 0.05)
        assert abs(out.speed - 1.0) < 1e-12

    def test_mid_chord_stop_and_resume(self):
        fld = PlantedField([(1.0, 0.0)], 0.01)
        n = refractive_index(REFR)
        t_mid = 0.99 + 0.5 * (0.02 / n)
        mid, _ = advance(state(0, 0, 1, 0), fld, REFR, t_mid)
        assert mid.speed == pytest.approx(n, abs=1e-14)  # interior speed
        assert 0.99 < mid.x[0] < 1.01
        resumed, _ = advance(mid, fld, REFR, 2.0 - t_mid)
        full, _ = advance(state(0, 0, 1, 0), fld, REFR, 2.0)
        assert np.abs(resumed.x - full.x).max() < 1e-9
        assert np.abs(resumed.v - full.v).max() < 1e-12


class TestTimeReversal:
    def test_backward_is_reversed_advance_empty(self):
        out, _ = backward_flow(state(1, 2, 0.6, 0.8), PlantedField([], 0.01),
                               REFR, 3.0)
        assert np.allclose(out.x, [1 - 1.8, 2 - 2.4], atol=1e-12)
        assert np.allclose(out.v, [0.6, 0.8], atol=0.0)

    def test_roundtrip_through_planted_clouds(self):
        # advance then backward: identity on non-pathological
        # trajectories.  Dispersing scattering amplifies rounding by
        # roughly (free path / radius) per collision, so the roundtrip
        # tolerance is graded by the event count and trajectories with
        # overlap events are excluded (the overlap shadow rule is not
        # time symmetric).
        p = BarrierParams(epsilon=0.03, alpha=0.25, speed=1.0)
        total_events = 0
        checked = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            centers = [tuple(c) for c in rng.uniform(-2, 2, (350, 2))
                       if c[0] ** 2 + c[1] ** 2 > 0.06**2]
            fld = PlantedField(centers, 0.03)
            s0 = state(0, 0, math.cos(0.3), math.sin(0.3))
            fwd, log = advance(s0, fld, p, 3.0)
            q = len(log.events)
            if not 1 <= q <= 6:
                continue
            rep = classify_pathologies(log, fld)
            if rep.overlaps:
                continue
            total_events += q
            checked += 1
            back, _ = backward_flow(fwd, fld, p, 3.0)
            # ~one decimal digit lost per collision on top of 1e-12
            tol = 1e-12 * 20.0 ** min(q, 6)
            assert np.abs(back.x - s0.x).max() < tol
            assert np.abs(back.v - s0.v).max() < tol
        assert checked >= 4 and total_events >= 10

    def test_roundtrip_short_trajectories_sharp(self):
        # with 1-2 events the identity holds to 1e-9 and far below
        fld = PlantedField([(1.0, 0.004)], 0.01)
        s0 = state(0, 0, 1, 0)
        fwd, log = advance(s0, fld, REFR, 2.0)
        assert len(log.events) == 1
        back, _ = backward_flow(fwd, fld, REFR, 2.0)
        assert np.abs(back.x - s0.x).max() < 1e-9
        assert np.abs(back.v - s0.v).max() < 1e-9

    def test_roundtrip_from_mid_chord(self):
        fld = PlantedField([(1.0, 0.0)], 0.01)
        n = refractive_index(REFR)
        t_mid = 0.99 + 0.4 * (0.02 / n)
        mid, _ = advance(state(0, 0.003, 1, 0), fld, REFR, t_mid)
        back, _ = backward_flow(mid, fld, REFR, t_mid)
        assert np.abs(back.x - [0, 0.003]).max() < 1e-9
        assert np.abs(back.v - [1, 0]).max() < 1e-9

    def test_two_disk_fixture_mirror(self):
        # place the second disk on the deflected ray so both are hit
        first = PlantedField([(1.0, 0.004)], 0.01)
        probe, _ = advance(state(0, 0, 1, 0), first, REFR, 1.2)
        u = probe.v / probe.speed
        c2 = probe.x + 0.5 * u + 0.003 * np.array([-u[1], u[0]])
        fld = PlantedField([(1.0, 0.004), tuple(c2)], 0.01)
        s0 = state(0, 0, 1, 0)
        fwd, log_f = advance(s0, fld, REFR, 2.5)
        assert len(log_f.events) >= 2
        back, log_b = backward_flow(fwd, fld, REFR, 2.5)
        assert np.abs(back.x - s0.x).max() < 1e-9
        # backward path retraces the forward path (mirror in time)
        fx = np.array([xy for _, xy in log_f.path])
        bx = np.array([xy for _, xy in log_b.path])
        assert np.abs(fx[0] - bx[-1]).max() < 1e-9
        assert np.abs(fx[-1] - bx[0]).max() < 1e-9


class TestPathologies:
    def test_straight_path_all_zero(self):
        fld = PlantedField([], 0.04)
        _, log = advance(state(0, 0, 0.5, 0), fld, HARD, 4.0)
        rep = classify_pathologies(log, fld)
        assert (rep.overlaps, rep.recollisions, rep.interferences,
                rep.q_collisions) == (0, 0, 0, 0)

    def test_recollision_fixture(self):
        # bounce A -> B -> A: disk A re-entered after the collision at B
        fld = PlantedField([(1.0, 0.0), (-1.0, 0.0)], 0.04)
        _, log = advance(state(0, 0, 0.5, 0), fld, HARD, 9.7)
        rep = classify_pathologies(log, fld)
        assert rep.q_collisions == 3
        assert rep.recollisions == 1
        assert rep.interferences == 0
        assert rep.overlaps == 0

    def test_interference_fixture(self):
        # resume mid-chord inside barrier C (the state a budget expiring
        # inside C leaves): the first flight crosses C without a
        # collision, reflects almost head-on off B (|rho| = 0.15 > n),
        # then hits C from outside.  A hard-disk run cannot start inside
        # a disk, so the fixture uses a low-n barrier.
        p = BarrierParams(epsilon=0.1, alpha=0.5, speed=0.8)  # n ~ 0.109
        fld = PlantedField([(0.5, 0.0), (0.8, 0.015)], 0.1)
        v_int = refractive_index(p) * p.speed
        _, log = advance(state(0.45, 0.0, v_int, 0.0), fld, p, 2.5)
        rep = classify_pathologies(log, fld)
        assert [e.center for e in log.events] == [(0.8, 0.015), (0.5, 0.0)]
        assert rep.q_collisions == 2
        assert rep.interferences == 1
        assert rep.recollisions == 0

    def test_zero_length_segment_skipped(self):
        # a path that stands still before its first collision: its
        # zero-length segment is passed over, not projected on
        fld = PlantedField([(1.0, 0.0)], 0.04)
        log = TrajectoryLog(
            events=[TrajectoryEvent(1.0, (1.0, 0.0), 0.0, HARD_REFLECT)],
            path=[(0.0, (0.0, 0.0)), (0.5, (0.0, 0.0)),
                  (1.0, (0.96, 0.0))])
        rep = classify_pathologies(log, fld)
        assert (rep.overlaps, rep.recollisions, rep.interferences,
                rep.q_collisions) == (0, 0, 0, 1)

    def test_overlap_counted_between_collided_pair(self):
        # two overlapping disks both hit by the trajectory
        fld = PlantedField([(1.0, 0.035), (1.02, -0.035)], 0.04)
        _, log = advance(state(0, 0, 0.5, 0), fld, HARD, 6.0)
        rep = classify_pathologies(log, fld)
        if rep.q_collisions >= 2:
            assert rep.overlaps == 1


class TestFirstBoundaryHit:
    def test_free_crossing_right(self):
        tau, side = first_wall_hit(state(0.5, 0, 1, 0), PlantedField([], 0.01),
                                   50.0)
        assert side == "right"
        assert tau == pytest.approx(0.5, abs=1e-12)

    def test_parallel_never_hits(self):
        tau, side = first_wall_hit(state(0.5, 0, 0, 1), PlantedField([], 0.01),
                                   25.0)
        assert (tau, side) == (None, None)

    def test_planted_deflector_sends_back(self):
        # head-on bounce at x = 0.65 returns the particle to the left wall
        fld = PlantedField([(0.75, 0.0)], 0.1)
        tau, side = first_wall_hit(state(0.25, 0, 1, 0), fld, 50.0)
        assert side == "left"
        assert tau == pytest.approx(0.4 + 0.65, abs=1e-9)

    def test_start_inside_hard_disk_rejected(self):
        # a hard disk's interior is unreachable: starting there is an error
        fld = PlantedField([(0.5, 0.005)], 0.01)
        with pytest.raises(ValueError, match="inside the disk"):
            first_wall_hit(state(0.5, 0, 1, 0), fld, 10.0)


class TestGuards:
    def test_stuck_particle_error(self, monkeypatch):
        # trapped between two mirrors; tiny event budget trips the guard
        monkeypatch.setattr(dynamics, "MAX_EVENTS", 50)
        fld = PlantedField([(0.0, 0.0), (1.0, 0.0)], 0.2)
        with pytest.raises(StuckParticleError):
            advance(state(0.5, 0.0, 1.0, 0.0), fld, None, 1e6)

    def test_field_params_epsilon_mismatch(self):
        fld = PlantedField([(1.0, 0.0)], 0.02)
        with pytest.raises(ValueError):
            advance(state(0, 0, 1, 0), fld, REFR, 1.0)


class TestCollisionStatistics:
    def test_rate_near_kinetic_prediction(self):
        # mechanical collision rate vs the idealized 2 mu eps^(-2a) |v|;
        # transit time inside barriers and overlap shadowing shift it at
        # finite eps (O(eps^(1-2a))), so the band is 15%, frozen by pilot
        eps, alpha = 2.0**-8, 0.25
        p = BarrierParams(epsilon=eps, alpha=alpha, speed=1.0)
        target = 2.0 * eps ** (-2 * alpha)
        total = 0
        n_traj = 250
        for i in range(n_traj):
            spec = FieldSpec(mu=1.0, epsilon=eps, seed=mix_key(97, i),
                             delta=1 + 2 * alpha)
            _, log = advance(ParticleState((0, 0), (1, 0)),
                             ScattererField(spec), p, 1.0)
            total += len(log.events)
        rate = total / n_traj
        assert abs(rate - target) / target < 0.15

    def test_hard_disk_mode_reflects(self):
        fld = PlantedField([(1.0, 0.0)], 0.05)
        out, log = advance(state(0, 0, 1, 0), fld, None, 2.0)
        assert [e.kind for e in log.events] == [HARD_REFLECT]
        assert out.v[0] == pytest.approx(-1.0, abs=0)


coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


class TestHardDiskIsAlwaysReflectingBarrier:
    """Hard disks (params=None) and a barrier with n_index 0 run the same
    flow from a free start; only the event labels differ."""

    @settings(max_examples=60)
    @given(centers=st.lists(st.tuples(coord, coord), max_size=40),
           phi=st.floats(0.0, 2.0 * math.pi), t=st.floats(0.0, 6.0))
    @example(centers=[(0.5, 0.01), (-0.5, 0.0)], phi=0.0, t=6.0)
    def test_same_flow(self, centers, phi, t):
        assert HARD.n_index == 0.0
        r = HARD.epsilon
        free = [c for c in centers if math.hypot(*c) > r]  # start outside
        fld = PlantedField(free, r)
        s0 = state(0.0, 0.0, 0.5 * math.cos(phi), 0.5 * math.sin(phi))
        hard, log_h = advance(s0, fld, None, t)
        barrier, log_b = advance(s0, fld, HARD, t)
        assert np.array_equal(hard.x, barrier.x)
        assert np.array_equal(hard.v, barrier.v)
        assert log_h.path == log_b.path

        def trace(log):
            return [(e.time, e.center, e.rho) for e in log.events]

        assert trace(log_h) == trace(log_b)
        assert all(e.kind == HARD_REFLECT for e in log_h.events)
        assert all(e.kind == TOTAL_REFLECT for e in log_b.events)


def batch_answers(batch, x, y, ux, uy, s_max):
    """``batch``'s first hit along each ray and disk containing each
    start, row j in the field keyed by batch.keys[j], in the form of the
    scalar answers: (s, (cx, cy)) or None, and (cx, cy) or None."""
    hits = batch._first_hits(*map(np.asarray, (x, y, ux, uy, s_max)))
    insides = batch._containing(np.asarray(x), np.asarray(y))
    return ([None if math.isnan(s) else (s, (cx, cy))
             for s, cx, cy in hits.T.tolist()],
            [None if math.isnan(cx) else (cx, cy)
             for cx, cy in insides.T.tolist()])


class TestFieldBatch:
    """``_FieldBatch`` answers every query as ``_first_hit`` and
    ``_find_containing_disk`` answer it on the query's own field, bit for
    bit, exact ties included."""

    @settings(max_examples=40)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
           log_lam=st.floats(math.log(0.01), math.log(200.0)),
           rays=st.lists(st.tuples(st.integers(0, 2), coord, coord,
                                   st.floats(0.0, 2.0 * math.pi),
                                   st.floats(0.0, 4.0),
                                   st.sampled_from(["free", "center", "rim"])),
                         min_size=1, max_size=8))
    # dense: starts inside several overlapping disks; a mean over 64
    @example(seeds=[7], log_lam=math.log(150.0),
             rays=[(0, -0.3, 0.2, 1.0, 4.0, "center"),
                   (0, 0.1, -0.7, 4.0, 3.0, "rim"),
                   (0, -0.9, -0.9, 0.8, 4.0, "free")])
    @example(seeds=[1, 2], log_lam=math.log(0.01),
             rays=[(0, 0.0, 0.0, 0.7, 4.0, "free"),
                   (1, -0.5, 0.5, 2.0, 1.0, "free")])
    def test_poisson_fields(self, seeds, log_lam, rays):
        r = 0.05
        spec = FieldSpec(mu=math.exp(log_lam) / (4.0 * r) ** 2, epsilon=r,
                         seed=0, delta=0.0)
        fields = [ScattererField(FieldSpec(spec.mu, r, s, delta=0.0))
                  for s in seeds]
        keys = np.array([mix_key(s) for s in seeds], dtype=np.uint64)
        rows = [f % len(seeds) for f, *_ in rays]
        batch = _FieldBatch(fields[0], keys[rows])
        queries = []
        for j, (f, x, y, phi, windows, at) in enumerate(rays):
            fld = fields[rows[j]]
            if at != "free":
                # start on a disk near the point: at its center, or on its
                # rim (in a dense field also inside others)
                near = _find_containing_disk(fld, x, y, 10.0 * r) or (x, y)
                x, y = near[0] + (r if at == "rim" else 0.0), near[1]
            # several windows long where a window is at most 1 (lam > 0.4),
            # part of one below, where one window holds ~(3/lam)^2 cells
            s_max = windows * min(fld.march_window, 1.0)
            queries.append((x, y, math.cos(phi), math.sin(phi), s_max))
        got = batch_answers(batch, *zip(*queries))
        # a few cells per numpy pass: the queries split into many passes
        with mock.patch.object(dynamics, "_BATCH_CELLS", 5):
            assert batch_answers(batch, *zip(*queries)) == got
        for j, q in enumerate(queries):
            fld = fields[rows[j]]
            assert got[0][j] == _first_hit(fld, *q[:4], r, q[4])
            assert got[1][j] == _find_containing_disk(fld, q[0], q[1], r)

    R = 2.0**-5  # exact in binary, as the ties need

    def test_ties_go_to_scan_order(self):
        # two disks mirrored about a level ray are entered at the same s,
        # and a point midway between them is as near to both; the first
        # in scan order wins: the lower cell across a cell edge (y = 0.5),
        # the first listed within a cell (0.5 < y < 0.625)
        r, d = self.R, 0.5 * self.R
        for y0, first in ((0.5, 1), (0.5625, 0)):
            centers = [(1.0, y0 + d), (1.0, y0 - d)]
            fld = PlantedField(centers, r)
            batch = _FieldBatch(fld, np.zeros(2, dtype=np.uint64))
            (hit, _), (_, inside) = batch_answers(
                batch, [0.0, 1.0], [y0, y0], [1.0, 1.0], [0.0, 0.0],
                [2.0, 2.0])
            want_hit = _first_hit(fld, 0.0, y0, 1.0, 0.0, r, 2.0)
            assert want_hit[1] == centers[first]
            assert hit == want_hit
            assert inside == _find_containing_disk(fld, 1.0, y0, r)
            assert inside == centers[first]

    def test_containing_at_cell_edges(self, monkeypatch):
        # points on a cell edge or corner, and r or r/2 off one, at
        # negative coordinates and across the seam of a field periodic in
        # y over 3 cells (about 6 centers a cell): the cells of the box
        # around the point's r-disk give the 3 x 3 scan's answer
        r = self.R
        cs = 4.0 * r
        fld = ScattererField(FieldSpec(mu=12.0, epsilon=r, seed=3, eta=1.0,
                                       y_period=3.0 * cs))
        offsets = (-r, -0.5 * r, 0.0, 0.5 * r, r, 1.5 * r)
        pts = np.array([(ix * cs + dx, iy * cs + dy)
                        for ix in (-2, -1, 0, 1) for iy in (-4, -1, 0, 2, 3)
                        for dx in offsets for dy in offsets])
        asked, cells = [], fld.cells

        def counted(keys, ix, iy):
            asked.append(len(ix))
            return cells(keys, ix, iy)

        monkeypatch.setattr(fld, "cells", counted)
        batch = _FieldBatch(fld, np.full(len(pts), mix_key(3), np.uint64))
        got = batch._containing(pts[:, 0], pts[:, 1]).T.tolist()
        want = [_find_containing_disk(fld, x, y, r) for x, y in pts.tolist()]
        assert [None if math.isnan(g[0]) else tuple(g) for g in got] == want
        assert sum(w is not None for w in want) > len(pts) // 2
        assert len(pts) < sum(asked) <= 4 * len(pts)
        assert batch._containing(np.zeros(0), np.zeros(0)).shape == (2, 0)


def array_run(field, params, starts, t_max):
    """Runs from each start (x, y, vx, vy) for t_max (one, or one per
    start) through ``field``, every walk in the one field, as one
    ``_walks`` walk.  Returns the final states (x, y, vx, vy, speed, t),
    the event counts and the ``_ArrayLog``."""
    m = len(starts)
    F, ev = np.zeros((m, 6)), np.zeros(m, dtype=np.int64)
    log = _ArrayLog(m)
    for j, _, G, e, _, _ in _walks(
            field, m, lambda a, b: (np.zeros(b - a, dtype=np.uint64),
                                    starts[a:b]),
            np.reshape(t_max, (-1, 1)), params.n_index, log=log):
        F[j], ev[j] = G, e
    return F, ev, log


class TestArrayWalk:
    """The refill driver ``_walks`` runs each walk as ``advance`` runs
    it: the same final state, and the same log event by event and point
    by point."""

    def test_walks_are_asked_for_by_the_block(self, monkeypatch):
        # keys and starts cost a numpy pass each, so the driver asks for
        # them a block of _LIVE_WALKS at a time, in index order, not once
        # a step as walks end; and no step has more walks live
        monkeypatch.setattr(dynamics, "_LIVE_WALKS", 8)
        live, flights = [], dynamics._flights

        def counted(batch, F, *args, **kw):
            live.append(len(F))
            return flights(batch, F, *args, **kw)

        monkeypatch.setattr(dynamics, "_flights", counted)
        rng = np.random.default_rng(3)
        r, speed, m = REFR.epsilon, REFR.speed, 50
        fld = PlantedField(rng.uniform(-8 * r, 8 * r, (40, 2)).tolist(), r)
        starts = [(x, y, speed * math.cos(phi), speed * math.sin(phi))
                  for x, y, phi in zip(*rng.uniform(-6 * r, 6 * r, (2, m)),
                                       rng.uniform(0.0, 2 * math.pi, m))]
        asked = []

        def new(a, b):
            asked.append((a, b))
            return np.zeros(b - a, dtype=np.uint64), starts[a:b]

        spans = rng.uniform(2.0, 30.0, (m, 1)) * r / speed
        ended = [j for j, *_ in _walks(fld, m, new, spans, REFR.n_index)]
        assert sorted(np.concatenate(ended).tolist()) == list(range(m))
        assert asked == [(a, min(a + 8, m)) for a in range(0, m, 8)]
        assert len(asked) <= math.ceil(m / 8) + 1
        assert len(live) > 2 * len(asked) and max(live) == 8

    def test_slices_equal_advance_per_slice(self):
        # each slice is a new run from where the last one stopped: walk 0
        # stops mid-chord, then stops again while finishing that chord
        # (its second slice ends on starting, next to walk 1's flight),
        # then leaves the disk; its log is advance's logs, slice by slice
        r = REFR.epsilon
        fld = PlantedField([(0.0, 0.0)], r)
        starts = [(-0.9 * r, 0.0, 1.0, 0.0), (0.5, 0.5, 0.6, 0.8)]
        spans = (0.5 * r, 0.5 * r, 5.0 * r)
        log = _ArrayLog(2)
        got = {}
        for j, c, F, ev, _, _ in _walks(
                fld, 2, lambda a, b: (np.zeros(b - a, dtype=np.uint64),
                                      starts[a:b]), spans, REFR.n_index,
                log=log):
            got.update({(a, b): (f, e) for a, b, f, e in zip(
                j.tolist(), c.tolist(), F[:, :4].tolist(), ev.tolist())})
        for j, start in enumerate(starts):
            st, events, path = state(*start), [], []
            for c, span in enumerate(spans):
                st, lg = advance(st, fld, REFR, span)
                assert got[j, c] == ([*st.x, *st.v], len(lg.events))
                events += lg.events
                path += lg.path
            assert log.logs[j].events == events
            assert log.logs[j].path == path
        assert _find_containing_disk(fld, *got[0, 1][0][:2], r) is not None

    @pytest.mark.parametrize("params", [REFR, HARD],
                             ids=["refractive", "always-reflecting"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_cloud_equals_advance(self, params, seed):
        # 40 disks over a box of side 16 r: overlaps, starts inside a
        # disk (escapes when refractive), both branches, and runs of 2 to
        # 30 radii of travel, some of them stopping mid-chord
        rng = np.random.default_rng(seed)
        r, speed = params.epsilon, params.speed
        fld = PlantedField(rng.uniform(-8 * r, 8 * r, (40, 2)).tolist(), r)
        starts = [(x, y, speed * math.cos(phi), speed * math.sin(phi))
                  for x, y, phi in zip(*rng.uniform(-6 * r, 6 * r, (2, 24)),
                                       rng.uniform(0.0, 2 * math.pi, 24))]
        t_max = (rng.uniform(2.0, 30.0, 24) * r / speed).tolist()
        F, ev, log = array_run(fld, params, starts, t_max)
        logs = log.logs
        for j, start in enumerate(starts):
            out, log = advance(state(*start), fld, params, t_max[j])
            assert F[j, :4].tolist() == [*out.x, *out.v], j
            assert logs[j].events == log.events, j
            assert logs[j].path == log.path, j
            assert ev[j] == len(log.events)
        kinds = {e.kind for lg in logs for e in lg.events}
        assert kinds == ({TOTAL_REFLECT, BARRIER_TRAVERSE} if params is REFR
                         else {TOTAL_REFLECT})

    def test_event_just_past_t_max_ends_the_run(self):
        # the hit lies within the budget speed * t_max, but its time
        # s / speed rounds above t_max: the run ends at the event, with
        # no further flight of negative length
        params = BarrierParams(epsilon=0.04, alpha=0.5, speed=0.6)
        assert params.always_reflects
        t_max, center = 0.225, (0.17500000000000002, 0.0)
        fld = PlantedField([center], params.epsilon)
        s_in, _ = _first_hit(fld, 0.0, 0.0, 1.0, 0.0, params.epsilon,
                             0.6 * t_max)
        assert s_in / 0.6 > t_max
        F, ev, walk = array_run(fld, params, [(0.0, 0.0, 0.6, 0.0)], t_max)
        logs = walk.logs
        out, log = advance(state(0.0, 0.0, 0.6, 0.0), fld, params, t_max)
        assert F[0, :4].tolist() == [*out.x, *out.v]
        assert F[0, 5] > t_max and ev[0] == 1
        assert logs[0].events == log.events and logs[0].path == log.path

    @pytest.mark.parametrize("params", [REFR, HARD],
                             ids=["refractive", "always-reflecting"])
    def test_pathologies_equal_classify_pathologies(self, params):
        # 60 disks over a box of side 12 r: walks among overlapping disks
        # re-enter some and cross others before they hit them (from a
        # start inside a disk, or off a disk they are inside of); the
        # last walk starts far off and has no event
        rng = np.random.default_rng(11)
        r, speed, m = params.epsilon, params.speed, 40
        fld = PlantedField(rng.uniform(-6 * r, 6 * r, (60, 2)).tolist(), r)
        starts = [(x, y, speed * math.cos(phi), speed * math.sin(phi))
                  for x, y, phi in zip(*rng.uniform(-5 * r, 5 * r, (2, m)),
                                       rng.uniform(0.0, 2 * math.pi, m))]
        starts[-1] = (100.0 * r, 0.0, speed, 0.0)
        t_max = rng.uniform(5.0, 60.0, m) * r / speed
        log = array_run(fld, params, starts, t_max)[2]
        got = log.pathologies(r)
        want = []
        for lg in log.logs:
            rep = classify_pathologies(lg, fld)
            want.append([rep.recollisions, rep.interferences, rep.overlaps,
                         rep.q_collisions])
        assert got.tolist() == want
        assert (got[:-1].sum(axis=0) > 0).all() and (got[-1] == 0).all()

    def test_overlap_squares_by_pow(self):
        # pairs of centers 2 r apart to within an ulp, on which libm pow
        # (x ** 2, the scalar rule's) and x * x disagree about the
        # overlap: the classifier takes pow's answer (1, then 0)
        r = 2.0**-5
        near = [(0.02660898205317018, 0.05655273710523715),
                (0.005531373265355605, 0.062254750098280125)]
        log = _ArrayLog(2)
        log.ids = np.arange(2)
        for t in (0.0, 1.0, 2.0):
            log.path(log.ids, t, np.full(2, 5.0), np.full(2, t))
        log.event(log.ids, np.ones(2), *np.transpose(near), np.zeros(2),
                  np.zeros(2))
        log.event(log.ids, np.full(2, 2.0), np.zeros(2), np.zeros(2),
                  np.zeros(2), np.zeros(2))
        got = log.pathologies(r)
        fld = PlantedField([], r)
        for j, lg in enumerate(log.logs):
            rep = classify_pathologies(lg, fld)
            assert got[j].tolist() == [rep.recollisions, rep.interferences,
                                       rep.overlaps, rep.q_collisions]
        assert got[:, 2].tolist() == [1, 0]
