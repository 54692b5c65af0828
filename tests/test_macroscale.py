"""Heat solver, slab parameters, boundary-driven slab."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorentzlab import dynamics, macroscale
from lorentzlab.dynamics import (_FieldBatch, _find_containing_disk,
                                 _first_hit)
from lorentzlab.macroscale import (
    HeatProblem,
    SlabSpec,
    _bin_segment,
    _bin_segments,
    _injection_starts,
    _run_injection,
    _slab_chunks,
    simulate_slab_stationary,
    slab_field_spec,
    solve_heat,
)
from lorentzlab.medium import PlantedField, ScattererField, member_keys
from lorentzlab.rng import mix_key, rng_stream


def gaussian_grid(sigma, span, n):
    edges = np.linspace(-span, span, n + 1)
    dx = edges[1] - edges[0]
    c = 0.5 * (edges[:-1] + edges[1:])
    gx, gy = np.meshgrid(c, c, indexing="ij")
    u = np.exp(-(gx**2 + gy**2) / (2 * sigma**2))
    return u / (u.sum() * dx * dx), dx, c


class TestSolveHeat:
    def test_uniform_is_equilibrium(self):
        u0 = np.full((20, 20), 0.7)
        prob = HeatProblem(D=1.0, initial=u0, dx=0.1, dt=0.002)
        out = solve_heat(prob, 0.5)
        assert np.allclose(out, 0.7, atol=1e-12)

    def test_zero_D_returns_initial(self):
        u0 = np.random.default_rng(0).random((10, 10))
        out = solve_heat(HeatProblem(0.0, u0, 0.1, 0.001), 3.0)
        assert np.array_equal(out, u0)

    def test_cfl_rejected(self):
        with pytest.raises(ValueError):
            HeatProblem(D=1.0, initial=np.ones((4, 4)), dx=0.1, dt=0.01)

    @pytest.mark.parametrize("D,dx,dt,message", [
        (-0.1, 1.0, 0.1, "D must be nonnegative"),
        (1.0, 0.0, 0.1, "dx and dt must be positive"),
        (1.0, 1.0, 0.0, "dx and dt must be positive"),
        (1.0, -1.0, 0.1, "dx and dt must be positive"),
    ])
    def test_bad_grid_rejected(self, D, dx, dt, message):
        with pytest.raises(ValueError, match=message):
            HeatProblem(D=D, initial=np.ones((4, 4)), dx=dx, dt=dt)

    def test_negative_time_rejected(self):
        prob = HeatProblem(D=1.0, initial=np.ones((4, 4)), dx=1.0, dt=0.1)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            solve_heat(prob, -1.0)

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            HeatProblem(D=1.0, initial=-np.ones((4, 4)), dx=1.0, dt=0.1)

    def test_mass_conserved(self):
        u0 = np.random.default_rng(1).random((30, 30))
        prob = HeatProblem(D=0.5, initial=u0, dx=0.05, dt=0.001)
        out = solve_heat(prob, 1.0)  # 1000 steps
        assert abs(out.sum() - u0.sum()) / u0.sum() < 1e-12

    def test_gaussian_kernel_oracle(self):
        # Gaussian stays Gaussian with variance sigma^2 + 2 D t per axis
        D, t, sigma = 0.3, 0.4, 0.35
        span = 4.0
        u0, dx, c = gaussian_grid(sigma, span, 160)
        prob = HeatProblem(D=D, initial=u0, dx=dx, dt=0.8 * 0.25 * dx * dx / D)
        out = solve_heat(prob, t)
        s2 = sigma**2 + 2 * D * t
        gx, gy = np.meshgrid(c, c, indexing="ij")
        exact = np.exp(-(gx**2 + gy**2) / (2 * s2)) / (2 * math.pi * s2)
        l2 = math.sqrt(((out - exact) ** 2).sum() * dx * dx)
        assert l2 < 1e-3


class TestProfileAndFlux:
    @pytest.mark.parametrize("change,message", [
        ({"L": 0.0}, "L must be positive"),
        ({"rho1": -1.0}, "reservoir densities must be nonnegative"),
        ({"rho2": -1.0}, "reservoir densities must be nonnegative"),
        ({"eta": 0.0}, "eta, epsilon, mu must be positive"),
        ({"epsilon": 0.0}, "eta, epsilon, mu must be positive"),
        ({"mu": -1.0}, "eta, epsilon, mu must be positive"),
    ])
    def test_bad_slab_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            SlabSpec(**{**dict(L=1.0, rho1=2.0, rho2=1.0, eta=1.0,
                               epsilon=0.01), **change})

    def test_regime_guard_warns(self):
        with pytest.warns(RuntimeWarning):
            SlabSpec(L=1.0, rho1=2.0, rho2=1.0, eta=2.0, epsilon=2.0**-6)

    def test_slab_field_spec_intensity(self):
        # the realized intensity is SlabSpec.mu_eff exactly, the value the
        # free-area fraction and the Green-Kubo rate use; at (1.7, 0.02)
        # mu * (eta * r / epsilon) / r is one ulp away from it
        for eta in (1.5, 1.7, 2.3):
            for epsilon in (0.02, 0.021, 0.03, 2.0**-6):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    slab = SlabSpec(L=1.0, rho1=1.0, rho2=1.0, eta=eta,
                                    epsilon=epsilon)
                fs = slab_field_spec(slab, seed=1)
                assert fs.epsilon == slab.epsilon
                assert fs.mu_eff == slab.mu_eff
                assert fs.y_period == pytest.approx(16 * fs.cell_size)


class TestSlabSimulation:
    @pytest.mark.parametrize("n_injections,n_bins", [(1, 16), (100, 1)])
    def test_too_few_bins_or_injections_rejected(self, n_injections,
                                                  n_bins):
        slab = SlabSpec(L=1.0, rho1=2.0, rho2=1.0, eta=1.0, epsilon=0.01)
        with pytest.raises(ValueError,
                           match="need at least 2 bins and 2 injections"):
            simulate_slab_stationary(slab, n_injections, n_bins=n_bins)

    def test_free_streaming_equilibrium(self):
        # a vanishing intensity (no scatterers in any cell reached), equal
        # reservoirs: flat profile at rho, zero flux
        slab = SlabSpec(L=1.0, rho1=1.5, rho2=1.5, eta=1e-12, epsilon=0.02)
        res = simulate_slab_stationary(slab, n_injections=8000, seed=3,
                                       n_bins=10, t_max=50.0)
        # near-tangential injections legitimately outlive t_max
        assert res.n_timeouts < 10
        assert np.all(np.abs(res.rho_hat - 1.5) <= 3.0 * res.rho_se)
        assert np.all(np.abs(res.J_hat) <= 3.0 * res.J_se)

    def test_hard_disk_equilibrium_flat_per_free_area(self):
        # equal reservoirs in a Poisson strip covering a third of the
        # plane: the profile is flat at rho per unit free area
        with pytest.warns(RuntimeWarning):
            slab = SlabSpec(L=1.0, rho1=1.5, rho2=1.5, eta=2.0,
                            epsilon=2.0**-4)
        res = simulate_slab_stationary(slab, n_injections=4000, seed=8,
                                       n_bins=8, t_max=200.0)
        phi = math.exp(-slab.mu_eff * math.pi * slab.epsilon**2)
        assert res.metadata["free_area_fraction"] == pytest.approx(phi)
        assert res.n_timeouts == 0
        # bins share trajectories; the mean per-bin SE bounds the SE of
        # their average
        assert abs(res.rho_hat.mean() - 1.5) <= 3.0 * res.rho_se.mean()
        assert np.all(np.abs(res.J_hat) <= 3.0 * res.J_se)

    def test_covered_injection_adds_nothing_but_counts(self):
        # a row of disks along x = 0 covers the whole left wall; the
        # chunk's injections 0 and 2 enter there, 1 and 3 at the right
        r = 0.02
        slab = SlabSpec(L=1.0, rho1=1.0, rho2=0.0, eta=1.0, epsilon=r)
        width = 16 * 4.0 * r
        wall = [(0.0, k * r) for k in range(int(width / r) + 2)]

        def run(centers):
            # the sums of the worker's one chunk
            (chunk,) = _slab_chunks((slab, PlantedField(centers, r), 0, 11,
                                     4, 1e9, 4, width, 0, 4))
            return chunk

        sums, _, cnt, nsum, _, timeouts = run(wall)
        free_sums, _, free_cnt, free_nsum, _, _ = run([])
        # a covered injection adds zero occupation and zero crossings,
        # where a free one adds both (net +1 across every face)
        assert not sums[0].any() and not nsum[0].any()
        assert np.all(free_sums[0] > 0.0) and np.all(free_nsum[0] == 2.0)
        # but it stays in its side's count, one per half
        assert cnt.tolist() == free_cnt.tolist() == [[1, 1], [1, 1]]
        # the right injections still run, off the wall of disks
        assert np.all(sums[1] > 0.0) and timeouts == 0

    def test_one_sided_injection_monotone(self):
        # rho2 = 0: all mass enters from the left; profile decreases
        with pytest.warns(RuntimeWarning):
            slab = SlabSpec(L=1.0, rho1=2.0, rho2=0.0, eta=2.0,
                            epsilon=2.0**-5)
        res = simulate_slab_stationary(slab, n_injections=12_000, seed=4,
                                       n_bins=8, t_max=200.0)
        rho = res.rho_hat
        # allow one CI-sized wiggle but require a clear downward trend
        assert rho[0] > rho[-1] + 3 * (res.rho_se[0] + res.rho_se[-1])
        diffs = np.diff(rho)
        assert (diffs <= 2 * (res.rho_se[:-1] + res.rho_se[1:])).all()

    def test_stationarity_halves_agree(self):
        slab = SlabSpec(L=1.0, rho1=2.0, rho2=1.0, eta=1.0, epsilon=2.0**-5)
        res = simulate_slab_stationary(slab, n_injections=10_000, seed=5,
                                       n_bins=8, t_max=200.0)
        gap = np.abs(res.rho_halves[0] - res.rho_halves[1])
        assert np.all(gap <= 1.96 * (res.rho_halves_se[0] + res.rho_halves_se[1]))

    def test_flux_sign_follows_gradient(self):
        slab = SlabSpec(L=1.0, rho1=1.0, rho2=2.0, eta=1.0, epsilon=2.0**-5)
        res = simulate_slab_stationary(slab, n_injections=10_000, seed=6,
                                       n_bins=8, t_max=200.0)
        # denser right reservoir drives leftward flux
        assert res.J_hat.mean() < 0.0

    def test_worker_count_does_not_change_results(self):
        slab = SlabSpec(L=1.0, rho1=2.0, rho2=1.0, eta=1.0, epsilon=2.0**-5)
        a = simulate_slab_stationary(slab, n_injections=2000, seed=7,
                                     n_bins=8, t_max=100.0, workers=1)
        b = simulate_slab_stationary(slab, n_injections=2000, seed=7,
                                     n_bins=8, t_max=100.0, workers=3)
        assert np.array_equal(a.rho_hat, b.rho_hat)
        assert np.array_equal(a.J_hat, b.J_hat)


class TestInjectionStarts:
    def test_equal_one_stream_per_injection(self):
        # the Philox pass gives each injection the start its own
        # rng_stream gives it, drawn one value at a time
        slab = SlabSpec(L=1.0, rho1=2.0, rho2=1.0, eta=1.0, epsilon=2.0**-8)
        seed, width = 20240901, 0.25
        want = []
        for i in range(37, 300):
            rng = rng_stream(seed, i)
            y0 = rng.random() * width
            phi = math.asin(2.0 * rng.random() - 1.0)
            vx, vy = math.cos(phi), math.sin(phi)
            want.append((0.0, y0, vx, vy) if i % 2 == 0
                        else (slab.L, y0, -vx, vy))
        got = _injection_starts(slab, seed, width, 37, 300)
        assert got == want
        assert all(type(v) is float for start in got for v in start)


def run_walk(slab, field, keys, starts, n_bins, t_max):
    """(tau, net, timed_out) of injection j from starts[j] in the field of
    ``field``'s layout keyed by keys[j]: the injections run as one
    ``dynamics._walks`` walk, binned as ``_slab_chunks`` bins them."""
    m, dxb = len(keys), slab.L / n_bins
    occ, timed_out = np.zeros((m, 2 * n_bins - 1)), np.zeros(m, dtype=bool)

    def tally(occ, *segment):
        _bin_segments(occ[:, :n_bins], occ[:, n_bins:], dxb, *segment)

    for j, _, _, _, acc, late in dynamics._walks(
            field, m, lambda a, b: (keys[a:b], starts[a:b]), (t_max,), 0.0,
            walls=(0.0, slab.L), tally=tally, width=2 * n_bins - 1):
        occ[j], timed_out[j] = acc, late
    return occ[:, :n_bins], occ[:, n_bins:], timed_out


def walk_equals_oracle(slab, field, keys, fields, starts, n_bins, t_max):
    """Run ``run_walk`` on ``field``'s layout keyed by ``keys`` and check
    each injection against the scalar oracle on its own field of
    ``fields``; returns the walk's (tau, net, timed_out)."""
    tau, net, timed_out = run_walk(slab, field, keys, starts, n_bins, t_max)
    for j, (fld, start) in enumerate(zip(fields, starts)):
        want_tau, want_net, want_late = _run_injection(fld, slab, *start,
                                                       n_bins, t_max)
        assert np.array_equal(tau[j], want_tau), j
        assert np.array_equal(net[j], want_net), j
        assert timed_out[j] == want_late, j
    return tau, net, timed_out


def poisson_block(epsilon, eta, L, y_period_cells, seed, n):
    """A slab, and its first n injections as ``_slab_chunks`` runs them:
    the layout field, the keys, each injection's own field and the
    starts."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        slab = SlabSpec(L=L, rho1=1.0, rho2=1.0, eta=eta, epsilon=epsilon)
    spec = slab_field_spec(slab, seed, y_period_cells)
    keys = member_keys(mix_key(spec.seed), 0, n)
    fields = [ScattererField(replace(spec, seed=mix_key(spec.seed, i)))
              for i in range(n)]
    starts = _injection_starts(slab, seed, spec.y_period, 0, n)
    return slab, ScattererField(spec), keys, fields, starts


def assert_flux_constant(net, timed_out):
    # a path that enters and leaves through the walls crosses every face
    # the same net number of times: +1 or -1 if it crosses the slab, 0 if
    # it leaves by the wall it entered
    for row in net[~timed_out]:
        assert np.all(row == row[0])
        assert row[0] in (-1.0, 0.0, 1.0)


class TestLockstepDriver:
    """The slab's array-state walk gives each injection exactly what the
    scalar oracle ``_run_injection`` gives it."""

    @settings(max_examples=25)
    @given(epsilon=st.sampled_from([2.0**-6, 0.02, 0.03, 0.05]),
           eta=st.floats(0.5, 3.0), L=st.floats(0.25, 2.0),
           n_bins=st.integers(2, 12),
           t_max=st.sampled_from([5.0, 50.0, 500.0]),
           y_period_cells=st.sampled_from([1, 2, 3, 16]),
           seed=st.integers(0, 2**32 - 1))
    # one cell per period: a query window spans several periods
    @example(epsilon=0.03, eta=2.0, L=1.0, n_bins=6, t_max=500.0,
             y_period_cells=1, seed=7)
    def test_equals_scalar_oracle(self, epsilon, eta, L, n_bins, t_max,
                                  y_period_cells, seed):
        block = poisson_block(epsilon, eta, L, y_period_cells, seed, 24)
        _, net, timed_out = walk_equals_oracle(*block, n_bins, t_max)
        assert_flux_constant(net, timed_out)

    @pytest.mark.parametrize("cells", [1, 5])
    def test_cell_budget_does_not_change_results(self, monkeypatch, cells):
        # the searches split into numpy passes of a few cells each: every
        # result stays the oracle's
        slab, field, keys, fields, starts = poisson_block(2.0**-5, 2.0, 1.0,
                                                          16, 3, 12)
        want = run_walk(slab, field, keys, starts, 8, 500.0)
        monkeypatch.setattr(dynamics, "_BATCH_CELLS", cells)
        got = walk_equals_oracle(slab, field, keys, fields, starts, 8,
                                     500.0)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @settings(max_examples=30)
    @given(y_period_cells=st.sampled_from([1, 2, 16]),
           seed=st.integers(0, 2**32 - 1),
           rays=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-3.0, 3.0),
                                   st.floats(0.0, 2.0 * math.pi),
                                   st.floats(0.0, 5.0)),
                         min_size=1, max_size=12))
    def test_any_query_equals_scalar_search(self, y_period_cells, seed, rays):
        # rays anywhere, of any length, several periods long, to a batch
        # over a Poisson layout, over one of another period, and over a
        # planted field
        slab, field, keys, fields, _ = poisson_block(
            2.0**-5, 2.0, 1.0, y_period_cells, seed, len(rays))
        _, other, other_keys, others, _ = poisson_block(
            2.0**-5, 2.0, 1.0, y_period_cells + 1, seed, len(rays))
        planted = PlantedField([(0.5, 0.0), (0.53, 0.01)], slab.epsilon)
        r = slab.epsilon
        for layout, keys, fields in (
                (field, keys, fields), (other, other_keys, others),
                (planted, np.zeros(len(rays), dtype=np.uint64),
                 [planted] * len(rays))):
            batch = _FieldBatch(layout, keys)
            x, y, phi, s_max = np.array(rays).T
            ux, uy = (np.array([f(p) for p in phi]) for f in (math.cos,
                                                              math.sin))
            hits = batch._first_hits(x, y, ux, uy, s_max).T.tolist()
            insides = batch._containing(x, y).T.tolist()
            for j, (*q, sj) in enumerate(zip(*(a.tolist() for a in (
                    x, y, ux, uy, s_max)))):
                s_in, cx, cy = hits[j]
                assert (None if math.isnan(s_in) else (s_in, (cx, cy))) == \
                    _first_hit(fields[j], *q, r, sj)
                cx, cy = insides[j]
                assert (None if math.isnan(cx) else (cx, cy)) == \
                    _find_containing_disk(fields[j], *q[:2], r)

    def test_timeouts_match(self):
        # a short time guard in a dense, narrow-period strip
        block = poisson_block(0.03, 2.0, 1.0, 1, 7, 32)
        _, _, timed_out = walk_equals_oracle(*block, 6, 5.0)
        assert 0 < timed_out.sum() < len(timed_out)

    @settings(max_examples=15)
    @given(eta=st.floats(0.5, 3.0), L=st.floats(0.25, 2.0),
           n_bins=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_flux_constant_on_every_trajectory(self, eta, L, n_bins, seed):
        slab, field, keys, _, starts = poisson_block(2.0**-5, eta, L, 16,
                                                     seed, 64)
        _, net, timed_out = run_walk(slab, field, keys, starts, n_bins,
                                          500.0)
        assert_flux_constant(net, timed_out)

    R = 2.0**-5  # exact in binary: the tie fixture needs exact arithmetic
    SLAB = SlabSpec(L=1.0, rho1=1.0, rho2=1.0, eta=1.0, epsilon=R)

    def planted(self, centers, starts, n_bins=4, t_max=50.0):
        field = PlantedField(centers, self.R)
        return walk_equals_oracle(
            self.SLAB, field, np.zeros(len(starts), dtype=np.uint64),
            [field] * len(starts), starts, n_bins, t_max)

    def test_empty_field(self):
        starts = [(0.0, 0.3, 0.6, 0.8), (1.0, 0.1, -1.0, 0.0),
                  (0.0, 0.0, 1.0, 0.0)]
        tau, net, timed_out = self.planted([], starts)
        assert np.all(net == [[1.0], [-1.0], [1.0]])
        assert not timed_out.any()
        assert tau[2] == pytest.approx(np.full(4, 0.25), rel=1e-12)

    def test_covered_wall_point(self):
        # the first start lies inside a disk, the second just misses it
        r = self.R
        starts = [(0.0, 0.5, 1.0, 0.0), (0.0, 0.5 + 2.0 * r, 1.0, 0.0)]
        tau, net, timed_out = self.planted([(0.5 * r, 0.5)], starts)
        assert not tau[0].any() and not net[0].any() and not timed_out[0]
        assert np.all(net[1] == 1.0)

    def test_disk_straddling_a_wall(self):
        # disks cut by each wall; injections aimed into them and past them
        r = self.R
        centers = [(-0.5 * r, 0.4), (1.0 + 0.5 * r, 0.6), (0.5 * r, 0.2)]
        starts = [(0.0, 0.4 + 1.2 * r, 0.8, -0.6),
                  (1.0, 0.6 - 1.5 * r, -0.6, 0.8),
                  (1.0, 0.6, -1.0, 0.0),
                  (0.0, 0.2 + 1.1 * r, 0.6, -0.8),
                  (1.0, 0.2, -1.0, 0.0)]
        _, net, timed_out = self.planted(centers, starts)
        assert_flux_constant(net, timed_out)
        assert net[4, 0] == 0.0  # bounced back out off the left disk

    def test_reflection_pushed_through_a_wall_leaves(self):
        # the entry point is 1e-13 inside the left wall, on a disk the wall
        # cuts; the reflected particle still heads out, and the push
        # carries it across the wall: it leaves there, not at t_max
        r = self.R
        y0 = 0.5 + math.sqrt(r * r - (0.5 * r + 1e-13) ** 2)
        tau, net, timed_out = self.planted([(-0.5 * r, 0.5)],
                                           [(1.0, y0, -1.0, 0.0)])
        assert not timed_out[0]
        assert np.all(net[0] == -1.0)
        assert tau[0] == pytest.approx(np.full(4, 0.25), rel=1e-9)

    def test_reflection_pushed_through_the_right_wall_leaves(self):
        # the mirror image at the right wall
        r = self.R
        y0 = 0.5 + math.sqrt(r * r - (0.5 * r + 1e-13) ** 2)
        tau, net, timed_out = self.planted([(1.0 + 0.5 * r, 0.5)],
                                           [(0.0, y0, 1.0, 0.0)])
        assert not timed_out[0]
        assert np.all(net[0] == 1.0)
        assert tau[0] == pytest.approx(np.full(4, 0.25), rel=1e-9)

    def test_tangential_graze(self):
        # a ray at exactly one radius from a center grazes it: a miss
        r = self.R
        starts = [(0.0, 0.5, 1.0, 0.0), (0.0, 0.5 + 0.5 * r, 1.0, 0.0)]
        tau, net, _ = self.planted([(0.5, 0.5 + r)], starts)
        assert np.all(net[0] == 1.0)
        assert tau[0] == pytest.approx(np.full(4, 0.25), rel=1e-12)
        assert np.all(net[1] == 0.0)  # a real hit sends it back

    def test_event_just_past_t_max_ends_the_walk(self):
        # the hit lies within the budget speed * t_max, but its time
        # s / speed rounds above t_max: the walk times out at the event,
        # as the oracle's does, and bins no flight of negative length
        t_max, center = 0.115625, (0.100625, 0.5)
        s_in, _ = _first_hit(PlantedField([center], self.R), 0.0, 0.5, 1.0,
                             0.0, self.R, 0.6 * t_max)
        assert s_in / 0.6 > t_max
        tau, _, timed_out = self.planted([center], [(0.0, 0.5, 0.6, 0.0)],
                                         t_max=t_max)
        assert timed_out[0] and tau[0].sum() > t_max

    def test_wall_disk_tie_goes_to_the_wall(self):
        # the disk's entry point is exactly the right wall point
        r = self.R
        starts = [(0.0, 0.5, 1.0, 0.0)]
        _, net, timed_out = self.planted([(1.0 + r, 0.5)], starts)
        assert np.all(net[0] == 1.0) and not timed_out[0]


class TestRefilledWalk:
    """The array-state walk keeps at most ``dynamics._LIVE_WALKS`` walks
    live and lets the next injections in as walks end; the worker folds
    each chunk's rows once all of them have ended."""

    # a short time guard in a dense, narrow-period strip: covered,
    # timed-out and wall-exit injections mixed, walks entering mid-run
    BLOCK = dict(epsilon=0.03, eta=2.0, L=1.0, y_period_cells=1, seed=7)

    def test_refill_equals_oracle(self, monkeypatch):
        monkeypatch.setattr(macroscale, "SLAB_CHUNK", 5)
        monkeypatch.setattr(dynamics, "_LIVE_WALKS", 5)
        slab, field, keys, fields, starts = poisson_block(**self.BLOCK, n=37)
        tau, _, timed_out = walk_equals_oracle(slab, field, keys, fields,
                                                   starts, 6, 5.0)
        covered = np.array([_find_containing_disk(f, x, y, slab.epsilon)
                            is not None for f, (x, y, _, _) in
                            zip(fields, starts)])
        assert covered.any() and timed_out.any()
        assert (~covered & ~timed_out).any()
        assert not tau[covered].any()

    def test_worker_fold_equals_oracle_fold(self, monkeypatch):
        # the run at any worker count equals the oracle's rows folded in
        # chunks of 5, in index order
        monkeypatch.setattr(macroscale, "SLAB_CHUNK", 5)
        n, seed, n_bins, t_max = 37, 7, 6, 5.0
        p = self.BLOCK
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            slab = SlabSpec(L=p["L"], rho1=2.0, rho2=1.0, eta=p["eta"],
                            epsilon=p["epsilon"])
        spec = slab_field_spec(slab, mix_key(seed, 0xF1E1D),
                               p["y_period_cells"])
        starts = _injection_starts(slab, seed, spec.y_period, 0, n)
        rows = [_run_injection(
            ScattererField(replace(spec, seed=mix_key(spec.seed, i))), slab,
            *starts[i], n_bins, t_max) for i in range(n)]
        want = []
        for i0 in range(0, n, 5):
            sums = np.zeros((2, 2, n_bins))
            sqs = np.zeros((2, 2, n_bins))
            cnt = np.zeros((2, 2), dtype=np.int64)
            nsum = np.zeros((2, n_bins - 1))
            nsq = np.zeros((2, n_bins - 1))
            timeouts = 0
            for i in range(i0, min(i0 + 5, n)):
                tau, net, late = rows[i]
                side, half = i % 2, int(i >= n // 2)
                sums[side, half] += tau
                sqs[side, half] += tau * tau
                cnt[side, half] += 1
                nsum[side] += net
                nsq[side] += net * net
                timeouts += int(late)
            want.append((sums, sqs, cnt, nsum, nsq, timeouts))

        def run(workers):
            return simulate_slab_stationary(slab, n, seed, n_bins=n_bins,
                                            t_max=t_max, workers=workers,
                                            y_period_cells=p["y_period_cells"])

        got = [run(w) for w in (1, 2, 3)]
        monkeypatch.setattr(macroscale, "queue_ensemble",
                            lambda *args: lambda: [want])
        ref = run(1)
        assert 0 < ref.n_timeouts < n
        for res in got:
            for name in ("rho_hat", "rho_se", "J_hat", "J_se", "rho_halves",
                         "rho_halves_se"):
                assert getattr(res, name).tobytes() == \
                    getattr(ref, name).tobytes(), name
            assert res.n_timeouts == ref.n_timeouts

    def test_stuck_walk_raises_where_the_oracle_does(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_EVENTS", 3)
        slab, field, keys, fields, starts = poisson_block(**self.BLOCK, n=24)
        stuck = []
        for fld, start in zip(fields, starts):
            try:
                _run_injection(fld, slab, *start, 6, 5.0)
            except dynamics.StuckParticleError as err:
                stuck.append(str(err))
            else:
                stuck.append(None)
        assert any(stuck) and not all(stuck)
        with pytest.raises(dynamics.StuckParticleError) as err:
            run_walk(slab, field, keys, starts, 6, 5.0)
        assert str(err.value) in stuck
        ok = [j for j, s in enumerate(stuck) if s is None]
        walk_equals_oracle(slab, field, keys[ok],
                               [fields[j] for j in ok],
                               [starts[j] for j in ok], 6, 5.0)

    def test_worker_memory_does_not_grow_with_its_range(self, monkeypatch):
        # the worker keeps the rows of its open chunks only, and a long
        # walk keeps few open under a short time guard: over 16 chunks its
        # peak stays near its peak over 2 (2.1 times it here, where one
        # that kept every row of its range reached 3.6 times)
        monkeypatch.setattr(macroscale, "SLAB_CHUNK", 64)
        monkeypatch.setattr(dynamics, "_LIVE_WALKS", 64)
        slab, _, _, _, _ = poisson_block(2.0**-5, 2.0, 1.0, 16, 3, 0)
        spec = slab_field_spec(slab, 3)

        def peak(n):
            payload = (slab, ScattererField(spec), mix_key(spec.seed), 3, 64,
                       5.0, n, spec.y_period, 0, n)
            tracemalloc.start()
            try:
                _slab_chunks(payload)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2 * 64)  # one-time allocations out of the way
        assert peak(16 * 64) < 2.5 * peak(2 * 64)


@st.composite
def segments(draw):
    """A segment in a slab of n_bins bins of width dxb: its end points
    anywhere in it, on bin edges, a hair outside a wall or equal."""
    n_bins = draw(st.integers(2, 64))
    L = draw(st.sampled_from([1.0, 0.3, 2.0**-3, 1.7]))
    dxb = L / n_bins
    point = st.one_of(
        st.floats(0.0, L),
        st.integers(0, n_bins).map(lambda k: k * dxb),
        st.sampled_from([-1e-12, -1e-13, L + 1e-13, L + 1e-12, 0.0, L]))
    segs = draw(st.lists(st.tuples(point, point, st.floats(0.0, 50.0),
                                   st.floats(0.0, 10.0), st.booleans()),
                         min_size=1, max_size=8))
    return L, n_bins, [(a, a if same else b, t0, t0 + dt)
                       for a, b, t0, dt, same in segs]


class TestBinSegments:
    @settings(max_examples=200)
    @given(case=segments(), prior=st.floats(0.0, 5.0))
    # every bin, both ways; a point; edge to edge; a hair outside a wall
    @example(case=(1.0, 4, [(0.0, 1.0, 0.0, 1.0), (1.0, 0.0, 2.0, 3.0),
                            (0.25, 0.25, 1.0, 2.0), (0.25, 0.75, 0.0, 0.5),
                            (-1e-13, 0.5, 0.0, 1.0),
                            (1.0 + 1e-13, 0.1, 0.0, 1.0),
                            (0.5, 0.5 + 1e-300, 0.0, 1.0)]), prior=0.5)
    def test_equals_scalar_binning(self, case, prior):
        # one segment per row, added to rows that already hold a value
        L, n_bins, segs = case
        dxb = L / n_bins
        tau = np.full((len(segs), n_bins), prior)
        net = np.full((len(segs), n_bins - 1), prior)
        want_tau, want_net = tau.copy(), net.copy()
        for j, (ax, bx, t0, t1) in enumerate(segs):
            _bin_segment(want_tau[j], want_net[j], dxb, t0, t1, ax, 0.0, bx,
                         0.0, 1.0, 0.0)
        ax, bx, t0, t1 = np.array(segs).T
        _bin_segments(tau, net, dxb, t0, t1, ax, bx)
        assert np.array_equal(tau, want_tau)
        assert np.array_equal(net, want_net)
