"""Jump process, angular diffusion, coefficients, Green-Kubo routes."""

import math
import tracemalloc

import numpy as np
import pytest

from lorentzlab.config import build_config
from lorentzlab.experiments import run_experiment
from lorentzlab import kinetic, scattering
from lorentzlab.kinetic import (
    LANDAU_CHUNK,
    JumpProcessParams,
    _fold_rows,
    _jump_batch,
    _jump_blocks,
    _jump_vacf_msd,
    _landau_chunk,
    _landau_vacf_msd,
    green_kubo_D,
    landau_B_quadrature,
    sample_boltzmann_path,
    sample_landau_path,
)
from lorentzlab.rng import _each, rng_stream
from lorentzlab.scattering import (BarrierParams, RegimeError, _gauss_kronrod,
                                   _kronrod15, deflection_angle,
                                   refractive_index,
                                   scattering_moment_integrals)
from lorentzlab.stats import angle_histogram, chi_square_uniform

theta_of_rho = np.vectorize(deflection_angle)


class TestJumpProcessParams:
    def test_rate_from_barrier(self):
        p = BarrierParams(epsilon=2.0**-8, alpha=0.25, speed=1.0)
        jp = JumpProcessParams.from_barrier(p, mu=1.0)
        assert jp.rate == pytest.approx(2.0 * (2.0**-8) ** -0.5)
        assert 0.0 < jp.n_index < 1.0

    def test_hard_disk_mean_cos(self):
        from scipy.integrate import quad

        jp = JumpProcessParams.hard_disk(rate=1.0)
        # E[cos(2 acos b)] = E[2b^2 - 1] = -1/3 over b ~ U[0,1], exactly
        # the double that quadrature of the deflection law gives
        assert jp.mean_cos_jump() == -1.0 / 3.0
        val, _ = quad(lambda r: math.cos(deflection_angle(r, 0.0)), 0.0, 1.0,
                      epsabs=0, epsrel=1e-12)
        assert val == -1.0 / 3.0
        assert jp.momentum_transfer_rate() == pytest.approx(4.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("rate,n_index,message", [
        (0.0, 0.5, "rate must be positive"),
        (-1.0, 0.5, "rate must be positive"),
        (1.0, -0.1, r"n_index must be in \[0, 1\)"),
        (1.0, 1.0, r"n_index must be in \[0, 1\)"),
    ])
    def test_bad_parameters_rejected(self, rate, n_index, message):
        with pytest.raises(ValueError, match=message):
            JumpProcessParams(rate, n_index)

    def test_angle_law_symmetric(self):
        p = BarrierParams(epsilon=0.01, alpha=0.25, speed=1.0)
        jp = JumpProcessParams.from_barrier(p, 1.0)
        rho = rng_stream(1, 0).uniform(-1.0, 1.0, 20_001)
        ang = theta_of_rho(rho, jp.n_index)
        assert np.array_equal(theta_of_rho(-rho, jp.n_index), -ang)
        assert abs(ang.mean()) < 4.0 * ang.std() / math.sqrt(ang.size)


class TestBoltzmannPath:
    def test_tiny_rate_free_flight(self):
        jp = JumpProcessParams.hard_disk(rate=1e-12)
        path = sample_boltzmann_path((1.0, 2.0), (0.6, 0.8), 3.0, jp,
                                     rng_stream(0, 0))
        assert path.n_jumps == 0
        assert np.allclose(path.final_position, [1.0 + 1.8, 2.0 + 2.4])

    def test_jump_count_poisson_mean(self):
        jp = JumpProcessParams.hard_disk(rate=3.0)
        t = 2.0
        counts = np.array([
            sample_boltzmann_path((0, 0), (1, 0), t, jp, rng_stream(5, i)).n_jumps
            for i in range(4000)
        ])
        target = jp.rate * t
        assert abs(counts.mean() - target) <= 3.0 * counts.std() / math.sqrt(counts.size)

    def test_jump_sizes_match_angle_law_ks(self):
        # two-sample KS at the 1% level against a dense deterministic
        # pushforward of Uniform[-1,1] under the deflection law
        from scipy.stats import ks_2samp

        p = BarrierParams(epsilon=0.01, alpha=0.25, speed=1.0)
        jp = JumpProcessParams.from_barrier(p, 1.0)
        jumps = []
        i = 0
        while len(jumps) < 8000:
            path = sample_boltzmann_path((0, 0), (1, 0), 10.0 / jp.rate, jp,
                                         rng_stream(6, i))
            jumps.extend(np.diff(path.angles))
            i += 1
        rho_grid = np.linspace(-1.0, 1.0, 200_001)[1:-1]
        reference = theta_of_rho(rho_grid, jp.n_index)
        _, p_value = ks_2samp(np.asarray(jumps), reference)
        assert p_value > 0.01

    def test_positions_integrate_velocity(self):
        jp = JumpProcessParams.hard_disk(rate=2.0)
        path = sample_boltzmann_path((0, 0), (1.5, 0), 4.0, jp, rng_stream(7, 0))
        seg = np.diff(path.node_times)
        lengths = np.linalg.norm(np.diff(path.positions, axis=0), axis=1)
        assert np.allclose(lengths, 1.5 * seg, atol=1e-12)

    def test_duration_validation(self):
        jp = JumpProcessParams.hard_disk(rate=1.0)
        with pytest.raises(ValueError):
            sample_boltzmann_path((0, 0), (1, 0), -1.0, jp, rng_stream(0, 0))

    def test_zero_velocity_rejected(self):
        jp = JumpProcessParams.hard_disk(rate=1.0)
        with pytest.raises(ValueError, match="velocity must be nonzero"):
            sample_boltzmann_path((0, 0), (0, 0), 1.0, jp, rng_stream(0, 0))


def _path_loop_vacf_msd(rate, speed, n_paths, dt, t_max, seed):
    """_jump_vacf_msd as a loop over sample_boltzmann_path, one path at a
    time (the reference the batched route must equal bit for bit)."""
    n_steps = int(round(t_max / dt))
    grid = np.arange(n_steps + 1) * dt
    jp = JumpProcessParams.hard_disk(rate)
    sum_cos = np.zeros(n_steps + 1)
    sum_msd = np.zeros(n_steps + 1)
    for i in range(n_paths):
        path = sample_boltzmann_path((0.0, 0.0), (speed, 0.0), t_max, jp,
                                     rng_stream(seed, i))
        k = np.searchsorted(path.node_times, grid, side="right") - 1
        k = np.clip(k, 0, len(path.angles) - 1)
        ang = path.angles[k]
        sum_cos += np.cos(ang - path.angles[0])
        base = path.positions[k]
        tt = grid - path.node_times[k]
        px = base[:, 0] + tt * speed * np.cos(ang)
        py = base[:, 1] + tt * speed * np.sin(ang)
        sum_msd += px**2 + py**2
    return grid, speed**2 * sum_cos / n_paths, sum_msd / n_paths


# what a Monte Carlo route can ask of an ensemble
_NEEDS = [("vacf",), ("msd",), ("vacf", "msd")]


def assert_needed_equal(got, want, need):
    """Of the (VACF, MSD) pair ``got``, each sum ``need`` names equals
    want's bit for bit, and each other is None."""
    for name, g, w in zip(("vacf", "msd"), got, want):
        if name in need:
            assert np.array_equal(g, w)
        else:
            assert g is None


_REFRACTING = JumpProcessParams.from_barrier(
    BarrierParams(epsilon=2.0**-6, alpha=0.25, speed=1.0), 1.0)


class TestJumpBatch:
    """The batched jump sampler gives every path exactly what
    ``sample_boltzmann_path`` gives it on the same stream."""

    @staticmethod
    def assert_rows_are_paths(batch, seed, index, t, speed, jp):
        nodes, phi, x, y, m = batch
        for r, i in enumerate(index):
            path = sample_boltzmann_path((0.0, 0.0), (speed, 0.0), t, jp,
                                         rng_stream(seed, i))
            n = path.n_jumps
            assert m[r] == n
            assert np.array_equal(nodes[r, :n + 2], path.node_times)
            assert np.array_equal(phi[r, :n + 1], path.angles)
            assert np.array_equal(x[r, :n + 2], path.positions[:, 0])
            assert np.array_equal(y[r, :n + 2], path.positions[:, 1])
            # the padding repeats the path's end
            assert np.all(nodes[r, n + 2:] == t)
            assert np.all(phi[r, n + 1:] == path.angles[-1])
            assert np.all(x[r, n + 2:] == path.positions[-1, 0])
        return m

    @pytest.mark.parametrize("jp", [JumpProcessParams.hard_disk(3.0),
                                    _REFRACTING,
                                    JumpProcessParams.hard_disk(1e-12)],
                             ids=["hard", "refracting", "rate1e-12"])
    @pytest.mark.parametrize("t", [0.0, 0.7, 2.0])
    def test_rows_equal_sample_boltzmann_path(self, jp, t):
        (batch,) = _jump_blocks(17, 40, 100, t, 1.3, jp)
        m = self.assert_rows_are_paths(batch, 17, range(40, 100), t, 1.3, jp)
        if t == 0.0 or jp.rate < 1.0:
            assert not m.any()

    @pytest.mark.parametrize("jp", [JumpProcessParams.hard_disk(3.0),
                                    _REFRACTING], ids=["hard", "refracting"])
    def test_rows_that_outrun_a_tiny_draw_block(self, jp):
        # two draws cover no jump, so every row that jumps continues
        # from its counter offset, some of them several times
        batch = _jump_batch(5, np.arange(30), 1.0, 1.0, jp, 2)
        m = self.assert_rows_are_paths(batch, 5, range(30), 1.0, 1.0, jp)
        assert (m >= 1).sum() > 20 and m.max() >= 4

    def test_blocks_cover_the_range_in_order(self, monkeypatch):
        monkeypatch.setattr(kinetic, "_JUMP_ENTRIES", 64)
        jp = JumpProcessParams.hard_disk(3.0)
        blocks = list(_jump_blocks(9, 10, 47, 1.0, 1.0, jp))
        assert len(blocks) > 1
        m = np.concatenate([b[4] for b in blocks])
        want = [sample_boltzmann_path((0, 0), (1, 0), 1.0, jp,
                                      rng_stream(9, i)).n_jumps
                for i in range(10, 47)]
        assert m.tolist() == want

    def test_waits_are_math_log1p(self):
        # a first uniform whose log1p numpy rounds differently from math:
        # the first jump time follows math, as sample_boltzmann_path does
        for i in range(500):
            u = rng_stream(1, i).random()
            if np.log1p(-u) != math.log1p(-u):
                break
        assert np.log1p(-u) != math.log1p(-u)
        assert _each(math.log1p, -np.array([[u]])).tolist() == [
            [math.log1p(-u)]]
        jp = JumpProcessParams.hard_disk(1.0)
        nodes, _, _, _, m = _jump_batch(1, np.array([i]), 1e3, 1.0, jp, 8)
        assert m[0] >= 1
        assert nodes[0, 1] == -math.log1p(-u)
        assert nodes[0, 1] != -np.log1p(-u)

    @pytest.mark.parametrize("rate,speed,seed", [(2.0, 1.0, 20240901),
                                                 (0.7, 1.0, 3),
                                                 (5.0, 1.3, 11)])
    def test_vacf_msd_equals_path_loop(self, rate, speed, seed, monkeypatch):
        # a small draw budget splits the 200 paths into blocks of 32 rows
        # (the last of 8), and a small grid budget splits each block into
        # sub-blocks of 5 rows, the last partial: the rows must still be
        # added in path order
        monkeypatch.setattr(kinetic, "_JUMP_ENTRIES", 1 << 14)
        monkeypatch.setattr(kinetic, "_GRID_ENTRIES", 5 * 501)
        nu = JumpProcessParams.hard_disk(rate).momentum_transfer_rate()
        args = (rate, speed, 200, 0.02 / nu, 10.0 / nu, seed)
        grid, *want = _path_loop_vacf_msd(*args)
        assert grid.size == 501
        for need in _NEEDS:
            got_grid, *got = _jump_vacf_msd(*args, need=need)
            assert np.array_equal(got_grid, grid)
            assert_needed_equal(got, want, need)

    @pytest.mark.parametrize("method", ["monte_carlo", "msd"])
    def test_grid_pass_memory_is_bounded_by_the_sub_blocks(self, method):
        # the benchmark's call: a grid pass over whole draw blocks of 523
        # paths by 501 grid times peaks at about 14.7 MiB (msd) and
        # 4.7 MiB (monte_carlo); sub-blocks of 32 paths, under 1.7 MiB
        tracemalloc.start()
        try:
            green_kubo_D(mu=1.0, method=method, n_paths=6000,
                         seed=20240901)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestLandauPath:
    def test_zero_B_straight_line(self):
        path = sample_landau_path((0, 0), (1, 0), 2.0, 0.0, 0.01,
                                  rng_stream(9, 0))
        assert np.allclose(path.final_position, [2.0, 0.0], atol=1e-12)

    def test_speed_preserved_exactly(self):
        path = sample_landau_path((0, 0), (0.6, 0.8), 1.0, 2.0, 0.001,
                                  rng_stream(9, 1))
        seg = np.linalg.norm(np.diff(path.positions, axis=0), axis=1)
        dt = np.diff(path.times)
        # angle representation: every step has length exactly speed*dt
        assert np.allclose(seg, 1.0 * dt, rtol=1e-12, atol=0.0)

    def test_angular_correlation_decay(self):
        # E[cos(phi_t - phi_0)] = exp(-c t), c = B / speed^2
        B, t, n = 1.3, 1.0, 20_000
        vals = np.empty(n)
        for i in range(n):
            path = sample_landau_path((0, 0), (1, 0), t, B, 0.01,
                                      rng_stream(10, i))
            vals[i] = math.cos(path.final_angle - path.angles[0])
        target = math.exp(-B * t)
        assert abs(vals.mean() - target) <= 3.0 * vals.std() / math.sqrt(n)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            sample_landau_path((0, 0), (1, 0), 1.0, 1.0, 0.0, rng_stream(0, 0))

    @pytest.mark.parametrize("t,B,message", [
        (-1.0, 1.0, "duration must be nonnegative"),
        (1.0, -1.0, "B must be nonnegative"),
    ])
    def test_negative_duration_or_B_rejected(self, t, B, message):
        with pytest.raises(ValueError, match=message):
            sample_landau_path((0, 0), (1, 0), t, B, 0.01, rng_stream(0, 0))

    def test_zero_velocity_rejected(self):
        with pytest.raises(ValueError, match="velocity must be nonzero"):
            sample_landau_path((0, 0), (0, 0), 1.0, 1.0, 0.01,
                               rng_stream(0, 0))

    def test_one_path_ensemble_is_the_path(self):
        # the ensemble's first chunk draws from rng_stream(seed, 0), so a
        # one-path ensemble is sample_landau_path's path, bit for bit
        B, speed, seed = 1.3, 1.5, 17
        grid, vacf, msd = _landau_vacf_msd(B / speed**2, speed, 1, 0.25, 4.0,
                                           seed)
        path = sample_landau_path((0, 0), (speed, 0), 4.0, B, 0.25,
                                  rng_stream(seed, 0))
        assert np.array_equal(grid, path.times)
        assert np.array_equal(vacf, speed**2 * np.cos(path.angles) / 1)
        px, py = path.positions.T
        assert np.array_equal(msd, (px**2 + py**2) / 1)


def _one_shot_landau_sums(c, speed, dt, n_steps, seed, i0, i1):
    """Per-step sums of cos(phi) and |X|^2 over paths i0..i1-1 of one
    chunk, all drawn and summed in one numpy pass with fresh arrays: the
    oracle of the blocked ``_landau_chunk``."""
    steps = np.full(n_steps, dt)
    rng = rng_stream(seed, i0 // LANDAU_CHUNK)
    incr = rng.standard_normal((i1 - i0, n_steps)) * np.sqrt(2.0 * c * steps)
    phi = np.zeros((i1 - i0, n_steps + 1))
    phi[:, 1:] = 0.0 + np.cumsum(incr, axis=1)
    mid = 0.5 * (phi[:, :-1] + phi[:, 1:])
    x = np.zeros_like(phi)
    y = np.zeros_like(phi)
    np.cumsum(np.cos(mid) * (speed * steps), axis=1, out=x[:, 1:])
    np.cumsum(np.sin(mid) * (speed * steps), axis=1, out=y[:, 1:])
    return np.cos(phi).sum(axis=0), (x**2 + y**2).sum(axis=0)


class TestFoldRows:
    @pytest.mark.parametrize("columns", [2, 3, 1001])
    def test_adds_row_by_row(self, columns):
        # the chunk sums keep their bits at any block size only because
        # numpy's sum over axis 0 adds the rows in order; it does so from
        # 2 columns up, and a numpy that reduces otherwise fails here
        rng = rng_stream(3, 0)
        acc = rng.standard_normal(columns)
        rows = (rng.standard_normal((1000, columns))
                * 10.0 ** rng.uniform(-6.0, 6.0, (1000, 1)))
        want = acc
        for row in rows:
            want = want + row
        assert _fold_rows(acc, rows).tobytes() == want.tobytes()


class TestLandauBlocks:
    """The chunk's row blocks on one workspace give the sums of one pass
    over the whole chunk, bit for bit, at any block size."""

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_chunk_equals_one_pass(self, rows, monkeypatch):
        n_steps = 1000
        if rows is not None:
            # the five workspace arrays share the budget
            monkeypatch.setattr(kinetic, "_JUMP_ENTRIES",
                                5 * rows * (n_steps + 1))
        # 300 paths of the second chunk: neither 7 nor 52 divides 300
        head = (1.3, 1.5, 0.01, n_steps, 11)
        span = (LANDAU_CHUNK, LANDAU_CHUNK + 300)
        want = _one_shot_landau_sums(*head, *span)
        for need in _NEEDS:
            assert_needed_equal(_landau_chunk(head + (need,) + span), want,
                                need)

    def test_two_chunk_ensemble(self):
        c, speed, dt, t_max, seed = 1.3, 1.5, 0.25, 4.0, 5
        n_paths = LANDAU_CHUNK + 37
        n_steps = int(round(t_max / dt))
        sum_cos, sum_msd = map(sum, zip(*(
            _one_shot_landau_sums(c, speed, dt, n_steps, seed, i0,
                                  min(i0 + LANDAU_CHUNK, n_paths))
            for i0 in (0, LANDAU_CHUNK))))
        grid, vacf, msd = _landau_vacf_msd(c, speed, n_paths, dt, t_max, seed)
        assert np.array_equal(grid, np.arange(n_steps + 1) * dt)
        assert np.array_equal(vacf, speed**2 * sum_cos / n_paths)
        assert np.array_equal(msd, sum_msd / n_paths)

    def test_chunk_memory_is_bounded_by_the_workspace(self):
        # one numpy pass over the whole chunk peaks at about 220 MB; the
        # five workspace arrays of 52 rows by 1,001 columns take 2 MB
        tracemalloc.start()
        try:
            _landau_chunk((1.0, 1.0, 0.01, 1000, 20240901, ("vacf", "msd"),
                           0, LANDAU_CHUNK))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestBQuadrature:
    def test_constant_theta_hook(self):
        # B = (mu eps^(-2a) / 2) |v| * integral of theta^2 over [-1, 1]:
        # linear in mu, and the integrand is the deflection law itself
        from scipy.integrate import quad

        eps, alpha, mu, speed = 1e-3, 0.25, 1.3, 1.0
        got = landau_B_quadrature(eps, alpha, mu, speed)
        assert got == pytest.approx(mu * landau_B_quadrature(eps, alpha, 1.0, speed),
                                    rel=1e-12)
        n = math.sqrt(1.0 - 2.0 * eps**alpha / speed**2)
        half, _ = quad(lambda r: deflection_angle(r, n) ** 2, 0.0, 1.0,
                       epsabs=0.0, epsrel=1e-10, limit=500, points=[n])
        assert got == pytest.approx(mu * eps ** (-2 * alpha) * speed * half,
                                    rel=1e-12)

    def test_monte_carlo_oracle(self):
        eps, alpha = 1e-6, 0.25
        b = landau_B_quadrature(eps, alpha, 1.0, 1.0)
        rng = rng_stream(11, 0)
        p = BarrierParams(epsilon=eps, alpha=alpha, speed=1.0)
        from lorentzlab.scattering import refractive_index
        n = refractive_index(p)
        rho = rng.uniform(-1.0, 1.0, 4_000_000)
        th2 = theta_of_rho(rho, n) ** 2
        mc = 0.5 * eps ** (-2 * alpha) * 2.0 * th2.mean()
        se = 0.5 * eps ** (-2 * alpha) * 2.0 * th2.std() / math.sqrt(th2.size)
        assert abs(b - mc) <= 4.0 * se

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            landau_B_quadrature(0.25, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_nonpositive_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must be positive"):
            landau_B_quadrature(1e-3, 0.25, mu)

    def test_divergence_slope_law(self):
        # B grows like 2 alpha mu |log eps| / speed^3: the increment per
        # unit |log eps| pins the coefficient sharply once the ladder
        # sits deep enough in the grazing regime for the given alpha
        for alpha, k0, k1, tol in ((0.25, 10, 14, 0.02), (0.4, 10, 14, 0.02),
                                   (0.1, 40, 60, 0.02)):
            b0 = landau_B_quadrature(10.0**-k0, alpha)
            b1 = landau_B_quadrature(10.0**-k1, alpha)
            slope = (b1 - b0) / ((k1 - k0) * math.log(10.0))
            assert slope == pytest.approx(2.0 * alpha, rel=tol)

    def test_coefficients_container(self):
        # the runners' B_tilde = 2 alpha mu / speed^3 and D = speed^4 / (2 B)
        rep = run_experiment(build_config(
            "b-divergence", "alpha = 0.25\neps_ladder = 1e-4..1e-8\n"))
        assert [row[3] for row in rep.rows] == [0.5] * 5
        rep = run_experiment(build_config(
            "diffusive-scale", "k = 6\ntime = 0.03125\ntrajectories = 16\n"
                               "checkpoints = 4\n"))
        b = rep.summary["B_eps"]
        assert b == landau_B_quadrature(2.0**-6, 0.25)
        assert rep.summary["D_kinetic"] == 1.0 / (2.0 * b)


def _law_integral_40_digits(g, n):
    """40-digit integral over rho in [0, 1] of g(theta(rho)), theta the
    deflection law at index n (the float taken exactly); g takes and
    returns mpmath numbers."""
    import mpmath

    with mpmath.workdps(40):
        n = mpmath.mpf(n)
        inner = mpmath.quad(
            lambda r: g(2 * (mpmath.asin(r / n) - mpmath.asin(r))), [0, n])
        outer = mpmath.quad(lambda r: g(2 * mpmath.acos(r)), [n, 1])
        return float(inner + outer)


# the pilot grid of docs/pilot_calibration.md, criterion 1
_PILOT = [(eps, alpha) for eps in (1e-4, 1e-8, 1e-12)
          for alpha in (0.1, 0.25, 0.4)]


class TestGaussKronrod:
    def test_panel_exact_to_degree_22(self):
        for d in range(23):
            val, _ = _kronrod15(lambda r: r**d, 0.0, 1.0)
            assert val == pytest.approx(1.0 / (d + 1), rel=1.5e-15)
        val, _ = _kronrod15(lambda r: r**25, 0.0, 1.0)
        assert abs(26.0 * val - 1.0) > 1e-14  # past its degree

    @pytest.mark.parametrize("eps,alpha", _PILOT)
    def test_B_within_2e_12_of_40_digits(self, eps, alpha):
        n = refractive_index(BarrierParams(eps, alpha))
        half = _law_integral_40_digits(lambda t: t**2, n)
        assert landau_B_quadrature(eps, alpha) == pytest.approx(
            eps ** (-2.0 * alpha) * half, rel=2e-12)

    @pytest.mark.parametrize("eps,alpha", _PILOT)
    def test_moments_and_mean_cos_within_their_tolerances(self, eps, alpha):
        import mpmath

        n = refractive_index(BarrierParams(eps, alpha))
        m2 = _law_integral_40_digits(lambda t: 4 * mpmath.sin(t / 2) ** 2, n)
        m4 = _law_integral_40_digits(lambda t: 16 * mpmath.sin(t / 2) ** 4,
                                     n)
        scale = 2.0 * eps ** (-2.0 * alpha) / abs(math.log(eps))
        got2, got4 = scattering_moment_integrals(eps, alpha)
        assert got2 == pytest.approx(scale * m2, rel=1e-10)
        assert got4 == pytest.approx(scale * m4, rel=1e-8)
        assert JumpProcessParams(1.0, n).mean_cos_jump() == pytest.approx(
            _law_integral_40_digits(mpmath.cos, n), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.4])
    def test_stops_at_the_subdivision_limit(self, alpha):
        # at eps = 1e-30 the integrand's roundoff keeps the estimate above
        # 1e-12 (quad warns there): the rule stops at its interval limit,
        # the 2 it starts with and the bisections, 15 evaluations each
        n = refractive_index(BarrierParams(1e-30, alpha))
        calls = []

        def theta2(r):
            calls.append(r)
            return deflection_angle(r, n) ** 2

        half, err = _gauss_kronrod(theta2, (0.0, n, 1.0), 0.0, 1e-12)
        assert len(calls) == 15 * (2 + 2 * (scattering._QUAD_LIMIT - 2))
        assert err > 1e-12 * half
        exact = _law_integral_40_digits(lambda t: t**2, n)
        assert half == pytest.approx(exact, rel=1e-4)


    def test_stops_when_the_interval_has_no_midpoint(self):
        # an interval one ulp wide has no float strictly inside it: the
        # rule stops after its one panel, its error above the tolerance
        calls = []

        def f(r):
            calls.append(r)
            return r

        b = math.nextafter(1.0, 2.0)
        val, err = _gauss_kronrod(f, (1.0, b), 0.0, 0.0)
        assert len(calls) == 15
        assert val == pytest.approx(b - 1.0, rel=1e-12)
        assert err > 0.0


class TestMomentIntegrals:
    def test_second_moment_tends_to_constant_fourth_vanishes(self):
        vals2, vals4 = [], []
        for k in (8, 12, 16):
            m2, m4 = scattering_moment_integrals(10.0**-k, 0.25)
            vals2.append(m2)
            vals4.append(m4)
        # second moment settles toward a finite positive constant
        assert vals2[0] > vals2[1] > vals2[2] > 0.5
        assert (vals2[1] - vals2[2]) < (vals2[0] - vals2[1])
        # fourth moment vanishes under the same scaling
        assert vals4[0] > vals4[1] > vals4[2]
        assert vals4[2] < 1e-3


class TestGreenKubo:
    def test_analytic_reference(self):
        # c = 1 at unit speed: D = 1/2
        assert green_kubo_D(B=1.0, speed=1.0) == pytest.approx(0.5)

    def test_routes_agree(self):
        d0 = green_kubo_D(B=1.0, speed=1.0, method="analytic_vacf")
        dm = green_kubo_D(B=1.0, speed=1.0, method="monte_carlo",
                          n_paths=20_000, seed=3)
        dd = green_kubo_D(B=1.0, speed=1.0, method="msd",
                          n_paths=20_000, seed=3)
        assert abs(dm / d0 - 1.0) < 0.05
        assert abs(dd / d0 - 1.0) < 0.05

    def test_boltzmann_route(self):
        # hard-disk jump process at rate 2 mu speed: nu = (4/3) rate
        d = green_kubo_D(mu=1.0, speed=1.0)
        assert d == pytest.approx(3.0 / 16.0, abs=1e-9)
        # late-time VACF noise is strongly correlated across the grid,
        # so the integral needs a decent ensemble to settle
        dmc = green_kubo_D(rate=2.0, speed=1.0, method="monte_carlo",
                           n_paths=20_000, seed=4)
        assert abs(dmc / d - 1.0) < 0.05

    def test_input_validation(self):
        with pytest.raises(ValueError):
            green_kubo_D()
        with pytest.raises(ValueError):
            green_kubo_D(B=-1.0)
        with pytest.raises(ValueError):
            green_kubo_D(B=1.0, method="nope")
        with pytest.raises(ValueError):
            green_kubo_D(mu=1.0, method="msd", n_paths=0)
        # non-finite inputs, on the closed form and a Monte Carlo route
        for name in ("B", "mu", "rate"):
            for value in (math.nan, math.inf):
                for method in ("analytic_vacf", "monte_carlo"):
                    with pytest.raises(ValueError,
                                       match=f"{name} must be positive"):
                        green_kubo_D(method=method, n_paths=10,
                                     **{name: value})
        # finite inputs whose speed^2, rate, nu, D or t_max overflows or
        # underflows: once 0.0, inf, ZeroDivisionError, OverflowError, or
        # a NaN step count
        for kwargs in ({"mu": 1e308}, {"B": 1e-320}, {"rate": 1e-320},
                       {"B": 1e308, "speed": 1e-200},
                       {"B": 1.0, "speed": 1e200}):
            for method in ("analytic_vacf", "monte_carlo", "msd"):
                with pytest.raises(ValueError,
                                   match="must be positive and finite"):
                    green_kubo_D(method=method, n_paths=10, **kwargs)

    @pytest.mark.parametrize("route", [{"B": 1.0}, {"mu": 1.0}, {"rate": 2.0}])
    @pytest.mark.parametrize("speed", [-1.0, 0.0, math.nan, math.inf])
    def test_speed_checked_on_every_route(self, route, speed):
        with pytest.raises(ValueError, match="speed must be positive"):
            green_kubo_D(speed=speed, **route)

    @pytest.mark.parametrize("method", ["monte_carlo", "msd"])
    @pytest.mark.parametrize("route", ["landau", "jump"])
    def test_monte_carlo_equals_its_oracle(self, route, method):
        # each route samples only the sum it integrates; the value is the
        # one integrated from the oracle's sums, bit for bit
        speed, n_paths, seed = 1.2, 40, 9
        if route == "landau":
            B = 1.3
            c = B / speed**2
            got = green_kubo_D(B=B, speed=speed, method=method,
                               n_paths=n_paths, seed=seed)
            grid = np.arange(1001) * (0.01 / c)
            sum_cos, sum_msd = _one_shot_landau_sums(c, speed, 0.01 / c, 1000,
                                                     seed, 0, n_paths)
            vacf = speed**2 * sum_cos / n_paths
            msd = sum_msd / n_paths
        else:
            mu = 0.8
            nu = JumpProcessParams.hard_disk(
                2.0 * mu * speed).momentum_transfer_rate()
            got = green_kubo_D(mu=mu, speed=speed, method=method,
                               n_paths=n_paths, seed=seed)
            grid, vacf, msd = _path_loop_vacf_msd(2.0 * mu * speed, speed,
                                                  n_paths, 0.02 / nu,
                                                  10.0 / nu, seed)
        if method == "monte_carlo":
            want = 0.5 * float(np.trapezoid(vacf, grid))
        else:
            half = grid >= 0.5 * grid[-1]
            want = float(np.polyfit(grid[half], msd[half], 1)[0]) / 4.0
        assert got == want


class TestEvolveDensity:
    """Final-time clouds of the jump process started at the origin."""

    @staticmethod
    def cloud(t, jp, n_paths, seed):
        paths = [sample_boltzmann_path((0, 0), (1, 0), t, jp, rng_stream(seed, i))
                 for i in range(n_paths)]
        return (np.array([p.final_position for p in paths]),
                np.array([p.final_angle for p in paths]))

    def test_t_zero_reproduces_initial(self):
        jp = JumpProcessParams.hard_disk(rate=1.0)
        pos, ang = self.cloud(0.0, jp, 500, seed=1)
        assert np.allclose(pos, 0.0)
        assert np.allclose(np.mod(ang, 2 * math.pi), 0.0)

    def test_late_time_angular_uniformity(self):
        jp = JumpProcessParams.hard_disk(rate=4.0)
        _, ang = self.cloud(5.0, jp, 8000, seed=2)
        _, p = chi_square_uniform(angle_histogram(ang, 16))
        assert p > 0.01

    def test_spatial_spread_matches_green_kubo(self):
        jp = JumpProcessParams.hard_disk(rate=4.0)
        d = green_kubo_D(rate=4.0, speed=1.0)
        t = 12.0 / jp.momentum_transfer_rate() * 4
        pos, _ = self.cloud(t, jp, 6000, seed=3)
        msd = float(np.mean(np.einsum("ij,ij->i", pos, pos)))
        assert msd == pytest.approx(4.0 * d * t, rel=0.1)
