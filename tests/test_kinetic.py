"""Jump process, angular diffusion, coefficients, Green-Kubo routes."""

import math

import numpy as np
import pytest

from lorentzlab.config import build_config
from lorentzlab.experiments import run_experiment
from lorentzlab.kinetic import (
    JumpProcessParams,
    _landau_vacf_msd,
    green_kubo_D,
    landau_B_quadrature,
    sample_boltzmann_path,
    sample_landau_path,
    scattering_moment_integrals,
)
from lorentzlab.rng import rng_stream
from lorentzlab.scattering import BarrierParams, RegimeError, deflection_angle
from lorentzlab.stats import angle_histogram, chi_square_uniform

theta_of_rho = np.vectorize(deflection_angle)


class TestJumpProcessParams:
    def test_rate_from_barrier(self):
        p = BarrierParams(epsilon=2.0**-8, alpha=0.25, speed=1.0)
        jp = JumpProcessParams.from_barrier(p, mu=1.0)
        assert jp.rate == pytest.approx(2.0 * (2.0**-8) ** -0.5)
        assert 0.0 < jp.n_index < 1.0

    def test_hard_disk_mean_cos(self):
        jp = JumpProcessParams.hard_disk(rate=1.0)
        # E[cos(2 acos b)] = E[2b^2 - 1] = -1/3 over b ~ U[0,1]
        assert jp.mean_cos_jump() == pytest.approx(-1.0 / 3.0, abs=1e-10)
        assert jp.momentum_transfer_rate() == pytest.approx(4.0 / 3.0, abs=1e-9)

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

    @pytest.mark.parametrize("route", [{"B": 1.0}, {"mu": 1.0}, {"rate": 2.0}])
    @pytest.mark.parametrize("speed", [-1.0, 0.0])
    def test_speed_checked_on_every_route(self, route, speed):
        with pytest.raises(ValueError, match="speed must be positive"):
            green_kubo_D(speed=speed, **route)


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
