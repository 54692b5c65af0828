"""Single-scatterer solvers against the geometric ray-trace oracle."""

import math

import numpy as np
import pytest

from lorentzlab.dynamics import ParticleState, advance
from lorentzlab.medium import PlantedField
from lorentzlab.scattering import (
    BarrierParams,
    RegimeError,
    ScatterOutcome,
    ray_trace_oracle,
    refractive_index,
    scattering_angle,
)


def params_for_index(n: float, speed: float = 1.0) -> BarrierParams:
    """Barrier with refractive index exactly n (alpha = 1/2)."""
    eps = ((1.0 - n * n) * speed**2 / 2.0) ** 2
    return BarrierParams(epsilon=eps, alpha=0.5, speed=speed)


def one_disk_pass(v, rho, params=None, radius=None):
    """Flow velocity v past a lone disk at the origin, aimed at signed
    impact parameter rho; returns the final velocity and the log.
    ``params=None`` is a hard disk of the given radius."""
    r = params.epsilon if radius is None else radius
    speed = math.hypot(v[0], v[1])
    ux, uy = v[0] / speed, v[1] / speed
    # the disk center lies at signed distance rho * r to the right of the ray
    x0 = (-ux + rho * r * uy, -uy - rho * r * ux)
    out, log = advance(ParticleState(x0, v), PlantedField([(0.0, 0.0)], r),
                       params, 2.0 / speed)
    return out.v, log


class TestRefractiveIndex:
    def test_vanishing_barrier_limit(self):
        # eps -> 0 at fixed alpha: n -> 1 (n = sqrt(1 - 2 eps^alpha))
        last = 0.0
        for eps in (1e-4, 1e-8, 1e-12, 1e-16):
            n = refractive_index(BarrierParams(eps, 0.25))
            assert n > last
            last = n
        assert last > 1.0 - 2e-4

    def test_frozen_value(self):
        # eps^alpha = 0.18 at unit speed: n = sqrt(1 - 0.36) = 0.8
        p = BarrierParams(epsilon=0.18**2, alpha=0.5, speed=1.0)
        assert refractive_index(p) == pytest.approx(0.8, abs=1e-15)

    def test_sine_ratio_matches_oracle_geometry(self):
        # n is the ratio sin(incidence)/sin(refraction) realized by the
        # traced interior direction
        p = params_for_index(0.8)
        rho = 0.44
        angle_in = math.asin(rho)
        # interior bend angle from the traced deflection: half at entry
        half = ray_trace_oracle(rho, p) / 2.0
        angle_inside = angle_in + half
        assert math.sin(angle_in) / math.sin(angle_inside) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_regime_error_at_boundary(self):
        # 2 eps^alpha == speed^2 is already invalid
        p = BarrierParams(epsilon=0.25, alpha=0.5, speed=1.0)
        assert p.energy_ratio == pytest.approx(1.0)
        with pytest.raises(RegimeError):
            refractive_index(p)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BarrierParams(epsilon=0.0, alpha=0.25)
        with pytest.raises(ValueError):
            BarrierParams(epsilon=1.5, alpha=0.25)
        with pytest.raises(ValueError):
            BarrierParams(epsilon=0.1, alpha=0.6)
        with pytest.raises(ValueError):
            BarrierParams(epsilon=0.1, alpha=0.25, speed=0.0)


class TestScatteringAngle:
    def test_head_on(self):
        out = scattering_angle(0.0, params_for_index(0.7))
        assert out.angle == 0.0
        assert out.branch == ScatterOutcome.REFRACTED

    def test_refracted_value_against_oracle(self):
        # n = 0.8, rho = 0.5: |angle| = 2 (asin(0.625) - asin(0.5))
        p = params_for_index(0.8)
        out = scattering_angle(0.5, p)
        expected = 2.0 * (math.asin(0.625) - math.asin(0.5))
        assert out.branch == ScatterOutcome.REFRACTED
        assert out.angle == pytest.approx(expected, abs=1e-14)
        assert out.angle == pytest.approx(ray_trace_oracle(0.5, p), abs=1e-10)

    def test_reflected_value_against_chord_construction(self):
        # n = 0.6, rho = 0.8: |angle| = 2 arccos(0.8), totally reflected
        p = params_for_index(0.6)
        out = scattering_angle(0.8, p)
        assert out.branch == ScatterOutcome.TOTALLY_REFLECTED
        assert out.angle == pytest.approx(2.0 * math.acos(0.8), abs=1e-14)
        assert out.angle == pytest.approx(ray_trace_oracle(0.8, p), abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            scattering_angle(1.0000001, params_for_index(0.8))
        for rho in (1.0000001, -1.5):
            with pytest.raises(ValueError, match="must be <= 1, got"):
                ray_trace_oracle(rho, params_for_index(0.8))

    def test_odd_symmetry(self):
        p = params_for_index(0.73)
        for rho in np.linspace(0.0, 1.0, 57):
            plus = scattering_angle(float(rho), p)
            minus = scattering_angle(-float(rho), p)
            assert plus.angle == -minus.angle
            assert plus.branch == minus.branch

    def test_branch_continuity_one_sided_limits(self):
        # both branches tend to 2 arccos(n) at rho = n; the kink is a
        # square-root cusp, so the gap shrinks like sqrt(offset)
        n = 0.8
        p = params_for_index(n)
        at_branch = 2.0 * math.acos(n)
        assert scattering_angle(n, p).angle == pytest.approx(at_branch, abs=1e-12)
        prev_gap = math.inf
        for delta in (1e-6, 1e-8, 1e-10, 1e-12):
            lo = scattering_angle(n - delta, p).angle
            hi = scattering_angle(n + delta, p).angle
            gap = max(abs(lo - at_branch), abs(hi - at_branch))
            assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-5

    def test_total_reflection_regime_accepts_all_rho(self):
        # barrier above the kinetic energy: hard-disk law everywhere;
        # head-on (rho = 0) is the full reversal, theta = +pi
        p = BarrierParams(epsilon=0.04, alpha=0.5, speed=0.5)
        assert p.always_reflects
        with pytest.raises(RegimeError):
            refractive_index(p)
        for rho in (-0.9, -0.3, 0.0, 0.2, 0.99):
            out = scattering_angle(rho, p)
            assert out.branch == ScatterOutcome.TOTALLY_REFLECTED
            expected = 2.0 * math.acos(abs(rho))
            if rho < 0:
                expected = -expected
            assert out.angle == pytest.approx(expected, abs=1e-14)

    def test_grazing_limit_vanishes_with_eps(self):
        # fixed rho, eps -> 0: collisions become grazing
        prev = math.inf
        for k in (4, 6, 8, 10, 12):
            out = scattering_angle(0.3, BarrierParams(10.0**-k, 0.25))
            assert 0.0 < out.angle < prev
            prev = out.angle
        assert prev < 1e-3


class TestDeflect:
    """The flow's barrier deflection, one disk at a time."""

    def test_head_on_identity(self):
        v = np.array([0.0, 1.0])
        out, log = one_disk_pass(v, 0.0, params_for_index(0.8))
        assert len(log.events) == 1
        assert np.allclose(out, v, atol=0.0)

    def test_speed_conservation_sweep(self):
        p = params_for_index(0.65)
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi = rng.uniform(0, 2 * math.pi)
            v = np.array([math.cos(phi), math.sin(phi)])
            out, log = one_disk_pass(v, float(rng.uniform(-1, 1)), p)
            assert len(log.events) == 1
            # 4 ulp of the unit speed
            assert abs(math.hypot(*out) - 1.0) <= 4 * np.finfo(float).eps

    def test_mirror_symmetry(self):
        p = params_for_index(0.8)
        v = np.array([1.0, 0.0])
        a, _ = one_disk_pass(v, 0.37, p)
        b, _ = one_disk_pass(v, -0.37, p)
        assert a[0] == pytest.approx(b[0], abs=1e-15)
        assert a[1] == pytest.approx(-b[1], abs=1e-15)


class TestHardDiskReflect:
    """The flow's specular reflection in hard-disk mode."""

    def test_head_on_reversal(self):
        out, log = one_disk_pass([1.0, 0.0], 0.0, radius=0.05)
        assert len(log.events) == 1
        assert np.allclose(out, [-1.0, 0.0], atol=0.0)

    def test_tangential_unchanged(self):
        # a graze at |rho| = 1 is a miss
        out, log = one_disk_pass([1.0, 0.0], 1.0, radius=0.05)
        assert log.events == []
        assert np.allclose(out, [1.0, 0.0], atol=0.0)

    def test_normal_component_flip(self):
        rng = np.random.default_rng(3)
        r = 0.05
        for _ in range(100):
            phi = rng.uniform(0, 2 * math.pi)
            v = np.array([math.cos(phi), math.sin(phi)]) * 1.7
            out, log = one_disk_pass(v, float(rng.uniform(-0.99, 0.99)),
                                     radius=r)
            (ev,) = log.events
            # unit normal at the impact point, read off the logged path
            entry = next(xy for (t, xy) in log.path if t == ev.time)
            om = np.subtract(entry, ev.center) / r
            assert out @ om == pytest.approx(-(v @ om), abs=1e-14)
            assert math.hypot(*out) == pytest.approx(1.7, abs=1e-14)


class TestOracleEquivalence:
    def test_dense_grid(self):
        # both branches plus brackets around the branch point; at the
        # exact branch point the angle has a square-root cusp, so the
        # geometric construction cannot be evaluated there in floats
        # (the closed form is checked against 2 acos(n) separately)
        worst = 0.0
        for n in np.linspace(0.02, 0.998, 40):
            nn = float(n)
            p = params_for_index(nn)
            brackets = [nn * (1 - 1e-7), min(1.0, nn * (1 + 1e-7))]
            rhos = np.concatenate(
                [np.linspace(-1.0, 1.0, 41), brackets,
                 [-b for b in brackets]]
            )
            for rho in rhos:
                diff = abs(
                    scattering_angle(float(rho), p).angle
                    - ray_trace_oracle(float(rho), p)
                )
                worst = max(worst, diff)
        assert worst <= 1e-10

    def test_closed_form_at_exact_branch_point(self):
        for n in (0.3, 0.606, 0.9):
            p = params_for_index(n)
            assert scattering_angle(n, p).angle == pytest.approx(
                2.0 * math.acos(n), abs=1e-12
            )

    def test_total_reflection_regime_grid(self):
        p = BarrierParams(epsilon=0.04, alpha=0.5, speed=0.5)
        for rho in np.linspace(-1, 1, 101):
            diff = abs(
                scattering_angle(float(rho), p).angle
                - ray_trace_oracle(float(rho), p)
            )
            assert diff <= 1e-10
