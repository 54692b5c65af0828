"""Single-scatterer solvers: circular potential barrier and hard disk.

A point particle meets one circular barrier of radius ``epsilon`` whose
height is ``epsilon**alpha``.  Outside/inside speeds differ by the
refractive index ``n = sqrt(1 - 2 eps^alpha / speed^2)``; the deflection
across the barrier has a refracted branch (|rho| <= n) and a totally
reflected branch (|rho| > n, or everywhere when the barrier tops the
kinetic energy).  ``deflection_angle`` is the one closed-form law: the
mechanical flow applies it at each barrier and the kinetic jump process
draws its angles from it.  ``ray_trace_oracle`` re-derives the same
angle by an explicit two-interface Snell construction and is kept free
of the closed-form expression so the two can check each other.

Sign convention: ``rho`` is the signed impact parameter in units of the
barrier radius, positive when the scatterer center lies to the right of
the velocity; positive ``rho`` gives a positive (counterclockwise)
deflection.  Only theta^2 and +-rho-symmetric laws enter any physical
result, so the convention is free but must be used consistently; the
dynamics module computes rho the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BarrierParams",
    "ScatterOutcome",
    "RegimeError",
    "refractive_index",
    "deflection_angle",
    "scattering_angle",
    "ray_trace_oracle",
]


class RegimeError(ValueError):
    """Raised when a formula is evaluated outside its validity regime."""


@dataclass(frozen=True)
class BarrierParams:
    """Microscopic interaction parameters.

    epsilon: barrier (disk) radius scale, in (0, 1)
    alpha:   potential exponent, in (0, 1/2]
    speed:   particle speed outside barriers, > 0
    """

    epsilon: float
    alpha: float
    speed: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not (0.0 < self.alpha <= 0.5):
            raise ValueError(f"alpha must be in (0,1/2], got {self.alpha}")
        if not self.speed > 0.0:
            raise ValueError(f"speed must be positive, got {self.speed}")

    @property
    def energy_ratio(self) -> float:
        """2 eps^alpha / speed^2; >= 1 means every impact reflects."""
        return 2.0 * self.epsilon**self.alpha / self.speed**2

    @property
    def always_reflects(self) -> bool:
        return self.energy_ratio >= 1.0

    @property
    def n_index(self) -> float:
        """Refractive index, or 0 when every impact reflects."""
        return 0.0 if self.always_reflects else refractive_index(self)


@dataclass(frozen=True)
class ScatterOutcome:
    """Signed scattering angle in (-pi, pi] plus the branch taken."""

    angle: float
    branch: str  # "refracted" | "totally_reflected"

    REFRACTED = "refracted"
    TOTALLY_REFLECTED = "totally_reflected"


def refractive_index(params: BarrierParams) -> float:
    """Speed ratio inside/outside the barrier, sqrt(1 - 2 eps^alpha / v^2).

    Raises RegimeError when 2 eps^alpha >= speed^2 (the barrier tops the
    kinetic energy; the caller must use the total-reflection branch).
    """
    ratio = params.energy_ratio
    if ratio >= 1.0:
        raise RegimeError(
            f"2*eps^alpha/speed^2 = {ratio:g} >= 1: no transmitted ray exists"
        )
    return math.sqrt(1.0 - ratio)


def deflection_angle(rho: float, n: float) -> float:
    """Signed deflection for normalized impact parameter rho, index n.

    Refracted branch 2 (asin(|rho|/n) - asin(|rho|)) for |rho| <= n,
    total reflection 2 acos|rho| otherwise; ``n = 0`` is the
    always-reflecting (hard-disk) law.  The sign is that of rho, and
    head-on reflection (rho = 0) is the full reversal +pi.
    """
    a = abs(rho)
    if n > 0.0 and a <= n:
        theta = 2.0 * (math.asin(a / n) - math.asin(a))
    else:
        theta = 2.0 * math.acos(a)
    return theta if rho >= 0.0 else -theta


def scattering_angle(rho: float, params: BarrierParams) -> ScatterOutcome:
    """Deflection across one barrier for signed normalized rho in [-1, 1].

    Refracted branch for |rho| <= n, total reflection for |rho| > n.  In
    the regime 2 eps^alpha >= speed^2 every impact is elastically
    reflected (pure hard-disk behavior), which is accepted here rather
    than raised.
    """
    if abs(rho) > 1.0:
        raise ValueError(f"|rho| must be <= 1, got {rho}")
    n = params.n_index
    branch = (ScatterOutcome.REFRACTED if n > 0.0 and abs(rho) <= n
              else ScatterOutcome.TOTALLY_REFLECTED)
    return ScatterOutcome(deflection_angle(rho, n), branch)


# ---------------------------------------------------------------------------
# Geometric oracle: explicit construction through both interfaces, with no
# use of the closed-form angle expression.


def _snell(dx: float, dy: float, mx: float, my: float, ratio: float):
    """Refract unit direction d at a surface with unit normal m (d.m < 0).

    ratio scales the tangential (sine) component: sin_out = ratio*sin_in.
    Returns None when sin_out would exceed 1 (total internal reflection).
    """
    c1 = -(dx * mx + dy * my)
    tx, ty = dx + c1 * mx, dy + c1 * my  # tangential part, length sin_in
    sx, sy = ratio * tx, ratio * ty
    s2 = sx * sx + sy * sy
    if s2 > 1.0:
        return None
    c2 = math.sqrt(1.0 - s2)
    return sx - c2 * mx, sy - c2 * my


def ray_trace_oracle(rho: float, params: BarrierParams) -> float:
    """Signed scattering angle by explicit geometric construction.

    Entry point on the circle, Snell refraction with ratio n, straight
    chord, exit refraction; when no transmitted ray exists, a specular
    chord-reflection at the entry point.  Same domain and sign
    convention as scattering_angle, independent derivation.
    """
    if abs(rho) > 1.0:
        raise ValueError(f"|rho| must be <= 1, got {rho}")
    n = params.n_index
    # incoming along +x on the line y = rho; entry on the unit circle
    ex = -math.sqrt(max(0.0, 1.0 - rho * rho))
    ey = rho
    d0 = (1.0, 0.0)
    inward = _snell(d0[0], d0[1], ex, ey, 1.0 / n) if n > 0.0 else None
    if inward is None:
        # specular reflection off the disk at the entry point
        c = d0[0] * ex + d0[1] * ey
        fx, fy = d0[0] - 2.0 * c * ex, d0[1] - 2.0 * c * ey
        return math.atan2(d0[0] * fy - d0[1] * fx, d0[0] * fx + d0[1] * fy)
    dx, dy = inward
    # straight chord inside: exit where the ray meets the circle again
    chord = -2.0 * (ex * dx + ey * dy)
    xx, xy = ex + chord * dx, ey + chord * dy
    out = _snell(dx, dy, -xx, -xy, n)
    # exiting to the faster medium: sin_out = n*sin_in <= n < 1, never traps
    fx, fy = out
    return math.atan2(d0[0] * fy - d0[1] * fx, d0[0] * fx + d0[1] * fy)
