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

The integrals of the law run on ``_gauss_kronrod``, a globally adaptive
G7-K15 rule with the branch point rho = n as a breakpoint.  One is the
angular-diffusion coefficient at finite epsilon,

    B_eps = (mu eps^(-2 alpha) / 2) |v| * integral_{-1}^{1} theta^2 drho,

which diverges like ``2 alpha mu / |v|^3 * |log eps|``; the renormalized
coefficient ``B_tilde = 2 alpha mu / |v|^3`` is what remains after
dividing the intensity by |log eps|.  This module loads no numpy.

Sign convention: ``rho`` is the signed impact parameter in units of the
barrier radius, positive when the scatterer center lies to the right of
the velocity; positive ``rho`` gives a positive (counterclockwise)
deflection.  Only theta^2 and +-rho-symmetric laws enter any physical
result, so the convention is free but must be used consistently; the
dynamics module computes rho the same way.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

__all__ = [
    "BarrierParams",
    "ScatterOutcome",
    "RegimeError",
    "StuckParticleError",
    "refractive_index",
    "deflection_angle",
    "scattering_angle",
    "landau_B_quadrature",
    "scattering_moment_integrals",
    "ray_trace_oracle",
]


class RegimeError(ValueError):
    """Raised when a formula is evaluated outside its validity regime."""


class StuckParticleError(RuntimeError):
    """More than ``dynamics.MAX_EVENTS`` boundary events before the
    requested time; with RegimeError, the CLI's exit 3."""


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
# Adaptive quadrature.

# The 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule it
# extends (QUADPACK's qk15): nodes +-_XK[j], the center last; the Gauss
# weights sit at the Kronrod nodes of odd index and are 0 elsewhere.
_XK = (0.991455371120812639206854697526329,
       0.949107912342758524526189684047851,
       0.864864423359769072789712788640926,
       0.741531185599394439863864773280788,
       0.586087235467691130294144845693013,
       0.405845151377397166906606412076961,
       0.207784955007898467600689403773245,
       0.0)
_WK = (0.022935322010529224963732008058970,
       0.063092092629978553290700663189204,
       0.104790010322250183839876322541518,
       0.140653259715525918745189590510238,
       0.169004726639267902826583426598550,
       0.190350578064785409913256402421014,
       0.204432940075298892414161999234649,
       0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082,
       0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975,
       0.0, 0.417959183673469387755102040816327)

_EPS = sys.float_info.epsilon

# Most intervals of one adaptive quadrature: where roundoff holds the
# error estimate above the tolerance, this bounds the work
_QUAD_LIMIT = 500


def _kronrod15(f, a: float, b: float) -> tuple[float, float]:
    """The K15 value of the integral of f over [a, b] and QUADPACK's
    estimate of its error: |K15 - G7|, scaled against the integrand's
    spread about its mean and floored at 50 ulp of the integral of |f|."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    pairs = [(f(c - h * x), f(c + h * x)) for x in _XK[:-1]]
    resk = _WK[-1] * fc + sum(w * (lo + hi) for w, (lo, hi) in zip(_WK, pairs))
    resg = _WG[-1] * fc + sum(w * (lo + hi) for w, (lo, hi) in zip(_WG, pairs))
    mean = 0.5 * resk
    width = abs(h)
    resabs = width * (_WK[-1] * abs(fc) + sum(
        w * (abs(lo) + abs(hi)) for w, (lo, hi) in zip(_WK, pairs)))
    resasc = width * (_WK[-1] * abs(fc - mean) + sum(
        w * (abs(lo - mean) + abs(hi - mean))
        for w, (lo, hi) in zip(_WK, pairs)))
    err = width * abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > sys.float_info.min / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * h, err


def _gauss_kronrod(f, points, epsabs: float,
                   epsrel: float) -> tuple[float, float]:
    """Integral of f from points[0] to points[-1] and an estimate of its
    absolute error, by globally adaptive G7-K15 quadrature (QUADPACK's
    QAGP without its extrapolation; Piessens et al., 1983).

    The breakpoints split the range into the first intervals.  The
    interval of largest error estimate is bisected until the summed
    estimate is within max(epsabs, epsrel |integral|), the intervals
    number ``_QUAD_LIMIT``, or that interval has no representable
    midpoint; in the last two cases the returned error exceeds the
    tolerance.
    """
    heap = []
    for a, b in zip(points[:-1], points[1:]):
        val, err = _kronrod15(f, a, b)
        heap.append((-err, a, b, val))
    heapq.heapify(heap)
    total = sum(v for *_, v in heap)
    error = sum(-e for e, *_ in heap)
    while (error > max(epsabs, epsrel * abs(total))
           and len(heap) < _QUAD_LIMIT):
        neg_err, a, b, v = heap[0]
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        (v1, e1), (v2, e2) = _kronrod15(f, a, mid), _kronrod15(f, mid, b)
        heapq.heapreplace(heap, (-e1, a, mid, v1))
        heapq.heappush(heap, (-e2, mid, b, v2))
        total += v1 + v2 - v
        error += e1 + e2 + neg_err
    return math.fsum(v for *_, v in heap), math.fsum(-e for e, *_ in heap)


def landau_B_quadrature(epsilon: float, alpha: float, mu: float = 1.0,
                        speed: float = 1.0) -> float:
    """(mu eps^(-2 alpha)/2) |v| * integral of theta^2 over rho in [-1,1].

    ``_gauss_kronrod`` with the branch point rho = n as a breakpoint, at
    a requested relative error of 1e-12.  Raises ValueError outside
    BarrierParams' domain and RegimeError when 2 eps^alpha >= speed^2.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    n = refractive_index(BarrierParams(epsilon, alpha, speed))
    half, _ = _gauss_kronrod(lambda r: deflection_angle(r, n) ** 2,
                            (0.0, n, 1.0), epsabs=0.0, epsrel=1e-12)
    return 0.5 * mu * epsilon ** (-2.0 * alpha) * speed * (2.0 * half)


def scattering_moment_integrals(epsilon: float, alpha: float,
                                speed: float = 1.0) -> tuple[float, float]:
    """Scaled second and fourth moments of the velocity transfer.

    Returns ``eps^(-2a)/|log eps| * integral 4 sin^2(theta/2) drho`` and
    the same scaling of ``(4 sin^2(theta/2))^2``.  The first converges
    to 2 alpha / speed**4 at unit speed normalization; the second
    vanishes (grazing collisions).
    """
    n = refractive_index(BarrierParams(epsilon, alpha, speed))
    s2 = lambda r: 4.0 * math.sin(deflection_angle(r, n) / 2.0) ** 2  # noqa: E731
    m2, _ = _gauss_kronrod(s2, (0.0, n, 1.0), epsabs=0.0, epsrel=1e-10)
    # the fourth moment is tiny; a finite epsabs avoids roundoff stalls
    m4, _ = _gauss_kronrod(lambda r: s2(r) ** 2, (0.0, n, 1.0),
                          epsabs=1e-300, epsrel=1e-8)
    scale = epsilon ** (-2.0 * alpha) / abs(math.log(epsilon))
    return scale * 2.0 * m2, scale * 2.0 * m4


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
