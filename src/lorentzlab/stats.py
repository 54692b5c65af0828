"""Finite-sample estimators shared by the experiments.

Everything here reports count-based 95% confidence intervals so the
experiment reports can state how much of an observed discrepancy is
noise.  Distributional comparisons are made on fixed histograms (total
variation), uniformity by chi-square, and macroscopic laws by ordinary
least squares on binned estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "angle_histogram",
    "chi_square_uniform",
    "tv_distance",
    "tv_self_noise",
    "LinearFit",
    "linear_fit",
    "mean_with_ci",
    "msd_curve",
]

TWO_PI = 2.0 * math.pi


def angle_histogram(angles, n_bins: int = 256) -> np.ndarray:
    """Counts of angles wrapped to [0, 2pi) on uniform bins."""
    wrapped = np.mod(np.asarray(angles, dtype=float), TWO_PI)
    counts, _ = np.histogram(wrapped, bins=n_bins, range=(0.0, TWO_PI))
    return counts


def chi_square_uniform(counts) -> tuple[float, float]:
    """Chi-square statistic and p-value against the uniform law."""
    counts = np.asarray(counts, dtype=float)
    e = counts.mean()
    stat = float(((counts - e) ** 2 / e).sum())
    return stat, _chi_square_tail(len(counts) - 1, stat)


def _chi_square_tail(df: int, x: float) -> float:
    """P(chi^2_df > x) for a whole number df >= 1, in closed form; nan
    for df < 1, which leaves no degree of freedom (a one-bin histogram).

    With y = x/2: e^-y sum_{j<df/2} y^j / j! for even df, and
    erfc(sqrt y) + e^-y sum_{j<(df-1)/2} y^(j+1/2) / Gamma(j + 3/2) for
    odd df.  Each term is the one before times y / (j + (df % 2) / 2),
    so the sum takes products only.  Above y = 512, e^-y is taken as
    2^s equal factors (y / 2^s is exact), each folded in when the terms
    grow large, so no partial product leaves the float range.
    """
    if df < 1:
        return math.nan
    y = 0.5 * x
    if y == math.inf:
        return 0.0
    if df % 2:  # the first term is y^(1/2) / Gamma(3/2)
        tail, term, shift = (math.erfc(math.sqrt(y)),
                             2.0 * math.sqrt(y / math.pi), 0.5)
    else:
        tail, term, shift = 0.0, 1.0, 0.0
    parts = 1
    while y > 512.0 * parts:
        parts *= 2
    factor = math.exp(-y / parts)
    term *= factor
    parts -= 1
    total = 0.0
    for j in range(1, df // 2 + 1):
        total += term
        term *= y / (j + shift)
        if term > 1e250 and parts:
            term *= factor
            total *= factor
            parts -= 1
    while parts and total:
        total *= factor
        parts -= 1
    return tail + total


def tv_distance(counts_p, counts_q) -> float:
    """Total-variation distance between two empirical histograms, in [0, 1]."""
    p = np.asarray(counts_p, dtype=float)
    q = np.asarray(counts_q, dtype=float)
    if p.sum() <= 0 or q.sum() <= 0:
        raise ValueError("histograms must be nonempty")
    return 0.5 * float(np.abs(p / p.sum() - q / q.sum()).sum())


def tv_self_noise(counts_p, counts_q, seed: int = 7) -> tuple[float, float]:
    """Sampling noise of the TV estimate: mean and 97.5th percentile of
    the TV between 200 multinomial resamples of the POOLED law.

    This is the distance two histograms of these sizes would show if
    they came from the same distribution; a measured TV is
    distinguishable from zero only above this floor.
    """
    p = np.asarray(counts_p, dtype=float)
    q = np.asarray(counts_q, dtype=float)
    if p.sum() <= 0 or q.sum() <= 0:
        raise ValueError("histograms must be nonempty")
    pooled = (p + q) / (p.sum() + q.sum())
    n1, n2 = int(p.sum()), int(q.sum())
    rng = np.random.Generator(np.random.Philox(key=seed))
    # one call draws the pairs one after the other, as a loop of
    # multinomial(n1), multinomial(n2) would: rows a, b, a, b, ...
    ab = rng.multinomial(np.tile([n1, n2], 200), pooled).astype(float)
    ab /= ab.sum(axis=1, keepdims=True)
    tvs = 0.5 * np.abs(ab[0::2] - ab[1::2]).sum(axis=1)  # tv_distance's
    return float(tvs.mean()), float(np.quantile(tvs, 0.975))


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float
    slope_se: float

    @property
    def slope_ci(self) -> tuple[float, float]:
        return self.slope - 1.96 * self.slope_se, self.slope + 1.96 * self.slope_se


def linear_fit(x, y, se=None) -> LinearFit:
    """Least squares y = a + b x; weighted by 1/se^2 when se is given.

    The slope standard error comes from the weights when given,
    otherwise from the residual variance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValueError("need at least 3 points")
    if se is not None:
        w = 1.0 / np.asarray(se, dtype=float) ** 2
    else:
        w = np.ones_like(x)
    sw = w.sum()
    mx = (w * x).sum() / sw
    my = (w * y).sum() / sw
    sxx = (w * (x - mx) ** 2).sum()
    sxy = (w * (x - mx) * (y - my)).sum()
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = y - (intercept + slope * x)
    ss_res = float((w * resid**2).sum())
    ss_tot = float((w * (y - my) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if se is not None:
        slope_se = math.sqrt(1.0 / sxx)
    else:
        dof = max(len(x) - 2, 1)
        slope_se = math.sqrt(ss_res / dof / sxx)
    return LinearFit(float(slope), float(intercept), r2, float(slope_se))


def mean_with_ci(samples):
    """Sample mean over axis 0 and its 95% half-width, 1.96 s / sqrt(n)."""
    a = np.asarray(samples, dtype=float)
    if a.size < 2:
        return float(a.mean()) if a.size else math.nan, math.inf
    return a.mean(axis=0), 1.96 * a.std(axis=0, ddof=1) / math.sqrt(len(a))


def msd_curve(positions) -> tuple[np.ndarray, np.ndarray]:
    """Mean square displacement and its 95% half-width at each time:
    ``mean_with_ci`` of the squared displacements.

    positions: array (n_paths, n_times, 2) of displacements from the
    start (or absolute positions with common start at the origin).
    """
    pos = np.asarray(positions, dtype=float)
    return mean_with_ci(np.einsum("ptk,ptk->pt", pos, pos))
