"""Estimator sanity: histograms, TV, chi-square, least squares."""

import math

import numpy as np
import pytest

from lorentzlab.stats import (
    angle_histogram,
    _chi_square_tail,
    chi_square_uniform,
    linear_fit,
    mean_with_ci,
    msd_curve,
    tv_distance,
    tv_self_noise,
)


def _tail_40_digits(df, x):
    """P(chi^2_df > x) as a 40-digit regularized upper incomplete gamma."""
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2,
                                     regularized=True))


class TestHistogramsAndTV:
    def test_angle_histogram_wraps(self):
        counts = angle_histogram([0.1, 0.1 + 2 * math.pi, -0.2], n_bins=8)
        assert counts.sum() == 3
        assert counts[0] == 2  # both 0.1 copies in the first bin

    def test_tv_identical_zero(self):
        h = np.array([5, 3, 2])
        assert tv_distance(h, h) == 0.0

    def test_tv_disjoint_one(self):
        assert tv_distance([10, 0], [0, 10]) == 1.0

    def test_tv_scale_invariant(self):
        a, b = np.array([4, 6, 10]), np.array([2, 3, 5])
        assert tv_distance(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_tv_empty_rejected(self):
        with pytest.raises(ValueError):
            tv_distance([0, 0], [1, 2])

    def test_self_noise_floor_scales(self):
        rng = np.random.default_rng(0)
        h1 = rng.multinomial(2000, np.full(32, 1 / 32))
        h2 = rng.multinomial(2000, np.full(32, 1 / 32))
        mean_small, hi_small = tv_self_noise(h1, h2, seed=1)
        h3 = rng.multinomial(50_000, np.full(32, 1 / 32))
        h4 = rng.multinomial(50_000, np.full(32, 1 / 32))
        mean_big, _ = tv_self_noise(h3, h4, seed=1)
        assert mean_big < mean_small
        assert hi_small > mean_small
        # the measured self TV sits inside the predicted band
        assert tv_distance(h1, h2) < 2 * hi_small

    @staticmethod
    def _self_noise_loop(counts_p, counts_q, seed):
        """tv_self_noise one resample pair at a time, through tv_distance."""
        p = np.asarray(counts_p, dtype=float)
        q = np.asarray(counts_q, dtype=float)
        pooled = (p + q) / (p.sum() + q.sum())
        rng = np.random.Generator(np.random.Philox(key=seed))
        tvs = np.empty(200)
        for i in range(200):
            a = rng.multinomial(int(p.sum()), pooled)
            b = rng.multinomial(int(q.sum()), pooled)
            tvs[i] = tv_distance(a, b)
        return float(tvs.mean()), float(np.quantile(tvs, 0.975))

    @pytest.mark.parametrize("case", range(12))
    def test_self_noise_equals_the_loop(self, case):
        # bit for bit: the draws of one call are the loop's, and each
        # distance takes tv_distance's operations
        rng = np.random.default_rng(case)
        bins = int(rng.integers(2, 300))
        p = rng.integers(0, 40, bins) * (rng.random(bins) < 0.8)
        q = rng.integers(0, 400, bins)
        p[0] += 1
        seed = int(rng.integers(0, 2**63))
        assert tv_self_noise(p, q, seed) == self._self_noise_loop(p, q, seed)

    def test_self_noise_empty_rejected(self):
        with pytest.raises(ValueError):
            tv_self_noise([0, 0], [1, 2])


class TestChiSquare:
    def test_uniform_accepts(self):
        rng = np.random.default_rng(3)
        counts = angle_histogram(rng.uniform(0, 2 * math.pi, 20_000), 32)
        _, p = chi_square_uniform(counts)
        assert p > 0.01

    def test_concentrated_rejects(self):
        counts = angle_histogram(np.full(1000, 0.3), 32)
        _, p = chi_square_uniform(counts)
        assert p < 1e-10

    def test_equals_scipy_chisquare(self):
        # the statistic is scipy's bit for bit; the p-value is the closed
        # form, nearer the exact tail than scipy's chdtrc, which gives
        # 0.15729920705028105 at (df, x) = (1, 2) where erfc(1) rounds to
        # 0.15729920705028513
        from scipy.stats import chisquare

        rng = np.random.default_rng(11)
        for n, lam in ((2, 3.0), (8, 40.0), (32, 600.0), (64, 1.5)):
            counts = rng.poisson(lam, n)
            stat, p = chisquare(counts.astype(float))
            got_stat, got_p = chi_square_uniform(counts)
            assert got_stat == float(stat)
            assert got_p == pytest.approx(float(p), rel=1e-13)
            assert got_p == pytest.approx(_tail_40_digits(n - 1, got_stat),
                                          rel=2e-14)

    @pytest.mark.parametrize("df", [1, 2, 31, 63, 1023])
    def test_tail_matches_40_digit_gamma(self, df):
        # from the bulk to far in the tail; at df = 1023 and x >= 1.1 df
        # the e^-y factor is folded in parts
        for f in (0.01, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0):
            x = f * df
            assert _chi_square_tail(df, x) == pytest.approx(
                _tail_40_digits(df, x), rel=2e-14)

    def test_two_and_three_bins_are_exact(self):
        # df = 1 is erfc(sqrt(x/2)) and df = 2 is exp(-x/2), nothing added
        rng = np.random.default_rng(5)
        for _ in range(50):
            stat, p = chi_square_uniform(rng.poisson(20.0, 2))
            assert p == math.erfc(math.sqrt(stat / 2))
            stat, p = chi_square_uniform(rng.poisson(20.0, 3))
            assert p == math.exp(-stat / 2)

    def test_tail_limits(self):
        assert _chi_square_tail(7, 0.0) == 1.0
        assert _chi_square_tail(7, math.inf) == 0.0
        assert math.isnan(_chi_square_tail(0, 0.0))  # one bin, as chdtrc


class TestLinearFit:
    def test_exact_line(self):
        x = np.linspace(0, 1, 9)
        fit = linear_fit(x, 2.0 - 0.5 * x)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_weighted_recovers_slope(self):
        rng = np.random.default_rng(8)
        x = np.linspace(0, 1, 40)
        se = np.full_like(x, 0.05)
        y = 1.0 + 3.0 * x + rng.normal(0, 0.05, x.size)
        fit = linear_fit(x, y, se)
        lo, hi = fit.slope_ci
        assert lo < 3.0 < hi

    def test_slope_ci_covers_noise(self):
        rng = np.random.default_rng(9)
        hits = 0
        for i in range(100):
            x = np.linspace(0, 1, 12)
            y = rng.normal(0, 1, 12)
            fit = linear_fit(x, y)
            lo, hi = fit.slope_ci
            hits += lo <= 0.0 <= hi
        assert hits >= 85  # 95% nominal coverage

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            linear_fit([0, 1], [0, 1])


class TestSmallHelpers:
    def test_mean_with_ci(self):
        m, hw = mean_with_ci([1.0, 2.0, 3.0, 4.0])
        assert m == pytest.approx(2.5)
        assert hw > 0
        # over axis 0: one mean and half-width per column
        m, hw = mean_with_ci([[1.0, 2.0], [3.0, 6.0], [5.0, 10.0]])
        assert m.tolist() == [3.0, 6.0]
        assert hw.tolist() == [1.96 * 2.0 / math.sqrt(3.0),
                               1.96 * 4.0 / math.sqrt(3.0)]

    def test_mean_with_ci_of_under_two_samples(self):
        # one sample bounds nothing; no sample has no mean
        assert mean_with_ci([3.5]) == (3.5, math.inf)
        m, hw = mean_with_ci([])
        assert math.isnan(m) and hw == math.inf

    def test_msd_curve_ballistic(self):
        # straight motion at speed 1: msd = t^2 exactly, zero spread
        times = np.linspace(0, 2, 5)
        pos = np.zeros((7, 5, 2))
        pos[:, :, 0] = times
        msd, hw = msd_curve(pos)
        assert np.allclose(msd, times**2, atol=1e-12)
        assert np.allclose(hw, 0.0, atol=1e-12)
