"""Tests for p-stable variate generation (Definition 3.1)."""

import math

import numpy as np
import pytest

from repro.hashing import (
    sample_pstable,
    sample_pstable_array,
    stable_abs_median,
)
from repro.hashing import pstable
from repro.hashing.pstable import cms_transform, stable_log_abs_mean


class TestSamplePStable:
    def test_p1_is_cauchy_tan(self):
        assert sample_pstable(1.0, 0.5, 0.3) == pytest.approx(math.tan(0.5))

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            sample_pstable(0.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            sample_pstable(2.5, 0.1, 0.5)

    def test_p2_is_gaussian_scale(self):
        # For p=2 the CMS transform yields N(0, 2) (variance 2).
        rng = np.random.default_rng(0)
        draws = sample_pstable_array(2.0, 100_000, rng)
        assert np.std(draws) == pytest.approx(math.sqrt(2.0), rel=0.02)
        assert np.mean(draws) == pytest.approx(0.0, abs=0.02)


class TestStabilityProperty:
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    def test_sum_scales_like_lp_norm(self, p):
        """sum_i Z_i x_i ~ ||x||_p Z: compare |.|-medians of both sides."""
        rng = np.random.default_rng(42)
        x = np.array([3.0, 4.0, 1.0, 2.0])
        lp = float(np.sum(np.abs(x) ** p)) ** (1.0 / p)
        trials = 60_000
        z = sample_pstable_array(p, trials * len(x), rng).reshape(trials, len(x))
        combo_median = float(np.median(np.abs(z @ x)))
        single_median = stable_abs_median(p) * lp
        assert combo_median == pytest.approx(single_median, rel=0.05)


class TestStableAbsMedian:
    def test_cauchy_median_is_one(self):
        assert stable_abs_median(1.0) == 1.0

    def test_gaussian_case_exact(self):
        assert stable_abs_median(2.0) == pytest.approx(
            math.sqrt(2.0) * 0.674489750196, rel=1e-9
        )

    def test_monte_carlo_case_reproducible(self):
        assert stable_abs_median(0.5) == stable_abs_median(0.5)
        assert stable_abs_median(0.5) > 0


class TestScaleConstantsInPlace:
    """The constants transform block by block in place; the values
    (and ``np.mean``'s pairwise sum) equal the one-shot formulas."""

    #: Several whole transform blocks plus a partial one.
    SAMPLES = 3 * pstable._TRANSFORM_BLOCK + 1234

    @pytest.mark.parametrize("p", [0.5, 0.93, 1.0, 1.07, 1.5])
    def test_log_abs_mean_equals_one_shot(self, p):
        rng = np.random.default_rng(0xABCDE)
        theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, self.SAMPLES)
        r = rng.uniform(0.0, 1.0, self.SAMPLES)
        draws = np.abs(cms_transform(p, theta, r))
        expected = float(np.mean(np.log(draws + 1e-300)))
        assert stable_log_abs_mean(p, self.SAMPLES) == expected

    @pytest.mark.parametrize("p", [0.5, 0.93, 1.07, 1.5])
    def test_abs_median_equals_one_shot(self, p):
        rng = np.random.default_rng(0xC0FFEE)
        draws = np.abs(sample_pstable_array(p, self.SAMPLES, rng))
        expected = float(np.median(draws))
        assert stable_abs_median(p, self.SAMPLES) == expected
