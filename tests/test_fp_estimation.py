"""Tests for Algorithm 3 (FpEstimator) and the heavy-hitter API."""

import random

import pytest

from repro import registry
from repro.core import FpEstimator, HeavyHitters
from repro.core.fp_estimation import LevelSets
from repro.experiments.accuracy import level_set_estimate
from repro.streams import (
    FrequencyVector,
    planted_heavy_hitter_stream,
    uniform_stream,
    zipf_stream,
)


class TestConstruction:
    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            FpEstimator(n=10, m=10, p=0.5, epsilon=0.5)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            FpEstimator(n=10, m=10, p=2, epsilon=0)

    def test_even_repetitions_rounded_up(self):
        algo = FpEstimator(n=100, m=100, p=2, epsilon=0.5, repetitions=2)
        assert algo.repetitions == 3


def exact_fp(stream, n, m, p, epsilon, seed) -> float:
    """The level-set step of ``FpEstimator(..., repetitions=3,
    seed=seed)`` fed the exact family's counts of ``stream``."""
    exact = registry.create("exact")
    exact.process_stream(stream)
    levels = LevelSets(n, m, p, epsilon, random.Random(seed), repetitions=3)
    return level_set_estimate(levels, exact.estimates())


class TestOracleBackend:
    """Validates the level-set machinery with exact per-level tables:
    the exact family's counts, split by the estimator's samplers."""

    def test_single_dominant_item_exact_band(self):
        m = 4096
        estimate = exact_fp([5] * m, n=64, m=m, p=2, epsilon=0.5, seed=0)
        assert estimate == pytest.approx(float(m) ** 2, rel=0.01)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_zipf_accuracy(self, p):
        n, m = 2048, 16384
        stream = zipf_stream(n, m, skew=1.1, seed=1)
        truth = FrequencyVector.from_stream(stream).fp_moment(p)
        estimate = exact_fp(stream, n=n, m=m, p=p, epsilon=0.5, seed=1)
        assert estimate == pytest.approx(truth, rel=0.5)

    def test_f1_on_uniform(self):
        n, m = 1024, 8192
        stream = uniform_stream(n, m, seed=2)
        # F1 = m exactly.
        estimate = exact_fp(stream, n=n, m=m, p=1, epsilon=0.5, seed=2)
        assert estimate == pytest.approx(m, rel=0.5)

    def test_band_levels_monotone(self):
        level_sets = LevelSets(
            n=256, m=256, p=2, epsilon=0.5, rng=random.Random(3), repetitions=3
        )
        levels = [level_sets.level_for_band(i) for i in range(1, 20)]
        assert levels == sorted(levels)
        assert levels[0] == 1


class TestSampleHoldBackend:
    def test_skewed_stream_within_constant_factor(self):
        n, m = 512, 8192
        stream = planted_heavy_hitter_stream(
            n, m, {1: 2500, 2: 1200}, seed=4
        )
        truth = FrequencyVector.from_stream(stream).fp_moment(2)
        algo = FpEstimator(
            n=n,
            m=m,
            p=2,
            epsilon=0.5,
            seed=4,
            inner_kwargs={"repetitions": 1},
        )
        algo.process_stream(stream)
        estimate = algo.fp_estimate()
        assert truth / 4 <= estimate <= 4 * truth

    def test_sublinear_state_changes(self):
        n, m = 1024, 30000
        stream = zipf_stream(n, m, skew=1.3, seed=5)
        algo = FpEstimator(
            n=n,
            m=m,
            p=2,
            epsilon=1.0,
            seed=5,
            inner_kwargs={"repetitions": 1},
        )
        algo.process_stream(stream)
        assert algo.state_changes < m

    def test_lp_norm_is_root_of_moment(self):
        algo = FpEstimator(n=64, m=1000, p=2, epsilon=0.5, seed=6)
        algo.process_stream([3] * 1000)
        assert algo.lp_norm_estimate() == pytest.approx(
            algo.fp_estimate() ** 0.5
        )


class TestHeavyHittersAPI:
    @pytest.fixture(scope="class")
    def planted(self):
        n, m = 512, 10000
        heavy = {1: 3000, 2: 1800}
        stream = planted_heavy_hitter_stream(n, m, heavy, seed=7)
        algo = HeavyHitters(
            n=n,
            m=m,
            p=2,
            epsilon=0.5,
            seed=7,
            inner_kwargs={"repetitions": 1},
        )
        algo.process_stream(stream)
        return algo, FrequencyVector.from_stream(stream), heavy

    def test_report_contains_true_heavy_hitters(self, planted):
        algo, f, heavy = planted
        report = algo.heavy_hitters()
        for item in heavy:
            assert item in report

    def test_report_excludes_forbidden_items(self, planted):
        algo, f, heavy = planted
        report = algo.heavy_hitters()
        # No reported item may be far below the eps/4 line.
        floor = 0.125 * f.lp_norm(2)
        for item in report:
            assert f[item] >= floor / 2

    def test_norm_estimate_within_factor(self, planted):
        algo, f, heavy = planted
        assert f.lp_norm(2) / 3 <= algo.lp_norm_estimate() <= 3 * f.lp_norm(2)

    def test_estimates_accurate_for_heavy(self, planted):
        algo, f, heavy = planted
        for item, count in heavy.items():
            assert algo.estimate(item) == pytest.approx(count, rel=0.6)

    def test_invalid_report_epsilon_raises(self, planted):
        algo, _, _ = planted
        with pytest.raises(ValueError):
            algo.heavy_hitters(epsilon=0)

    def test_fp_estimate_exposed(self, planted):
        algo, f, _ = planted
        assert algo.fp_estimate() == pytest.approx(f.fp_moment(2), rel=0.8)
