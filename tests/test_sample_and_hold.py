"""Tests for Algorithm 1 (SampleAndHold)."""

import statistics

import pytest

from repro.core import SampleAndHold, SampleAndHoldParams
from repro.streams import (
    FrequencyVector,
    planted_heavy_hitter_stream,
    uniform_stream,
    zipf_stream,
)


def make_algo(n, m, p=2.0, epsilon=0.5, seed=0, **kwargs):
    params = SampleAndHoldParams.from_problem(n=n, m=m, p=p, epsilon=epsilon)
    return SampleAndHold(params, seed=seed, **kwargs)


class TestParams:
    def test_sampling_rate_shape(self):
        """rho scales like n^{1-1/p}/m (up to the log factor)."""
        small = SampleAndHoldParams.from_problem(n=2**10, m=2**20, p=2, epsilon=0.5)
        large = SampleAndHoldParams.from_problem(n=2**14, m=2**20, p=2, epsilon=0.5)
        # n grows 16x, n^{1/2} grows 4x.
        ratio = large.sample_probability / small.sample_probability
        assert 3.0 < ratio < 6.0

    def test_rate_capped_at_one(self):
        params = SampleAndHoldParams.from_problem(n=100, m=100, p=2, epsilon=0.1)
        assert params.sample_probability == 1.0

    def test_kappa_grows_for_large_p(self):
        p2 = SampleAndHoldParams.from_problem(n=2**16, m=2**16, p=2, epsilon=0.5)
        p4 = SampleAndHoldParams.from_problem(n=2**16, m=2**16, p=4, epsilon=0.5)
        # kappa ~ n^{1-2/p}: 1 for p=2, n^{1/2} for p=4.
        assert p4.kappa > 10 * p2.kappa

    def test_uses_m_when_stream_shorter_than_universe(self):
        by_m = SampleAndHoldParams.from_problem(n=2**20, m=2**10, p=2, epsilon=0.5)
        by_n = SampleAndHoldParams.from_problem(n=2**10, m=2**10, p=2, epsilon=0.5)
        assert by_m.sample_probability == pytest.approx(
            by_n.sample_probability, rel=0.1
        )

    def test_budget_interval_valid(self):
        params = SampleAndHoldParams.from_problem(n=1000, m=1000, p=2, epsilon=0.5)
        assert params.budget_low < params.budget_high
        assert params.budget_low >= 2 * params.kappa

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            SampleAndHoldParams.from_problem(n=0, m=10, p=2, epsilon=0.5)
        with pytest.raises(ValueError):
            SampleAndHoldParams.from_problem(n=10, m=10, p=0.5, epsilon=0.5)
        with pytest.raises(ValueError):
            SampleAndHoldParams.from_problem(n=10, m=10, p=2, epsilon=0)


class TestHolding:
    def test_finds_planted_heavy_hitter(self):
        n, m = 2000, 20000
        stream = planted_heavy_hitter_stream(n, m, {42: 6000}, seed=1)
        algo = make_algo(n, m, seed=1)
        algo.process_stream(stream)
        estimate = algo.estimate(42)
        assert estimate >= 0.5 * 6000
        assert estimate <= 1.5 * 6000

    def test_estimates_are_one_sided(self):
        """Counters cannot invent occurrences: fhat <= (1+slack) * f."""
        n, m = 500, 10000
        stream = zipf_stream(n, m, skew=1.2, seed=2)
        f = FrequencyVector.from_stream(stream)
        algo = make_algo(n, m, seed=2)
        algo.process_stream(stream)
        for item, fhat in algo.estimates().items():
            assert fhat <= 2.0 * f[item] + 8

    def test_exact_counters_are_strictly_one_sided(self):
        n, m = 500, 10000
        stream = zipf_stream(n, m, skew=1.2, seed=3)
        f = FrequencyVector.from_stream(stream)
        algo = make_algo(n, m, seed=3, use_morris=False)
        algo.process_stream(stream)
        for item, fhat in algo.estimates().items():
            assert fhat <= f[item]

    def test_held_counters_respect_budget(self):
        n, m = 5000, 20000
        algo = make_algo(n, m, seed=4)
        for item in uniform_stream(n, m, seed=4):
            algo.process(item)
            assert algo.num_held <= algo.params.budget_high

    def test_prunes_happen_on_diverse_streams(self):
        n, m = 20000, 40000
        algo = make_algo(n, m, seed=5)
        # Repeat each item a few times so sampled items get held.
        stream = [x for i in range(m // 4) for x in (i % n,) * 4]
        algo.process_stream(stream)
        assert algo.num_prunes >= 1


class TestStateChanges:
    def test_sublinear_on_long_streams(self):
        n, m = 1024, 60000
        stream = zipf_stream(n, m, skew=1.1, seed=6)
        algo = make_algo(n, m, seed=6, epsilon=1.0)
        algo.process_stream(stream)
        assert algo.state_changes < 0.5 * m

    def test_morris_beats_exact_counters(self):
        n, m = 512, 30000
        stream = zipf_stream(n, m, skew=1.3, seed=7)
        morris = make_algo(n, m, seed=7, epsilon=1.0, use_morris=True)
        exact = make_algo(n, m, seed=7, epsilon=1.0, use_morris=False)
        morris.process_stream(stream)
        exact.process_stream(stream)
        assert morris.state_changes < exact.state_changes

    def test_state_changes_scale_with_sampling_rate(self):
        # Total sampling writes ~ rho*m ~ n^{1/2} log(nm): roughly flat
        # in m.  The 4x-longer stream's ratio averages ~2.9 and reaches
        # 3 on a few percent of seeds, so the bound is on the median
        # ratio over nine seeds.
        n = 1024
        m_small, m_large = 20000, 80000
        ratios = []
        for seed in range(8, 17):
            small = make_algo(n, m_small, seed=seed, epsilon=1.0)
            large = make_algo(n, m_large, seed=seed, epsilon=1.0)
            small.process_stream(uniform_stream(n, m_small, seed=seed))
            large.process_stream(uniform_stream(n, m_large, seed=seed))
            ratios.append(large.state_changes / small.state_changes)
        assert statistics.median(ratios) < 3


class TestQueries:
    def test_unknown_item_estimates_zero(self):
        algo = make_algo(100, 100)
        algo.process_stream([1, 1, 1])
        assert algo.estimate(99) == 0.0

    def test_estimates_dict_matches_point_queries(self):
        n, m = 200, 5000
        algo = make_algo(n, m, seed=9)
        algo.process_stream(zipf_stream(n, m, seed=9))
        for item, value in algo.estimates().items():
            assert algo.estimate(item) == value
