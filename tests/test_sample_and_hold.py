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

    def test_counter_accuracy_parameterization(self):
        """Held Morris counters get ``a = 2 * eps^2 * delta`` from the
        counter accuracy (Theorem 1.5's Chebyshev parameterization)."""
        params = SampleAndHoldParams.from_problem(
            n=1000, m=1000, p=2, epsilon=0.5, counter_epsilon=0.1, counter_delta=0.1
        )
        assert params.counter_a == pytest.approx(2 * 0.1**2 * 0.1)
        default = SampleAndHoldParams.from_problem(n=1000, m=1000, p=2, epsilon=0.5)
        assert default.counter_a == 0.125

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


def small_params(budget_low, sample_probability=1.0):
    """Hand-sized parameters: every arrival sampled by default, and a
    budget small enough to prune often."""
    return SampleAndHoldParams(
        sample_probability=sample_probability,
        kappa=max(1, budget_low // 2),
        budget_low=budget_low,
        budget_high=budget_low + 1,
        counter_a=0.125,
    )


class TestGlobalEviction:
    """``eviction="global"``, the [EV02]-style rule the A2 ablation
    runs: every prune keeps the globally largest half of the held
    counters, whatever their age."""

    def test_holds_sampled_items(self):
        """A sampled item is held from its next arrival on: exact
        counters count every arrival after the one that sampled it."""
        algo = SampleAndHold(
            small_params(100), use_morris=False, eviction="global", seed=19
        )
        algo.process_stream([4, 4, 4, 5])
        assert algo.estimate(4) == 2.0
        assert algo.estimate(5) == 0.0
        assert algo.num_held == 1

    def test_held_counters_stay_within_budget(self):
        algo = SampleAndHold(
            small_params(10), use_morris=False, eviction="global", seed=20
        )
        for item in [i for i in range(100) for _ in range(2)]:
            algo.process(item)
            assert algo.num_held <= algo.params.budget_high
        assert algo.num_prunes > 10

    def test_prune_keeps_the_globally_largest_half(self):
        """Across every prune, no evicted counter holds more than a
        surviving one (exact counters: a prune moves no count)."""
        n, m = 300, 6000
        algo = SampleAndHold(
            small_params(16), use_morris=False, eviction="global", seed=21
        )
        prunes = 0
        for item in zipf_stream(n, m, skew=1.1, seed=21):
            before = algo.estimates()
            algo.process(item)
            if algo.num_prunes == prunes:
                continue
            prunes = algo.num_prunes
            before[item] = before.get(item, 0.0) + 1.0
            kept = algo.estimates()
            evicted = [before[x] for x in before if x not in kept]
            assert evicted
            assert max(evicted) <= min(kept.values())
        assert prunes >= 10

    def test_large_counter_survives_prunes(self):
        algo = SampleAndHold(
            small_params(4), use_morris=False, eviction="global", seed=21
        )
        algo.process_stream([1] * 10 + [x for i in range(2, 30) for x in (i, i)])
        assert algo.num_prunes >= 10
        assert algo.estimate(1) == 9.0

    def test_sampling_reduces_state_changes(self):
        n, m = 10_000, 20_000
        algo = make_algo(n, m, epsilon=1.0, seed=22, eviction="global")
        assert algo.params.sample_probability < 0.2
        algo.process_stream(uniform_stream(n, m, seed=22))
        assert algo.state_changes < 0.2 * m

    def test_unknown_eviction_policy_raises(self):
        with pytest.raises(ValueError, match="eviction"):
            SampleAndHold(small_params(10), eviction="lru")
