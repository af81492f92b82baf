"""Tests for Algorithm 2 (FullSampleAndHold)."""

import math
from collections import Counter

import numpy as np
import pytest

from repro import registry
from repro.core import FpEstimator, FullSampleAndHold, HeavyHitters
from repro.query import (
    AllEstimates,
    Moment,
    MultiPointQuery,
    PointQuery,
)
from repro.query import HeavyHitters as HeavyHittersQuery
from repro.streams import (
    FrequencyVector,
    planted_heavy_hitter_stream,
    zipf_stream,
)


class TestConstruction:
    def test_even_repetitions_rounded_up_to_odd(self):
        algo = FullSampleAndHold(n=100, m=100, p=2, epsilon=0.5, repetitions=2)
        assert algo.repetitions == 3

    def test_default_levels_scale_with_m(self):
        small = FullSampleAndHold(n=100, m=100, p=2, epsilon=0.5)
        large = FullSampleAndHold(n=100, m=10000, p=2, epsilon=0.5)
        assert large.num_levels > small.num_levels

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            FullSampleAndHold(n=10, m=10, p=2, epsilon=0.5, repetitions=0)
        with pytest.raises(ValueError):
            FullSampleAndHold(n=10, m=10, p=2, epsilon=0.5, level_rule="avg")


class TestEstimation:
    def test_finds_planted_heavy_hitter(self):
        n, m = 1000, 15000
        stream = planted_heavy_hitter_stream(n, m, {13: 4000}, seed=0)
        algo = FullSampleAndHold(n=n, m=m, p=2, epsilon=0.5, seed=0)
        algo.process_stream(stream)
        estimate = algo.estimate(13)
        assert estimate >= 0.4 * 4000
        assert estimate <= 2.5 * 4000

    def test_light_items_do_not_dominate(self):
        n, m = 1000, 15000
        stream = planted_heavy_hitter_stream(n, m, {13: 4000}, seed=1)
        algo = FullSampleAndHold(n=n, m=m, p=2, epsilon=0.5, seed=1)
        algo.process_stream(stream)
        estimates = algo.estimates()
        heavy = estimates.get(13, 0.0)
        others = [v for k, v in estimates.items() if k != 13]
        assert heavy > 0
        if others:
            assert heavy >= max(others)

    def test_min_length_rule_runs(self):
        n, m = 500, 8000
        stream = planted_heavy_hitter_stream(n, m, {7: 2500}, seed=2)
        algo = FullSampleAndHold(
            n=n, m=m, p=2, epsilon=0.5, seed=2, level_rule="min-length"
        )
        algo.process_stream(stream)
        assert algo.estimate(7) >= 0.3 * 2500

    def test_unknown_item_zero(self):
        algo = FullSampleAndHold(n=100, m=100, p=2, epsilon=0.5, seed=3)
        algo.process_stream([1] * 50)
        assert algo.estimate(77) == 0.0


class TestLevels:
    def test_level_lengths_halve(self):
        n, m = 200, 20000
        algo = FullSampleAndHold(n=n, m=m, p=2, epsilon=0.5, seed=4)
        algo.process_stream(zipf_stream(n, m, seed=4))
        m1 = algo.level_length(1)
        m3 = algo.level_length(3)
        assert m1 == pytest.approx(m, rel=0.35)
        assert m3 == pytest.approx(m / 4, rel=0.6)

    def test_level_length_bounds_checked(self):
        algo = FullSampleAndHold(n=10, m=10, p=2, epsilon=0.5)
        with pytest.raises(ValueError):
            algo.level_length(0)
        with pytest.raises(ValueError):
            algo.level_length(algo.num_levels + 1)


class TestLevelDraw:
    """The level coin -> deepest surviving level map: an update reaches
    level ``x`` with probability ``min(1, 2^{1-x})``."""

    @staticmethod
    def draws(num_levels: int, count: int) -> list[int]:
        grid = FullSampleAndHold(
            n=64, m=256, p=2, epsilon=1.0, repetitions=1,
            num_levels=num_levels, seed=1,
        )
        coins = grid._level_coins[0].uniform_block(0, count).tolist()
        return [grid._deepest_level(u) for u in coins]

    def test_levels_in_range(self):
        assert all(1 <= level <= 9 for level in self.draws(9, 1000))

    def test_geometric_distribution(self):
        draws = self.draws(20, 40000)
        for level in (2, 3, 4):
            reached = sum(draw >= level for draw in draws)
            expected = 40000 * 2.0 ** (1 - level)
            assert abs(reached - expected) < 5 * math.sqrt(expected)

    def test_powers_of_two_are_exact(self):
        # floor(1 - log2(u)) on the boundaries, where a log2 round
        # trip could be one ulp off.
        grid = FullSampleAndHold(
            n=64, m=256, p=2, epsilon=1.0, repetitions=1, num_levels=20
        )
        for k in range(25):
            assert grid._deepest_level(2.0**-k) == min(20, 1 + k)
        assert grid._deepest_level(0.0) == 20


class TestStateChanges:
    def test_sublinear_state_changes_on_long_stream(self):
        n, m = 1024, 50000
        stream = zipf_stream(n, m, skew=1.2, seed=5)
        algo = FullSampleAndHold(n=n, m=m, p=2, epsilon=1.0, seed=5)
        algo.process_stream(stream)
        assert algo.state_changes < 0.8 * m

    def test_one_sidedness_after_rescaling(self):
        """Rescaled estimates stay within a constant factor above truth
        (subsampled counts concentrate; Morris noise adds slack)."""
        n, m = 500, 12000
        stream = planted_heavy_hitter_stream(n, m, {3: 3000, 4: 1500}, seed=6)
        f = FrequencyVector.from_stream(stream)
        algo = FullSampleAndHold(n=n, m=m, p=2, epsilon=0.5, seed=6)
        algo.process_stream(stream)
        for item, fhat in algo.estimates().items():
            if f[item] >= 100:
                assert fhat <= 4.0 * f[item]


class TestEstimateMaps:
    """Estimate maps are built once per stream state and handed out as
    copies: FullSampleAndHold keeps one per (arrival clock, level
    rule); HeavyHitters' median-of-copies map and its estimator's band
    contributions are kept per arrival clock of the estimator."""

    N, M = 256, 3000
    STREAM = zipf_stream(N, M, 1.2, seed=4)
    QUERIES = (
        PointQuery(0),
        PointQuery(1),
        AllEstimates(),
        HeavyHittersQuery(),
        Moment(),
    )
    RULES = (None, "max", "shallowest", "min-length")

    def heavy_hitters(self, items):
        sketch = registry.create("heavy-hitters", n=self.N, m=self.M,
                                 epsilon=0.5, seed=4)
        sketch.process_chunk(np.asarray(items, dtype=np.int64))
        return sketch

    def answers(self, sketch) -> list:
        return [repr(sketch.query(q)) for q in self.QUERIES] + [
            repr(sketch.query_many(MultiPointQuery(tuple(range(40)))))
        ]

    def test_an_unchanged_sketch_builds_each_map_once(self, monkeypatch):
        builds = Counter()
        fsh_build = FullSampleAndHold._build_estimates
        hh_build = HeavyHitters._build_estimates
        fp_build = FpEstimator._build_contributions

        def counting_fsh(self, rule):
            builds[(id(self), rule)] += 1
            return fsh_build(self, rule)

        def counting_hh(self):
            builds["heavy-hitters"] += 1
            return hh_build(self)

        def counting_fp(self):
            builds["contributions"] += 1
            return fp_build(self)

        monkeypatch.setattr(
            FullSampleAndHold, "_build_estimates", counting_fsh
        )
        monkeypatch.setattr(HeavyHitters, "_build_estimates", counting_hh)
        monkeypatch.setattr(FpEstimator, "_build_contributions", counting_fp)
        sketch = self.heavy_hitters(self.STREAM)
        first = self.answers(sketch)
        assert builds and set(builds.values()) == {1}
        assert self.answers(sketch) == first
        assert set(builds.values()) == {1}

    def test_one_more_item_matches_a_fresh_sketch(self):
        """Feed one item at a time past a prefix until the answers move
        (an item can leave every estimate where it was); they must then
        equal a fresh sketch's on the same stream."""
        items = list(self.STREAM)
        start = self.M - 200

        sketch = self.heavy_hitters(items[:start])
        seen = self.answers(sketch)
        for end in range(start + 1, self.M + 1):
            sketch.process_chunk(np.asarray(items[end - 1:end], dtype=np.int64))
            now = self.answers(sketch)
            if now != seen:
                break
        else:
            pytest.fail("no item moved the heavy-hitters answers")
        assert now == self.answers(self.heavy_hitters(items[:end]))

        def grid(stream):
            algo = FullSampleAndHold(n=self.N, m=self.M, p=2, epsilon=0.5, seed=4)
            algo.process_stream(stream)
            return algo

        def estimates(algo):
            return [algo.estimates(rule) for rule in self.RULES]

        algo = grid(items[:start])
        seen = estimates(algo)
        for end in range(start + 1, self.M + 1):
            algo.process(items[end - 1])
            now = estimates(algo)
            if now != seen:
                break
        else:
            pytest.fail("no item moved the FullSampleAndHold estimates")
        assert now == estimates(grid(items[:end]))

    def test_returned_maps_are_copies(self):
        sketch = self.heavy_hitters(self.STREAM)
        grid = FullSampleAndHold(n=self.N, m=self.M, p=2, epsilon=0.5, seed=4)
        grid.process_stream(self.STREAM)
        for algo, calls in (
            (sketch, (sketch.estimates,
                      lambda: sketch.query(AllEstimates()).values,
                      sketch.heavy_hitters)),
            (grid, (grid.estimates,
                    lambda: grid.estimates("max"),
                    lambda: grid.query(AllEstimates()).values)),
        ):
            for call in calls:
                before = dict(call())
                assert before
                mutated = call()
                mutated.clear()
                mutated[-1] = 1.0
                assert call() == before
