"""Tests for the experiment harness (small parameterizations)."""

import math
import random

import pytest

from repro import registry
from repro.core.entropy import entropy_nodes
from repro.core.fp_estimation import LevelSets
from repro.experiments import (
    budget_advantage_curve,
    counter_ablation,
    eviction_ablation,
    format_budget_curve,
    format_counter_ablation,
    format_eviction_ablation,
    format_morris_tradeoff,
    format_nvm_wear,
    format_table1,
    heavy_hitter_scaling,
    loglog_slope,
    morris_tradeoff,
    nvm_wear_comparison,
    run_table1,
)
from repro.experiments.accuracy import (
    entropy_accuracy,
    exact_entropy,
    fp_accuracy,
    level_set_estimate,
)
from repro.streams import FrequencyVector, zipf_stream


class TestLogLogSlope:
    def test_exact_power_law(self):
        xs = [10, 100, 1000]
        ys = [x**0.7 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(0.7)

    def test_constant_is_slope_zero(self):
        assert loglog_slope([1, 10, 100], [5, 5, 5]) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([1], [2])
        with pytest.raises(ValueError):
            loglog_slope([1, 2], [3])


class TestTable1:
    def test_ours_beats_baselines(self):
        rows = run_table1(n=2**12, m=2**15, seed=0)
        by_name = {row.algorithm: row for row in rows}
        ours = next(v for k, v in by_name.items() if "this paper" in k)
        for name, row in by_name.items():
            if "this paper" not in name:
                assert row.state_changes >= 0.99 * 2**15
                assert ours.state_changes < row.state_changes

    def test_format_contains_all_rows(self):
        rows = run_table1(n=2**10, m=2**12, seed=1)
        text = format_table1(rows, 2**10, 2**12)
        for row in rows:
            assert row.algorithm in text


class TestScaling:
    def test_heavy_hitter_scaling_result_shape(self):
        result = heavy_hitter_scaling(
            p=2.0, ns=(2**9, 2**11, 2**13), seed=0
        )
        assert len(result.state_changes) == 3
        assert result.theory_slope == pytest.approx(0.5)
        assert "slope" in result.format("E1")

    def test_state_changes_increase_with_n(self):
        result = heavy_hitter_scaling(
            p=2.0, ns=(2**9, 2**13), seed=1
        )
        assert result.state_changes[1] > result.state_changes[0]


class TestMorrisTradeoff:
    def test_monotone_tradeoff(self):
        rows = morris_tradeoff(count=20000, a_values=(0.5, 0.03), trials=4)
        coarse, fine = rows
        assert coarse.mean_state_changes < fine.mean_state_changes
        assert coarse.mean_rel_error > fine.mean_rel_error

    def test_format(self):
        rows = morris_tradeoff(count=1000, a_values=(0.5,), trials=2)
        assert "Morris" in format_morris_tradeoff(rows)

    @pytest.mark.parametrize("a", [0.5, 0.03])
    def test_state_changes_are_the_trial_level(self, a):
        """One trial's state changes, read from its tracker, are the
        level its row climbed: the level the estimate inverts to."""
        (row,) = morris_tradeoff(count=5000, a_values=(a,), trials=1, seed=3)
        estimate = row.count * (1 + row.signed_mean_rel_error)
        level = math.log1p(a * estimate) / math.log1p(a)
        assert row.mean_state_changes == round(level)
        assert level == pytest.approx(round(level), abs=1e-6)
        assert row.mean_rel_error == abs(row.signed_mean_rel_error)

    def test_one_trial_has_no_sd(self):
        (row,) = morris_tradeoff(count=100, a_values=(0.5,), trials=1)
        assert math.isnan(row.sd_rel_error)

    def test_trials_follow_the_seed(self):
        """Equal seeds repeat every row; the trials of one seed and
        those of another count on different coins."""
        first = morris_tradeoff(count=3000, a_values=(0.03,), trials=6, seed=7)
        assert morris_tradeoff(count=3000, a_values=(0.03,), trials=6, seed=7) == first
        (row,) = first
        assert row.sd_rel_error > 0
        (other,) = morris_tradeoff(count=3000, a_values=(0.03,), trials=6, seed=8)
        assert other.signed_mean_rel_error != row.signed_mean_rel_error


class TestOracleArms:
    """E3's and E6's oracle arms (the ``exact`` family's counts through
    the estimators' own steps) equal what the estimators' former
    ``backend="oracle"`` modes gave on the bench configurations."""

    def test_e3_level_sets_on_exact_counts(self):
        pinned = {100: 7086278.0, 101: 7477199.0, 102: 6721403.0}
        for t, (seed, expected) in enumerate(pinned.items()):
            exact = registry.create("exact")
            exact.process_stream(zipf_stream(1024, 8192, skew=1.3, seed=t))
            levels = LevelSets(1024, 8192, 2.0, 0.5, random.Random(seed), 3)
            assert level_set_estimate(levels, exact.estimates()) == expected

    def test_e6_interpolation_on_exact_moments(self):
        pinned = {100: 3.8007839458206583, 101: 3.803831077169873}
        nodes = entropy_nodes(4000, epsilon=0.25, k=2, node_width=0.4)
        for t, (seed, expected) in enumerate(pinned.items()):
            exact = registry.create("exact")
            exact.process_stream(zipf_stream(256, 4000, skew=1.5, seed=t))
            assert exact_entropy(exact, nodes, seed) == expected

    def test_e3_oracle_arm(self):
        """One trial of the arm is the seed-100 pin's error."""
        stream = zipf_stream(1024, 8192, skew=1.3, seed=0)
        truth = FrequencyVector.from_stream(stream).fp_moment(2.0)
        stats = fp_accuracy(trials=1, backend="oracle")
        assert stats.max_rel_error == abs(7086278.0 - truth) / truth

    def test_e6_oracle_arm(self):
        """One trial of the arm is the seed-100 pin's error."""
        stream = zipf_stream(256, 4000, skew=1.5, seed=0)
        truth = FrequencyVector.from_stream(stream).shannon_entropy()
        stats = entropy_accuracy(m=4000, trials=1, backend="oracle")
        assert stats.max_rel_error == abs(3.8007839458206583 - truth)

    @pytest.mark.parametrize("arm", [fp_accuracy, entropy_accuracy])
    def test_unknown_backend_raises(self, arm):
        with pytest.raises(ValueError, match="unknown backend: 'count'"):
            arm(trials=1, backend="count")


class TestLowerBoundCurve:
    def test_advantage_increases_with_budget(self):
        points = budget_advantage_curve(
            n=1024, p=2.0, budget_factors=(0.125, 8.0), trials=10, seed=0
        )
        assert points[1].accuracy > points[0].accuracy
        assert "lower-bound" in format_budget_curve(points, 1024, 2.0)


class TestAblations:
    def test_counter_ablation_tradeoff(self):
        rows = counter_ablation(n=512, m=10000, trials=2, seed=0)
        by_kind = {row.counter_kind: row for row in rows}
        assert (
            by_kind["morris"].mean_state_changes
            < by_kind["exact"].mean_state_changes
        )
        assert by_kind["exact"].mean_heavy_rel_error <= 0.01
        assert "A1" in format_counter_ablation(rows)

    def test_eviction_ablation_separates_policies(self):
        rows = eviction_ablation(trials=3, seed=0)
        by_policy = {row.policy: row for row in rows}
        paper = by_policy["age-bucketed (paper)"]
        naive = by_policy["global smallest (naive)"]
        assert paper.detection_rate > naive.detection_rate
        assert paper.mean_heavy_estimate > naive.mean_heavy_estimate
        assert "A2" in format_eviction_ablation(rows)

    def test_nvm_wear_comparison(self):
        rows = nvm_wear_comparison(n=512, m=2048, seed=0)
        assert any("FullSampleAndHold" in row.algorithm for row in rows)
        leveled = [r for r in rows if r.wear_policy == "round-robin"]
        direct = [r for r in rows if r.wear_policy == "none"]
        # Leveling never hurts the lifetime.
        for lev, dir_ in zip(leveled, direct):
            assert lev.lifetime_workloads >= dir_.lifetime_workloads
        assert "A3" in format_nvm_wear(rows)


class TestAmplifiedCounterexample:
    def test_structure(self):
        from repro.streams.adversarial import amplified_counterexample
        from repro.streams import FrequencyVector

        inst = amplified_counterexample(seed=0)
        f = FrequencyVector.from_stream(inst.stream)
        assert f[inst.heavy_item] == inst.heavy_frequency
        for item in inst.pseudo_heavy_items:
            assert f[item] == inst.pseudo_heavy_frequency
        assert inst.heavy_frequency > inst.pseudo_heavy_frequency

    def test_validation(self):
        from repro.streams.adversarial import amplified_counterexample

        with pytest.raises(ValueError):
            amplified_counterexample(num_pseudo=0)
        with pytest.raises(ValueError):
            amplified_counterexample(heavy_frequency=10, pseudo_frequency=60)
        with pytest.raises(ValueError):
            amplified_counterexample(trickle_gap=0)


class TestShardScaling:
    """The sharded-ingestion experiment across both query shapes."""

    def test_frequency_sketch_lossless_across_shards(self):
        from repro.experiments import shard_scaling

        rows = shard_scaling(
            "count-min", shard_counts=(1, 2, 4), n=256, m=2048,
            epsilon=0.2, seed=3,
        )
        for row in rows:
            assert row.max_dev_from_single == 0.0
            assert row.state_changes == row.sum_shard_state_changes

    @pytest.mark.parametrize("name", ["kmv", "pstable-fp"])
    def test_aggregate_estimator_sketches_supported(self, name):
        # Regression: sketches without per-item estimate(item) (AMS,
        # KMV, p-stable Fp) are scored on their scalar estimate and
        # must not crash the experiment.
        from repro.experiments import shard_scaling

        rows = shard_scaling(
            name, shard_counts=(1, 2), n=256, m=2048,
            epsilon=0.3, seed=4,
        )
        assert len(rows) == 2
        for row in rows:
            assert row.mean_abs_error >= 0.0
            assert row.state_changes == row.sum_shard_state_changes

    def test_kmv_merge_matches_single_instance(self):
        from repro.experiments import shard_scaling

        rows = shard_scaling(
            "kmv", shard_counts=(1, 4), n=512, m=4096,
            epsilon=0.3, seed=5,
        )
        # Same hash on every shard: the merged k smallest values of
        # the union equal the single instance's, so F0 agrees exactly.
        assert rows[-1].max_dev_from_single == 0.0
