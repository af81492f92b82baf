"""Tests for the sharded batch-ingest runtime and checkpointing."""

from __future__ import annotations

import json

import pytest

from repro import registry
from repro.runtime import Checkpoint, ShardedRunner
from repro.state import NotMergeableError
from repro.streams import zipf_stream

N, M = 2048, 32768


class TestShardedRunner:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_hash_partitioned_count_min_matches_single(self, num_shards):
        stream = zipf_stream(N, M, skew=1.2, seed=1)
        single = registry.create("count-min", n=N, m=M, epsilon=0.05, seed=2)
        single.process_many(stream)
        runner = ShardedRunner.from_registry(
            "count-min", num_shards, n=N, m=M, epsilon=0.05, seed=2
        )
        result = runner.run(stream)
        for item in range(128):
            assert result.merged.estimate(item) == single.estimate(item)
        assert result.merged_report.state_changes == sum(
            report.state_changes for report in result.shard_reports
        )
        assert result.merged_report.stream_length == len(stream)
        assert sum(result.shard_items) == len(stream)

    def test_hash_partition_colocates_items(self):
        runner = ShardedRunner.from_registry("count-min", 4, seed=3)
        for item in range(100):
            assert runner.shard_of(item) == runner.shard_of(item)

    def test_skew_reported_for_hash_partition(self):
        # A single-item stream must land on one shard: maximal skew.
        runner = ShardedRunner.from_registry("count-min", 4, seed=5)
        runner.ingest([7] * 1000)
        assert runner.skew() == pytest.approx(4.0)

    def test_skew_on_degenerate_streams(self):
        # Regression: empty and single-item streams must report a
        # well-defined skew, not divide by zero.
        empty = ShardedRunner.from_registry("count-min", 4, seed=5).run([])
        assert empty.skew == 1.0
        single = ShardedRunner.from_registry("count-min", 4, seed=5).run([9])
        assert single.skew == pytest.approx(4.0)
        assert single.summary()  # skew renders in the summary line

    def test_small_batches_flush_incrementally(self):
        stream = zipf_stream(256, 1000, skew=1.1, seed=6)
        runner = ShardedRunner.from_registry(
            "count-min", 2, n=256, m=1000, seed=6, chunk_size=16
        )
        runner.ingest(iter(stream))  # works on a pure iterator
        assert sum(runner.shard_items) == len(stream)

    def test_ingest_after_merge_rejected(self):
        runner = ShardedRunner.from_registry("count-min", 2, seed=7)
        runner.ingest([1, 2, 3])
        runner.merge()
        with pytest.raises(RuntimeError):
            runner.ingest([4])

    def test_merge_idempotent(self):
        runner = ShardedRunner.from_registry("count-min", 4, seed=8)
        runner.ingest(range(100))
        assert runner.merge() is runner.merge()

    def test_non_mergeable_sketch_rejected(self):
        with pytest.raises(NotMergeableError):
            ShardedRunner.from_registry(
                "sample-and-hold", 2, n=256, m=1024, seed=0
            )

    def test_single_shard_allows_non_mergeable(self):
        runner = ShardedRunner.from_registry(
            "sample-and-hold", 1, n=256, m=1024, seed=0
        )
        runner.ingest(zipf_stream(256, 1024, seed=0))
        assert runner.merge().items_processed == 1024

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ShardedRunner.from_registry("count-min", 0)
        tracker_shared = registry.create("count-min", seed=0)
        with pytest.raises(ValueError):
            ShardedRunner(lambda i: tracker_shared, num_shards=2)


class TestMergedSnapshot:
    def test_snapshot_leaves_shards_ingestable(self):
        stream = zipf_stream(N, 8192, seed=11)
        runner = ShardedRunner.from_registry(
            "count-min", 4, n=N, epsilon=0.1, seed=11
        )
        runner.ingest(stream[:4096])
        snapshot = runner.merged_snapshot()
        assert snapshot.items_processed == 4096
        # The runner keeps ingesting; the snapshot does not move.
        runner.ingest(stream[4096:])
        assert snapshot.items_processed == 4096
        assert sum(runner.shard_items) == 8192

    def test_snapshot_is_bit_identical_to_merge(self):
        import json

        stream = zipf_stream(N, 8192, seed=12)
        runner = ShardedRunner.from_registry(
            "count-min", 4, n=N, epsilon=0.1, seed=12
        )
        runner.ingest(stream)
        snapshot = runner.merged_snapshot()
        merged = runner.merge()
        assert json.dumps(
            snapshot.to_state(), sort_keys=True
        ) == json.dumps(merged.to_state(), sort_keys=True)

    def test_snapshot_matches_fresh_batch_over_prefix(self):
        import json

        stream = zipf_stream(N, 8192, seed=13)
        live = ShardedRunner.from_registry(
            "misra-gries", 2, n=N, epsilon=0.4, seed=13
        )
        live.ingest(stream[:3000])
        snapshot = live.merged_snapshot()
        batch = ShardedRunner.from_registry(
            "misra-gries", 2, n=N, epsilon=0.4, seed=13
        )
        batch.ingest(stream[:3000])
        assert json.dumps(
            snapshot.to_state(), sort_keys=True
        ) == json.dumps(batch.merge().to_state(), sort_keys=True)

    def test_repeated_snapshots_are_independent(self):
        stream = zipf_stream(N, 4096, seed=14)
        runner = ShardedRunner.from_registry("exact", 2, n=N, seed=14)
        runner.ingest(stream[:2048])
        first = runner.merged_snapshot()
        second = runner.merged_snapshot()
        assert first is not second
        assert first.report().state_changes == second.report().state_changes
        runner.ingest(stream[2048:])
        third = runner.merged_snapshot()
        assert third.report().state_changes > first.report().state_changes

    def test_snapshot_does_not_disturb_shard_audits(self):
        stream = zipf_stream(N, 4096, seed=15)
        runner = ShardedRunner.from_registry("count-min", 4, n=N, seed=15)
        runner.ingest(stream)
        before = [r.state_changes for r in runner.shard_reports()]
        runner.merged_snapshot()
        after = [r.state_changes for r in runner.shard_reports()]
        assert before == after

    def test_snapshot_after_merge_rejected(self):
        runner = ShardedRunner.from_registry("count-min", 2, seed=16)
        runner.ingest([1, 2, 3])
        runner.merge()
        with pytest.raises(RuntimeError, match="already merged"):
            runner.merged_snapshot()

    def test_non_serializable_family_snapshots_via_deepcopy(self):
        stream = zipf_stream(N, 2048, seed=17)
        runner = ShardedRunner.from_registry(
            "reservoir", 1, n=N, epsilon=0.5, seed=17
        )
        runner.ingest(stream[:1024])
        snapshot = runner.merged_snapshot()
        held = list(snapshot.sample)
        runner.ingest(stream[1024:])
        # The copy froze the sample at the cut; the live shard moved on.
        assert list(snapshot.sample) == held
        assert snapshot.items_processed == 1024

    @pytest.mark.parametrize("name", registry.mergeable_names())
    def test_process_executor_ingests_again_after_snapshots(self, name):
        # Each process ingest finishes its own pool, so a process
        # runner interleaves ingests with snapshots and reports exactly
        # like a serial one.
        stream = zipf_stream(N, 3072, seed=18).to_array()

        def run(executor):
            runner = ShardedRunner.from_registry(
                name, 2, n=N, m=3072, epsilon=1.0, seed=18,
                executor=executor,
            )
            runner.ingest(stream[:1024])
            snapshot = runner.merged_snapshot()
            runner.ingest(stream[1024:2048])
            reports = runner.shard_reports()
            runner.ingest(stream[2048:])
            merged = runner.merge()
            return (
                snapshot.items_processed,
                json.dumps(snapshot.to_state(), sort_keys=True),
                reports,
                runner.shard_items,
                json.dumps(merged.to_state(), sort_keys=True),
                merged.report(),
            )

        process = run("process")
        assert process[0] == 1024
        assert process == run("serial")

    def test_process_ingest_restores_only_the_shards_it_fed(self):
        runner = ShardedRunner.from_registry(
            "count-min", 4, n=N, seed=19, executor="process"
        )
        runner.ingest(zipf_stream(N, 2048, seed=19))
        runner.merged_snapshot()
        before = runner.shards
        target = runner.shard_of(7)
        runner.ingest([7] * 10)
        after = runner.shards
        for index in range(4):
            assert (after[index] is before[index]) == (index != target)
        assert after[target].items_processed == (
            before[target].items_processed + 10
        )
        stats = runner.snapshot_stats()
        runner.merged_snapshot()
        # Only the fed shard's leaf is cloned again.
        delta = {
            key: runner.snapshot_stats()[key] - stats[key]
            for key in ("leaves_cloned", "leaves_reused")
        }
        assert delta == {"leaves_cloned": 1, "leaves_reused": 3}


class TestCheckpoint:
    def test_file_round_trip(self, tmp_path):
        stream = zipf_stream(512, 4096, skew=1.2, seed=9)
        sketch = registry.create("count-min", n=512, m=4096, seed=10)
        sketch.process_many(stream)
        path = Checkpoint.save(tmp_path / "sketch.json", sketch)
        restored = Checkpoint.load(path)
        assert type(restored) is type(sketch)
        assert restored.report() == sketch.report()
        for item in range(64):
            assert restored.estimate(item) == sketch.estimate(item)

    def test_round_trip_of_merged_shard_run(self, tmp_path):
        stream = zipf_stream(512, 4096, skew=1.2, seed=11)
        result = ShardedRunner.from_registry(
            "misra-gries", 4, n=512, m=4096, epsilon=0.1, seed=12
        ).run(stream)
        path = Checkpoint.save(tmp_path / "merged.json", result.merged)
        restored = Checkpoint.load(path)
        assert restored.report() == result.merged_report
        assert restored.estimates() == result.merged.estimates()

    def test_unknown_class_rejected(self):
        with pytest.raises(KeyError):
            Checkpoint.loads('{"algorithm": "NoSuchSketch"}')


class TestPostMergeObservation:
    def test_shard_reports_stable_after_merge(self):
        # Regression: the reduce folds shard trackers into the merge
        # root; post-merge reports must be the pre-merge snapshots,
        # not double-counted live trackers.
        runner = ShardedRunner.from_registry("count-min", 4, seed=13)
        runner.ingest(range(1000))
        pre = runner.shard_reports()
        merged = runner.merge()
        assert runner.shard_reports() == pre
        assert sum(r.state_changes for r in pre) == (
            merged.report().state_changes
        )
