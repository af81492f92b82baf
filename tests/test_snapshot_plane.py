"""The incremental snapshot plane: memoized merge tree, clone protocol,
serving refresh.

The non-negotiable contract under test: an **incremental** snapshot
(memoized merge tree over ``Sketch.clone()`` leaf copies) is
bit-identical — payload, answers, audit — to the **reference
rebuild** (:func:`reference_snapshot`: serialization-round-trip copies
of every shard, reduced from scratch) and to a **fresh batch run**
over the same stream prefix.  Hypothesis sweeps
the equivalence over every mergeable family, the randomized families'
coins, all tracker backends including budget
freeze/degrade, and checkpoint-resumed runners.

Alongside the equivalence sweep: the epoch-keyed cache invalidation
rules (ingest dirties exactly the touched leaves; ``merge()`` and the
failure latch drop everything), the clone protocol's round-trip
identity, the engine's lazy snapshot reports and refresh metrics, and
the server's in-band RuntimeError answers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.query import AllEstimates, PointQuery
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.sharded import ShardedRunner
from repro.serve.collectors import StateChangesCollector
from repro.serve.engine import LiveEngine
from repro.serve.server import LiveSession
from repro.state.algorithm import Sketch
from repro.state.budget import WriteBudget, WriteBudgetExceededError
from repro.state.tracker import make_tracker
from repro.streams.generators import _zipf_draws

N = 64  # universe for generated streams
SHARDS = 4

MERGEABLE = sorted(registry.mergeable_names())
#: Mergeable families whose merge/ingest flips coins.
RANDOMIZED = ("count-min-morris", "pstable-fp")

streams = st.lists(st.integers(0, N - 1), max_size=40)


def make_runner(name: str, **kwargs) -> ShardedRunner:
    """A small sharded runner."""
    return ShardedRunner.from_registry(
        name, SHARDS, n=N, m=512, epsilon=1.0, seed=7, **kwargs
    )


def reference_snapshot(runner: ShardedRunner) -> Sketch:
    """The test oracle for :meth:`ShardedRunner.merged_snapshot`: a
    ``from_state(to_state())`` round trip of every shard, reduced from
    scratch by a pairwise merge tree whose odd node is carried up
    unmerged — no clones, no caches, no shared code with the runner's
    snapshot plane."""
    level = [
        type(shard).from_state(shard.to_state()) for shard in runner.shards
    ]
    while len(level) > 1:
        paired = [
            level[i].merge(level[i + 1]) for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def assert_matches_reference(*runners: ShardedRunner) -> None:
    """Every runner's memoized snapshot equals its own reference
    rebuild, and all runners agree with each other."""
    expected = reference_snapshot(runners[0]).to_state()
    for runner in runners:
        assert runner.merged_snapshot().to_state() == expected
        assert reference_snapshot(runner).to_state() == expected


# ----------------------------------------------------------------------
# The equivalence sweep: incremental == reference == fresh batch run
# ----------------------------------------------------------------------
class TestIncrementalEqualsReference:
    @pytest.mark.parametrize("name", MERGEABLE)
    @pytest.mark.parametrize("tracking", ["aggregate", "trace"])
    @given(first=streams, second=streams)
    @settings(max_examples=8, deadline=None)
    def test_two_phase_identity(self, name, tracking, first, second):
        """Snapshot at two cut points; the memoized second snapshot
        (which reuses clean leaves and tree nodes) must match both the
        reference rebuild and a fresh runner that ingested the whole
        prefix in one go."""
        incremental = make_runner(name, tracking=tracking)
        incremental.ingest(first)
        assert_matches_reference(incremental)
        incremental.ingest(second)
        fresh = make_runner(name, tracking=tracking)
        fresh.ingest(first + second)
        assert_matches_reference(incremental, fresh)
        # The incremental plane actually memoized: the first snapshot
        # cloned every leaf, and the second reused what stayed clean.
        stats = incremental.snapshot_stats()
        assert stats["leaves_cloned"] >= SHARDS
        assert stats["cuts_taken"] == 2

    @pytest.mark.parametrize("name", RANDOMIZED)
    @given(first=streams, second=streams)
    @settings(max_examples=6, deadline=None)
    def test_randomized_families(self, name, first, second):
        """The randomized families stay bit-identical, coin positions
        included."""
        incremental = make_runner(name)
        incremental.ingest(first)
        assert_matches_reference(incremental)
        incremental.ingest(second)
        assert_matches_reference(incremental)

    @pytest.mark.parametrize("policy", ["freeze", "degrade"])
    @given(first=streams, second=streams)
    @settings(max_examples=8, deadline=None)
    def test_budget_backends(self, policy, first, second):
        """Budget trackers (including denial-streak state under
        freeze/degrade) survive the memoized path bit-for-bit."""
        budget = WriteBudget(10, policy)
        incremental = make_runner("misra-gries", budget=budget)
        incremental.ingest(first)
        assert_matches_reference(incremental)
        incremental.ingest(second)
        assert_matches_reference(incremental)

    @given(first=streams, second=streams)
    @settings(max_examples=8, deadline=None)
    def test_checkpoint_resumed_runner(self, first, second):
        """Shards checkpointed mid-stream and restored into a new
        runner snapshot identically to the uninterrupted one."""
        original = make_runner("count-min")
        original.ingest(first)
        original.merged_snapshot()  # populate the caches mid-stream
        saved = [Checkpoint.dumps(shard) for shard in original.shards]
        resumed = ShardedRunner(
            lambda i: Checkpoint.loads(saved[i]), SHARDS, seed=7
        )
        original.ingest(second)
        resumed.ingest(second)
        assert_matches_reference(original, resumed)

    def test_repeated_snapshots_are_independent(self):
        """Memoization must never alias: two snapshots of the same
        epoch are distinct objects with equal state."""
        runner = make_runner("count-min")
        runner.ingest(range(200))
        first = runner.merged_snapshot()
        second = runner.merged_snapshot()
        assert first is not second
        assert first.to_state() == second.to_state()
        # Mutating one must not leak into the other (or the cache).
        first.process_many([1, 2, 3])
        assert runner.merged_snapshot().to_state() == second.to_state()


# ----------------------------------------------------------------------
# Clone protocol
# ----------------------------------------------------------------------
class TestCloneProtocol:
    @pytest.mark.parametrize("name", sorted(registry.names()))
    def test_clone_equals_round_trip(self, name):
        """``clone()`` is observably identical to a ``to_state`` /
        ``from_state`` round trip for every registered family —
        including the direct-payload fast paths."""
        sketch = registry.create(name, n=N, m=512, epsilon=1.0, seed=7)
        sketch.process_many(i % N for i in range(300))
        if type(sketch)._config_state is Sketch._config_state:
            pytest.skip(f"{name} has no serialization hooks")
        expected = sketch.to_state()
        dup = sketch.clone()
        assert dup is not sketch
        assert dup.tracker is not sketch.tracker
        assert dup.to_state() == expected
        assert sketch.to_state() == expected  # source untouched

    @pytest.mark.parametrize(
        "name", ["count-min", "misra-gries", "exact"]
    )
    @pytest.mark.parametrize("tracking", ["aggregate", "trace", "budget"])
    def test_clone_is_isolated(self, name, tracking):
        """Updates to a clone never reach the source (registers and
        trackers are fully rebound), on every tracker backend."""
        kwargs = {"tracking": tracking}
        if tracking == "budget":
            kwargs = {"budget": WriteBudget(10_000, "freeze")}
        runner = make_runner(name, **kwargs)
        runner.ingest(range(100))
        shard = runner.shards[0]
        changes_before = shard.report().state_changes
        before = shard.to_state()
        dup = shard.clone()
        dup.process_many([1, 1, 2, 3])
        assert shard.to_state() == before
        assert dup.report().state_changes > changes_before

    @pytest.mark.parametrize(
        "name",
        ["sample-and-hold", "heavy-hitters", "adaptive-sample-and-hold"],
    )
    @pytest.mark.parametrize("tracking", ["aggregate", "trace"])
    def test_sample_and_hold_clone_is_isolated(self, name, tracking):
        """The sample-and-hold families have no state hooks, and their
        leaves share one held-counter table: a clone taken mid-stream
        and fed the rest leaves the source as it was, and ends where an
        uncloned sketch fed the whole stream does."""

        def build():
            return registry.create(
                name, n=HELD_N, m=HELD_M, epsilon=1.0, seed=3,
                tracker=make_tracker(tracking),
            )

        def feed(sketch, low, high):
            for start in range(low, high, 1000):
                sketch.process_chunk(HELD_ARR[start:min(high, start + 1000)])

        source = build()
        feed(source, 0, HELD_M // 2)
        before = held_fingerprint(source)
        dup = source.clone()
        feed(dup, HELD_M // 2, HELD_M)
        assert held_fingerprint(source) == before
        whole = build()
        feed(whole, 0, HELD_M)
        assert held_fingerprint(dup) == held_fingerprint(whole)
        assert held_fingerprint(dup) != before


HELD_N, HELD_M = 512, 8000
HELD_ARR = _zipf_draws(HELD_N, HELD_M, 1.1, 3)


def held_fingerprint(sketch) -> tuple:
    """Audit, per-cell wear and every default answer of a sketch."""
    report = sketch.report()
    answers = tuple(
        repr(sketch.query(query))
        for query in (PointQuery(0), PointQuery(1), AllEstimates())
    )
    return (
        sketch.items_processed,
        report.state_changes,
        report.total_writes,
        report.peak_words,
        report.current_words,
        tuple(sorted(report.cell_writes.items())),
        answers,
    )


# ----------------------------------------------------------------------
# Epoch-keyed cache invalidation
# ----------------------------------------------------------------------
class TestCacheInvalidation:
    def test_clean_shards_reuse_leaves_and_nodes(self):
        runner = make_runner("count-min")
        runner.ingest(range(400))
        runner.merged_snapshot()
        base = runner.snapshot_stats()
        runner.merged_snapshot()  # nothing ingested in between
        stats = runner.snapshot_stats()
        assert stats["leaves_reused"] - base["leaves_reused"] == SHARDS
        assert stats["leaves_cloned"] == base["leaves_cloned"]
        assert stats["nodes_reused"] - base["nodes_reused"] == SHARDS - 1
        assert stats["nodes_built"] == base["nodes_built"]

    def test_dirty_shard_invalidates_its_root_path_only(self):
        runner = make_runner("count-min")
        runner.ingest(range(400))
        runner.merged_snapshot()
        base = runner.snapshot_stats()
        # Drive exactly one shard directly — the derived epoch key
        # must catch mutation outside the runner's delivery paths.
        target = runner.shard_of(5)
        runner.shards[target].process(5)
        merged = runner.merged_snapshot()
        stats = runner.snapshot_stats()
        assert stats["leaves_cloned"] - base["leaves_cloned"] == 1
        assert stats["leaves_reused"] - base["leaves_reused"] == SHARDS - 1
        # One dirty leaf re-merges its path to the root: log2(4) = 2
        # node rebuilds, the sibling subtree is served memoized.
        assert stats["nodes_built"] - base["nodes_built"] == 2
        assert stats["nodes_reused"] - base["nodes_reused"] == 1
        # ... and the snapshot actually saw the update.
        assert merged.to_state() == reference_snapshot(runner).to_state()
        fresh = make_runner("count-min")
        fresh.ingest(range(400))
        fresh.shards[target].process(5)
        assert merged.to_state() == reference_snapshot(fresh).to_state()

    def test_merge_clears_caches_and_latches(self):
        runner = make_runner("count-min")
        runner.ingest(range(100))
        runner.merged_snapshot()
        assert runner._node_cache
        runner.merge()
        assert not runner._node_cache
        assert runner._leaf_cache == [None] * SHARDS
        with pytest.raises(RuntimeError, match="already merged"):
            runner.merged_snapshot()

    def test_failure_latch_clears_caches(self):
        runner = make_runner("count-min")
        runner.ingest(range(100))
        runner.merged_snapshot()
        assert runner._node_cache
        runner._fail(RuntimeError("executor worker died"))
        assert not runner._node_cache
        assert runner._leaf_cache == [None] * SHARDS
        with pytest.raises(RuntimeError):
            runner.merged_snapshot()

    def test_partial_writes_after_budget_raise_stay_identical(self):
        """A serial-mode budget raise does not latch the runner; the
        derived epoch keys pick up the partially-written shards, so
        the memoized snapshot still matches the reference rebuild."""
        runner = make_runner("exact", budget=WriteBudget(40, "raise"))
        runner.ingest(np.arange(8, dtype=np.int64))
        runner.merged_snapshot()
        with pytest.raises(WriteBudgetExceededError):
            # The raise happens mid-chunk inside a shard, leaving no
            # stale routed buffers behind.
            runner.ingest(np.arange(400, dtype=np.int64) % N)
        assert_matches_reference(runner)


# ----------------------------------------------------------------------
# Serving plane: lazy reports, stats, in-band errors
# ----------------------------------------------------------------------
class TestServingPlane:
    def test_snapshot_report_is_lazy_and_cached(self):
        engine = LiveEngine(
            "count-min", n=N, m=4096, shards=2, snapshot_every=512
        )
        engine.append(range(700))
        snapshot = engine.snapshot()
        assert "report" not in snapshot.__dict__  # not built yet
        report = snapshot.report
        assert snapshot.report is report  # cached on first access
        assert report.state_changes == snapshot.sketch.report().state_changes

    def test_collectors_see_lazy_reports(self):
        """The state-changes collector still samples every cadence
        snapshot after reports went lazy."""
        engine = LiveEngine(
            "count-min", n=N, m=4096, shards=2, snapshot_every=256
        )
        collector = engine.subscribe(StateChangesCollector())
        engine.append(range(1000))
        engine.finish()
        indexes = [index for index, _ in collector.series]
        assert indexes == [256, 512, 768, 1000]
        values = [value for _, value in collector.series]
        assert values == sorted(values)  # audit counters are monotone

    def test_engine_stats_fields(self):
        engine = LiveEngine(
            "count-min", n=N, m=4096, shards=4, snapshot_every=256
        )
        engine.append(range(1000))
        engine.finish()
        engine.snapshot(refresh=True)
        stats = engine.stats()
        assert stats["refresh_count"] == stats["snapshots_taken"] > 0
        assert stats["refresh_mean_ms"] > 0.0
        assert stats["refresh_max_ms"] >= stats["refresh_last_ms"] >= 0.0
        assert stats["append_calls"] == 1
        assert stats["append_lock_held_ms"] > 0.0
        assert stats["snapshot_leaves_cloned"] >= 4
        assert "snapshot_mode" not in stats
        assert "snapshot_full_rebuilds" not in stats
        # A head-aligned re-snapshot is served purely from the caches.
        before = engine.stats()
        engine.snapshot(refresh=True)
        after = engine.stats()
        assert after["snapshot_leaves_cloned"] == before["snapshot_leaves_cloned"]
        assert after["snapshot_nodes_built"] == before["snapshot_nodes_built"]

    def test_server_stats_verb_reports_refresh_metrics(self):
        engine = LiveEngine(
            "count-min", n=N, m=4096, shards=2, snapshot_every=256
        )
        session = LiveSession(engine)
        response, alive = session.handle(
            {"op": "append", "items": list(range(600))}
        )
        assert alive and response["ok"]
        response, alive = session.handle({"op": "stats"})
        assert alive and response["ok"]
        for field in (
            "refresh_count",
            "refresh_mean_ms",
            "refresh_max_ms",
            "append_lock_wait_ms",
            "snapshot_nodes_built",
            "snapshot_nodes_reused",
        ):
            assert field in response
        assert response["refresh_count"] >= 2  # two cadence boundaries

    def test_runtime_error_is_answered_in_band(self):
        """A lifecycle violation (snapshotting a merged runner) comes
        back as ``{"ok": false}`` and keeps the session serving."""
        engine = LiveEngine("count-min", n=N, m=4096, shards=2)
        engine.append(range(100))
        engine._runner.merge()  # poison the snapshot plane
        session = LiveSession(engine)
        response, alive = session.handle({"op": "snapshot"})
        assert alive  # the connection survives
        assert response["ok"] is False
        assert "already merged" in response["error"]
        # The session keeps answering verbs that don't need snapshots.
        response, alive = session.handle({"op": "stats"})
        assert alive and response["ok"]

    def test_engine_snapshot_matches_reference_and_batch(self):
        """The engine's published snapshots equal the reference rebuild
        of its runner and a fresh batch run over the same prefix."""
        kwargs = dict(n=N, m=8192, shards=4, snapshot_every=512)
        engine = LiveEngine("misra-gries", **kwargs)
        data = [i % N for i in range(3000)]
        engine.append(data)
        live = engine.finish()
        reference = reference_snapshot(engine._runner)
        assert live.sketch.to_state() == reference.to_state()
        assert live.report == reference.report()
        fresh = ShardedRunner.from_registry(
            "misra-gries", 4, n=N, m=8192, seed=0
        ).run(data)
        assert live.sketch.to_state() == fresh.merged.to_state()
        assert (
            engine.query(PointQuery(3)).answer
            == fresh.merged.query(PointQuery(3))
        )
