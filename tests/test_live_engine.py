"""Tests for the live serving engine and its collectors.

The load-bearing contract: a :class:`~repro.serve.LiveEngine` snapshot
taken mid-stream answers **bit-identically** to a fresh batch run over
the same stream prefix — for every registered family, across
accounting backends and enforced budgets.  Everything else (cadence alignment, staleness
metadata, collector series) builds on that cut-point exactness.
"""

from __future__ import annotations

import json

import pytest

from repro import registry
from repro.query import (
    AllEstimates,
    Distinct,
    Entropy,
    HeavyHitters,
    Moment,
    PointQuery,
    QueryKind,
)
from repro.runtime.sharded import ShardedRunner
from repro.serve import (
    AuditCollector,
    LiveEngine,
    QueryCollector,
    StateChangesCollector,
)
from repro.state import WriteBudget
from repro.state.algorithm import Sketch
from repro.streams import zipf_stream

N, M = 512, 1536
CADENCE = 1024  # the mid-stream cut every consistency test compares at


def _probe_queries(sketch: Sketch) -> list:
    """One query per declared capability (a few points for POINT)."""
    queries = []
    supports = sketch.supports
    if QueryKind.POINT in supports:
        queries.extend(PointQuery(item) for item in (0, 1, 7, 40))
    if QueryKind.ALL_ESTIMATES in supports:
        queries.append(AllEstimates())
    if QueryKind.HEAVY_HITTERS in supports:
        queries.append(HeavyHitters())
    if QueryKind.MOMENT in supports:
        queries.append(Moment())
    if QueryKind.ENTROPY in supports:
        queries.append(Entropy())
    if QueryKind.DISTINCT in supports:
        queries.append(Distinct())
    return queries


def fingerprint(sketch: Sketch) -> str:
    """Everything observable about a sketch, as one comparable string.

    Serializable families compare their full serialized state (payload
    + audit + RNG position); the rest compare their audit and the
    answer to every query kind they declare.
    """
    if type(sketch)._config_state is not Sketch._config_state:
        return json.dumps(sketch.to_state(), sort_keys=True)
    report = sketch.report()
    parts = [
        sketch.items_processed,
        report.state_changes,
        report.total_writes,
        report.peak_words,
        report.current_words,
    ]
    parts.extend(repr(sketch.query(q)) for q in _probe_queries(sketch))
    return repr(parts)


def batch_prefix(
    name: str,
    stream,
    cut: int,
    *,
    shards: int = 1,
    tracking: str = "aggregate",
    budget=None,
) -> Sketch:
    """A fresh batch run over ``stream[:cut]``, merged."""
    runner = ShardedRunner.from_registry(
        name,
        shards,
        n=N,
        m=M,
        epsilon=0.4,
        seed=9,
        tracking=tracking,
        budget=budget,
    )
    runner.ingest(stream[:cut])
    return runner.merge()


class TestSnapshotVsBatchConsistency:
    """Satellite 3: mid-stream snapshots == fresh batch runs, exactly."""

    @pytest.mark.parametrize("name", registry.names())
    def test_all_families(self, name):
        stream = zipf_stream(N, M, skew=1.1, seed=21)
        live = LiveEngine(
            name,
            n=N,
            m=M,
            epsilon=0.4,
            seed=9,
            snapshot_every=CADENCE,
        )
        # Odd-sized appends: cadence boundaries must not care.
        live.append(stream[:700])
        live.append(stream[700:CADENCE + 301])
        snapshot = live.snapshot()
        assert snapshot.update_index == CADENCE
        batch = batch_prefix(name, stream, CADENCE)
        assert fingerprint(snapshot.sketch) == fingerprint(batch), (
            f"{name} snapshot diverged from the batch run over the "
            f"same prefix"
        )
        # The live run keeps going past the cut without issue.
        live.append(stream[CADENCE + 301:])
        assert live.head == M

    @pytest.mark.parametrize("name", ["count-min", "count-min-morris",
                                      "misra-gries", "kmv"])
    def test_sharded_live_engine_matches_sharded_batch(self, name):
        stream = zipf_stream(N, M, skew=1.1, seed=22)
        live = LiveEngine(
            name,
            n=N,
            m=M,
            epsilon=0.4,
            seed=9,
            shards=4,
            snapshot_every=CADENCE,
        )
        live.append(stream[:CADENCE + 99])
        snapshot = live.snapshot()
        batch = batch_prefix(name, stream, CADENCE, shards=4)
        assert fingerprint(snapshot.sketch) == fingerprint(batch)

    @pytest.mark.parametrize("tracking", ["aggregate", "trace"])
    def test_backends_round_trip(self, tracking):
        stream = zipf_stream(N, M, skew=1.1, seed=23)
        for name in ("count-min", "exact", "sample-and-hold"):
            live = LiveEngine(
                name,
                n=N,
                m=M,
                epsilon=0.4,
                seed=9,
                snapshot_every=CADENCE,
                tracking=tracking,
            )
            live.append(stream[:CADENCE + 50])
            batch = batch_prefix(
                name, stream, CADENCE, tracking=tracking
            )
            assert fingerprint(live.snapshot().sketch) == fingerprint(
                batch
            )

    @pytest.mark.parametrize("policy", ["freeze", "degrade"])
    def test_budget_round_trip(self, policy):
        stream = zipf_stream(N, M, skew=1.1, seed=24)
        for name in ("count-min", "exact"):
            budget = WriteBudget(300, policy)
            live = LiveEngine(
                name,
                n=N,
                m=M,
                epsilon=0.4,
                seed=9,
                snapshot_every=CADENCE,
                budget=budget,
            )
            live.append(stream[:CADENCE + 50])
            snapshot = live.snapshot()
            batch = batch_prefix(
                name, stream, CADENCE, budget=WriteBudget(300, policy)
            )
            assert fingerprint(snapshot.sketch) == fingerprint(batch)
            if policy == "freeze":
                # The cap bit: both runs froze at the same count.
                assert snapshot.report.state_changes <= 300


class TestLiveEngineSemantics:
    def test_cadence_snapshots_land_on_exact_boundaries(self):
        engine = LiveEngine("count-min", n=N, seed=1, snapshot_every=200)
        stream = zipf_stream(N, 1000, seed=2)
        # Appends sized to straddle boundaries arbitrarily.
        engine.append(stream[:350])
        assert engine.snapshot_index == 200
        engine.append(stream[350:401])
        assert engine.snapshot_index == 400
        engine.append(stream[401:])
        assert engine.snapshot_index == 1000
        assert engine.head == 1000

    def test_staleness_metadata(self):
        engine = LiveEngine("count-min", n=N, seed=1, snapshot_every=500)
        stream = zipf_stream(N, 800, seed=3)
        engine.append(stream)
        answer = engine.query(PointQuery(0))
        assert answer.snapshot_index == 500
        assert answer.head == 800
        assert answer.updates_behind == 300
        exact = engine.query(PointQuery(0), refresh=True)
        assert exact.updates_behind == 0
        assert exact.snapshot_index == 800

    def test_max_staleness_bounds_the_lag(self):
        engine = LiveEngine("count-min", n=N, seed=1, snapshot_every=500)
        stream = zipf_stream(N, 900, seed=4)
        engine.append(stream)
        assert engine.updates_behind == 400
        bounded = engine.query(PointQuery(0), max_staleness=100)
        assert bounded.updates_behind == 0  # forced a head refresh
        # A follow-up within the bound reuses the fresh snapshot.
        again = engine.query(PointQuery(0), max_staleness=100)
        assert again.snapshot_index == bounded.snapshot_index

    def test_max_staleness_rejects_negative(self):
        engine = LiveEngine("count-min", n=N, seed=1)
        with pytest.raises(ValueError, match="max_staleness"):
            engine.query(PointQuery(0), max_staleness=-1)

    def test_query_before_any_append(self):
        engine = LiveEngine("count-min", n=N, seed=1)
        answer = engine.query(PointQuery(3))
        assert answer.answer.value == 0.0
        assert answer.updates_behind == 0

    def test_unknown_sketch_rejected(self):
        with pytest.raises(KeyError):
            LiveEngine("no-such-sketch")

    def test_non_mergeable_sharding_rejected(self):
        with pytest.raises(ValueError, match="not mergeable"):
            LiveEngine("reservoir", shards=2)

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            LiveEngine("count-min", snapshot_every=0)

    def test_budget_with_trace_tracking_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            LiveEngine("count-min", tracking="trace", budget=100)

    def test_engine_live_shares_configuration(self):
        from repro.api import Engine

        engine = Engine("count-min", n=N, epsilon=0.2, seed=5, shards=2)
        live = engine.live(snapshot_every=256)
        assert live.sketch_name == "count-min"
        assert live.shards == 2
        assert live.snapshot_every == 256
        stream = zipf_stream(N, 600, seed=6)
        live.append(stream)
        report = engine.run(stream[:512], queries=())
        assert (
            live.snapshot().report.state_changes
            == report.audit.state_changes
        )

    def test_summary_mentions_head_and_cadence(self):
        engine = LiveEngine("count-min", n=N, seed=1, snapshot_every=100)
        engine.append(zipf_stream(N, 250, seed=7))
        text = engine.summary()
        assert "head=250" in text
        assert "cadence=100" in text


class TestCollectors:
    def test_state_changes_series_is_monotone_on_cadence(self):
        engine = LiveEngine("count-min", n=N, seed=1, snapshot_every=250)
        collector = engine.subscribe(StateChangesCollector())
        engine.append(zipf_stream(N, 1000, seed=8))
        assert collector.indexes() == [250, 500, 750, 1000]
        values = collector.values()
        assert values == sorted(values)
        assert all(value > 0 for value in values)

    def test_series_is_append_size_invariant(self):
        stream = zipf_stream(N, 1200, seed=9)

        def run(sizes):
            engine = LiveEngine(
                "count-min", n=N, seed=1, snapshot_every=300
            )
            collector = engine.subscribe(StateChangesCollector())
            position = 0
            for size in sizes:
                engine.append(stream[position:position + size])
                position += size
            engine.append(stream[position:])
            engine.finish()
            return collector.series

        assert run([1200]) == run([7, 300, 555, 100, 238])

    def test_query_collector_samples_answers(self):
        engine = LiveEngine("exact", n=N, seed=1, snapshot_every=200)
        collector = engine.subscribe_query(Distinct())
        assert isinstance(collector, QueryCollector)
        engine.append(zipf_stream(N, 600, seed=10))
        assert collector.indexes() == [200, 400, 600]
        assert collector.scalar_values() == sorted(
            collector.scalar_values()
        )

    def test_finish_samples_partial_tail_once(self):
        engine = LiveEngine("count-min", n=N, seed=1, snapshot_every=400)
        collector = engine.subscribe(StateChangesCollector())
        engine.append(zipf_stream(N, 500, seed=11))
        engine.finish()
        assert collector.indexes() == [400, 500]
        # A second finish at the same head must not duplicate samples.
        engine.finish()
        assert collector.indexes() == [400, 500]

    def test_audit_collector_reports_full_audit(self):
        engine = LiveEngine("count-min", n=N, seed=1, snapshot_every=300)
        collector = engine.subscribe(AuditCollector())
        engine.append(zipf_stream(N, 300, seed=12))
        ((index, report),) = collector.series
        assert index == 300
        assert report.stream_length == 300
        assert report.peak_words > 0

    def test_forced_snapshots_do_not_pollute_series(self):
        engine = LiveEngine("count-min", n=N, seed=1, snapshot_every=400)
        collector = engine.subscribe(StateChangesCollector())
        engine.append(zipf_stream(N, 350, seed=13))
        engine.query(PointQuery(0), refresh=True)  # off-cadence cut
        engine.snapshot(refresh=True)
        assert collector.series == []  # cadence never reached

    def test_collector_observe_is_abstract(self):
        from repro.serve import Collector

        class Broken(Collector):
            pass

        engine = LiveEngine("count-min", n=N, seed=1, snapshot_every=10)
        engine.subscribe(Broken())
        with pytest.raises(NotImplementedError):
            engine.append(list(range(10)))


class TestLoadGenerator:
    def test_reports_rates_and_staleness(self):
        from repro.serve import LiveEngine, generate_load

        engine = LiveEngine(
            "count-min", n=N, epsilon=0.2, seed=1, snapshot_every=512
        )
        report = generate_load(
            engine,
            zipf_stream(N, 4096, seed=14),
            append_size=256,
            queries_per_append=4,
        )
        assert report.items == 4096
        assert report.appends == 16
        assert report.queries == 64
        assert report.items_per_s > 0
        assert report.queries_per_s > 0
        assert report.max_staleness < 512 + 256
        assert "queries=64" in report.summary()

    def test_query_mix_validated(self):
        from repro.serve import LiveEngine, generate_load

        engine = LiveEngine("count-min", n=N, seed=1)
        with pytest.raises(ValueError, match="unknown query kind"):
            generate_load(
                engine, [1, 2, 3], query_mix={"bogus": 1.0}
            )

    def test_default_mix_follows_capabilities(self):
        from repro.serve import LiveEngine, default_query_mix

        mix = default_query_mix(LiveEngine("kmv", n=N, seed=1))
        assert mix == {"distinct": 1.0}
        mix = default_query_mix(LiveEngine("count-min", n=N, seed=1))
        assert mix == {"point": 1.0}

    def test_max_staleness_forwarded(self):
        from repro.serve import LiveEngine, generate_load

        engine = LiveEngine(
            "count-min", n=N, seed=1, snapshot_every=10_000
        )
        report = generate_load(
            engine,
            zipf_stream(N, 2000, seed=15),
            append_size=500,
            queries_per_append=2,
            max_staleness=0,
        )
        assert report.max_staleness == 0

    def test_zero_queries_is_pure_ingest(self):
        from repro.serve import LiveEngine, generate_load

        engine = LiveEngine("count-min", n=N, seed=1)
        report = generate_load(
            engine,
            zipf_stream(N, 1000, seed=16),
            append_size=100,
            queries_per_append=0,
        )
        assert report.queries == 0
        assert report.queries_per_s == 0.0
