"""Tests for the vectorized batch query plane.

The load-bearing contract: ``query_many`` over a
:class:`~repro.query.MultiPointQuery` is **bit-identical** to a loop
of scalar ``PointQuery`` dispatches — for every registered family,
across tracker backends, and through the serving snapshot path (``query_batch`` /
``queries`` on a :class:`~repro.serve.LiveEngine`).  On top of that
sit the serving-plane guarantees this PR adds: reads answer off the
ingest lock, multi-query reads observe one consistent cut, and the
snapshot-keyed answer cache never changes an answer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.api import Engine
from repro.query import (
    HeavyHitters,
    Moment,
    MultiPointQuery,
    PointQuery,
    QueryKind,
    UnsupportedQueryError,
)
from repro.serve import LiveEngine, LiveSession, generate_load
from repro.serve.engine import _AnswerCache
from repro.state.tracker import make_tracker
from repro.streams import zipf_stream

N, M = 256, 2048

POINT_FAMILIES = sorted(registry.supporting(QueryKind.POINT))
NON_POINT_FAMILIES = sorted(
    set(registry.names()) - set(POINT_FAMILIES)
)


def _build(name, tracking="aggregate"):
    return registry.create(
        name,
        n=N,
        m=M,
        epsilon=0.3,
        seed=11,
        tracker=make_tracker(tracking),
    )


class TestBatchScalarIdentity:
    """``query_many`` == the scalar loop, bit for bit."""

    @pytest.mark.parametrize("name", POINT_FAMILIES)
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_families_match_scalar_loop(self, name, data):
        stream = data.draw(
            st.lists(
                st.integers(0, 80), min_size=1, max_size=400
            ),
            label="stream",
        )
        # Probes mix present, absent, and duplicate items.
        probe = data.draw(
            st.lists(
                st.integers(0, 120), min_size=1, max_size=40
            ),
            label="probe",
        )
        sketch = _build(name)
        sketch.process_many(np.asarray(stream, dtype=np.int64))
        batch = sketch.query_many(MultiPointQuery(probe))
        scalar = tuple(
            sketch.query(PointQuery(item)) for item in probe
        )
        assert batch == scalar

    @pytest.mark.parametrize("name", POINT_FAMILIES)
    @pytest.mark.parametrize("tracking", ["aggregate", "trace"])
    def test_tracker_backends(self, name, tracking):
        stream = zipf_stream(N, M, skew=1.2, seed=4)
        probe = list(range(0, 300, 7))
        sketch = _build(name, tracking=tracking)
        sketch.process_many(stream)
        batch = sketch.query_many(MultiPointQuery(probe))
        scalar = tuple(sketch.query(PointQuery(item)) for item in probe)
        assert batch == scalar

    @pytest.mark.parametrize("name", POINT_FAMILIES)
    def test_large_batch_exercises_kernels(self, name):
        # Batches big enough to clear every small-batch guard, so the
        # vectorized gather (not the scalar fallback) is what answers.
        stream = zipf_stream(N, M, skew=1.4, seed=8)
        probe = [int(item) for item in np.arange(2000) % 500]
        sketch = _build(name)
        sketch.process_many(stream)
        batch = sketch.query_many(MultiPointQuery(probe))
        scalar = tuple(
            sketch.query(PointQuery(item)) for item in probe
        )
        assert batch == scalar

    @pytest.mark.parametrize("name", NON_POINT_FAMILIES)
    def test_non_point_families_raise(self, name):
        sketch = _build(name)
        with pytest.raises(UnsupportedQueryError):
            sketch.query_many(MultiPointQuery((1, 2, 3)))

    def test_empty_batch(self):
        sketch = _build("count-min")
        assert sketch.query_many(MultiPointQuery(())) == ()

    def test_scalar_fallback_path(self):
        # A wide sketch and a tiny batch trips CountMin's guard onto
        # the base-class scalar loop — same answers either way.
        sketch = registry.create("count-min", epsilon=0.001, seed=2)
        sketch.process_many(np.arange(500, dtype=np.int64) % 37)
        probe = [0, 1, 36, 999]
        batch = sketch.query_many(MultiPointQuery(probe))
        assert batch == tuple(
            sketch.query(PointQuery(item)) for item in probe
        )

    def test_engine_facade_delegate(self):
        stream = zipf_stream(N, M, skew=1.3, seed=5)
        engine = Engine("count-sketch", n=N, m=M, epsilon=0.2, seed=5)
        engine.run(stream, queries=[])
        probe = list(range(50))
        assert engine.query_many(
            MultiPointQuery(probe)
        ) == tuple(engine.query(PointQuery(item)) for item in probe)


class TestMultiPointQuery:
    def test_items_normalize_to_python_ints(self):
        q = MultiPointQuery(np.arange(3, dtype=np.int64))
        assert q.items == (0, 1, 2)
        assert all(type(item) is int for item in q.items)

    def test_hashable_and_sized(self):
        a = MultiPointQuery((1, 2, 3))
        b = MultiPointQuery([1, 2, 3])
        assert a == b and hash(a) == hash(b)
        assert len(a) == 3
        assert a.kind is QueryKind.POINT


class TestServeSnapshotPath:
    """Batch reads through the live engine: same cut, same bits."""

    @pytest.mark.parametrize("name", POINT_FAMILIES)
    def test_query_batch_matches_scalar(self, name):
        stream = zipf_stream(N, M, skew=1.2, seed=13)
        engine = LiveEngine(
            name,
            n=N,
            m=M,
            epsilon=0.3,
            seed=11,
            snapshot_every=1024,
        )
        engine.append(stream)
        probe = list(range(0, 200, 3))
        batch = engine.query_batch(probe)
        scalar = [engine.query(PointQuery(item)) for item in probe]
        assert [a.answer for a in batch] == [a.answer for a in scalar]
        # One consistent cut: a single staleness triple.
        assert len({(a.snapshot_index, a.head) for a in batch}) == 1

    def test_queries_batches_point_misses(self):
        engine = LiveEngine(
            "count-min", n=N, m=M, epsilon=0.3, seed=11
        )
        engine.append(zipf_stream(N, M, skew=1.2, seed=13))
        qs = [PointQuery(1), Moment(), PointQuery(2), PointQuery(1)]
        with pytest.raises(UnsupportedQueryError):
            engine.queries(qs)  # count-min has no MOMENT
        qs = [PointQuery(1), PointQuery(2), PointQuery(1)]
        answers = engine.queries(qs)
        assert [a.answer for a in answers] == [
            engine.query(q).answer for q in qs
        ]
        assert len({a.snapshot_index for a in answers}) == 1

    def test_queries_mixed_kinds_share_cut(self):
        engine = LiveEngine(
            "heavy-hitters", n=N, m=M, epsilon=0.2, seed=3
        )
        engine.append([1] * 500 + [2] * 300 + list(range(100, 200)))
        qs = [PointQuery(1), HeavyHitters(), PointQuery(2)]
        answers = engine.queries(qs)
        assert [a.answer for a in answers] == [
            engine.query(q).answer for q in qs
        ]
        assert len({(a.snapshot_index, a.head) for a in answers}) == 1

    def test_off_lock_vs_locked_identity(self):
        # The off-lock read path must answer exactly what an
        # under-the-lock read at equal staleness would have.
        engine = LiveEngine(
            "count-min", n=N, m=M, epsilon=0.3, seed=11
        )
        engine.append(zipf_stream(N, M, skew=1.2, seed=13))
        probe = list(range(64))
        off_lock = engine.query_batch(probe)
        with engine._lock:
            snapshot = engine._snapshot
            locked = [snapshot.answer(PointQuery(i)) for i in probe]
        assert [a.answer for a in off_lock] == locked


class TestOffLockReads:
    """Regression: reads must not hold the ingest lock while
    answering (``queries`` used to re-enter ``query`` under it)."""

    def test_slow_query_does_not_block_append(self):
        engine = LiveEngine(
            "count-min",
            n=N,
            m=M,
            epsilon=0.3,
            seed=1,
            snapshot_every=512,
            answer_cache=0,
        )
        engine.append(list(range(512)))  # snapshot at 512
        snapshot = engine.snapshot()
        entered = threading.Event()
        release = threading.Event()
        original = type(snapshot.sketch).query

        def slow_query(self, q):
            entered.set()
            assert release.wait(timeout=10.0)
            return original(self, q)

        snapshot.sketch.query = slow_query.__get__(snapshot.sketch)
        done = []

        def reader():
            done.append(engine.query(PointQuery(3)))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            assert entered.wait(timeout=10.0)
            # The reader is mid-answer; an append (which takes the
            # ingest lock and refreshes the snapshot) must complete.
            appender = threading.Thread(
                target=engine.append, args=([7] * 600,)
            )
            appender.start()
            appender.join(timeout=10.0)
            assert not appender.is_alive(), (
                "append blocked behind an in-flight query"
            )
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        # The reader answered from the cut it captured, unaffected by
        # the concurrent append.
        assert done[0].snapshot_index == 512
        assert done[0].head == 512

    def test_queries_one_cut_despite_concurrent_append(self):
        engine = LiveEngine(
            "count-min",
            n=N,
            m=M,
            epsilon=0.3,
            seed=1,
            snapshot_every=256,
            answer_cache=0,
        )
        engine.append(list(range(256)))
        snapshot = engine.snapshot()
        original = type(snapshot.sketch).query_many
        appended = []

        def appending_query_many(self, q):
            # An append lands while the batch is being answered; the
            # batch must keep answering from the cut it captured.
            if not appended:
                appended.append(engine.append([1] * 256))
            return original(self, q)

        snapshot.sketch.query_many = appending_query_many.__get__(
            snapshot.sketch
        )
        qs = [PointQuery(1), PointQuery(2), PointQuery(3)]
        answers = engine.queries(qs)
        assert appended == [256]
        assert engine.head == 512
        assert {(a.snapshot_index, a.head) for a in answers} == {
            (256, 256)
        }


class TestAnswerCache:
    def test_hit_returns_same_object(self):
        engine = LiveEngine("count-min", n=N, m=M, epsilon=0.3, seed=1)
        engine.append(list(range(100)))
        first = engine.query(PointQuery(5))
        second = engine.query(PointQuery(5))
        assert first.answer is second.answer
        cache = engine.answer_cache
        assert cache.hits == 1 and cache.misses == 1

    def test_refresh_invalidates(self):
        engine = LiveEngine(
            "count-min",
            n=N,
            m=M,
            epsilon=0.3,
            seed=1,
            snapshot_every=128,
        )
        engine.append(list(range(128)))
        engine.query(PointQuery(5))
        assert len(engine.answer_cache) == 1
        engine.append(list(range(128)))  # cadence refresh
        assert len(engine.answer_cache) == 0
        live = engine.query(PointQuery(5))
        assert live.snapshot_index == 256

    def test_batch_and_scalar_cache_coexist(self):
        engine = LiveEngine("count-min", n=N, m=M, epsilon=0.3, seed=1)
        engine.append(list(range(100)))
        batch = engine.query_batch([1, 2, 3])
        again = engine.query_batch([1, 2, 3])
        # The whole batch is one cache entry, hit on repeat.
        assert [a.answer for a in batch] == [a.answer for a in again]
        assert engine.answer_cache.hits >= 1

    def test_queries_seed_scalar_hits(self):
        engine = LiveEngine("count-min", n=N, m=M, epsilon=0.3, seed=1)
        engine.append(list(range(100)))
        engine.queries([PointQuery(9), PointQuery(10)])
        misses = engine.answer_cache.misses
        engine.query(PointQuery(9))
        assert engine.answer_cache.misses == misses
        assert engine.answer_cache.hits >= 1

    def test_capacity_evicts_fifo(self):
        cache = _AnswerCache(2)
        cache.put((0, PointQuery(1)), "a")
        cache.put((0, PointQuery(2)), "b")
        cache.put((0, PointQuery(3)), "c")
        assert len(cache) == 2
        assert cache.get((0, PointQuery(1))) is None
        assert cache.get((0, PointQuery(3))) == "c"

    def test_disabled_and_invalid(self):
        engine = LiveEngine(
            "count-min", n=N, m=M, epsilon=0.3, seed=1, answer_cache=0
        )
        assert engine.answer_cache is None
        engine.append(list(range(100)))
        cached = LiveEngine(
            "count-min", n=N, m=M, epsilon=0.3, seed=1
        )
        cached.append(list(range(100)))
        # Caching never changes an answer.
        assert (
            engine.query(PointQuery(5)).answer
            == cached.query(PointQuery(5)).answer
        )
        with pytest.raises(ValueError):
            LiveEngine("count-min", answer_cache=-1)
        with pytest.raises(ValueError):
            _AnswerCache(0)


class TestServerQueryBatchVerb:
    @pytest.fixture()
    def session(self):
        engine = LiveEngine(
            "count-min", n=N, m=M, epsilon=0.3, seed=7
        )
        session = LiveSession(engine)
        response, _ = session.handle(
            {"op": "append", "items": list(range(1000))}
        )
        assert response["ok"]
        return session

    def test_matches_scalar_query_verb(self, session):
        items = [1, 2, 999, 1]
        batch, _ = session.handle(
            {"op": "query-batch", "items": items}
        )
        assert batch["ok"]
        scalars = [
            session.handle(
                {"op": "query", "kind": "point", "item": item}
            )[0]
            for item in items
        ]
        assert [a["value"] for a in batch["answers"]] == [
            s["value"] for s in scalars
        ]
        assert {"snapshot_index", "head", "updates_behind"} <= set(
            batch
        )

    def test_empty_and_errors(self, session):
        empty, _ = session.handle({"op": "query-batch", "items": []})
        assert empty["ok"] and empty["answers"] == []
        for bad in (
            {"op": "query-batch"},
            {"op": "query-batch", "items": "nope"},
            {"op": "query-batch", "items": [1, "two"]},
        ):
            response, alive = session.handle(bad)
            assert not response["ok"] and alive

    def test_verb_listed_and_underscore_alias(self, session):
        assert "query-batch" in LiveSession.verbs()
        response, _ = session.handle(
            {"op": "query_batch", "items": [3]}
        )
        assert response["ok"] and len(response["answers"]) == 1

    def test_unsupported_family_errors_cleanly(self):
        session = LiveSession(
            LiveEngine("ams", n=N, m=M, epsilon=0.3, seed=7)
        )
        session.handle({"op": "append", "items": [1, 2, 3]})
        response, alive = session.handle(
            {"op": "query-batch", "items": [1]}
        )
        assert not response["ok"] and alive

    def test_stats_reports_cache(self, session):
        session.handle({"op": "query-batch", "items": [1, 2]})
        stats, _ = session.handle({"op": "stats"})
        cache = stats["answer_cache"]
        assert cache["capacity"] == 256
        assert cache["misses"] >= 1


class TestLoadgenBatchMode:
    def test_batch_answers_same_query_sequence(self):
        stream = zipf_stream(N, M, skew=1.2, seed=6)

        def run(batch_size):
            engine = LiveEngine(
                "count-min",
                n=N,
                m=M,
                epsilon=0.3,
                seed=6,
                snapshot_every=512,
            )
            return generate_load(
                engine,
                stream,
                append_size=512,
                queries_per_append=6,
                batch_size=batch_size,
                seed=2,
            )

        scalar = run(1)
        batched = run(3)
        assert scalar.queries == batched.queries
        assert scalar.mean_staleness == batched.mean_staleness
        assert scalar.max_staleness == batched.max_staleness
        assert batched.batch_size == 3

    def test_batch_size_validation(self):
        engine = LiveEngine("count-min", n=N, m=M, epsilon=0.3, seed=6)
        with pytest.raises(ValueError):
            generate_load(engine, [1, 2, 3], batch_size=0)
