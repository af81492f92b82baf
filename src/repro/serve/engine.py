"""The live serving engine: concurrent ingest + online queries.

Everything before this module was ``Engine.run()`` — ingest a stream
to completion, then query.  :class:`LiveEngine` is the long-lived
counterpart: it owns a serial :class:`~repro.runtime.sharded.
ShardedRunner` and accepts interleaved :meth:`LiveEngine.append` and
:meth:`LiveEngine.query` calls, answering queries from periodic
non-destructive merged snapshots
(:meth:`~repro.runtime.sharded.ShardedRunner.merged_snapshot`) so a
query never observes a half-applied append.

**Snapshot cadence.**  Appends are split at exact multiples of
``snapshot_every``: whenever the global update index crosses a
boundary, the engine cuts, merges and publishes a fresh
:class:`LiveSnapshot` under the ingest lock and notifies every
subscribed collector (:mod:`repro.serve.collectors`).  The merge rides
the runner's memoized merge tree, so a refresh with one dirty shard
out of ``S`` re-clones one leaf and re-merges only that shard's path
to the root — cheap next to the ingest work the lock already covers.
Because the cut points are
update-index-aligned — the same chunk-offset arithmetic the checkpoint
machinery uses — the snapshot taken at index ``k`` is bit-identical to
a fresh batch run over the first ``k`` updates, regardless of how the
appends were sized (``tests/test_live_engine.py`` asserts this for
all 15 families).

**Staleness.**  Queries are answered from the newest snapshot and
tagged with how far it trails the head: a :class:`LiveAnswer` carries
the snapshot's update index, the head index, and the difference
(``updates_behind``).  ``max_staleness=`` bounds the lag per query
(the engine refreshes first when the bound would be violated), and
``refresh=True`` forces an exact-head answer.

**Read path.**  The engine is thread-safe, and reads are designed to
stay off the ingest lock: :meth:`LiveEngine.query`,
:meth:`LiveEngine.queries`, and :meth:`LiveEngine.query_batch` take
the lock only long enough to capture the ``(snapshot, head)`` pair —
refreshing first if a staleness bound demands it — then answer
against the immutable snapshot *outside* the lock, so a slow query
(or a large batch) never stalls concurrent appends.  Answers are
memoized in a snapshot-keyed :class:`_AnswerCache` (key:
``(snapshot_index, query)``; queries are frozen dataclasses, hence
hashable) which is dropped wholesale on every snapshot refresh —
sound because a snapshot's answers are pure deterministic reads.
Batch reads (:class:`~repro.query.MultiPointQuery` via
:meth:`LiveEngine.query_batch`, or point queries inside
:meth:`LiveEngine.queries`) route through the family's vectorized
``query_many`` kernel, bit-identical to the scalar loop.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro import registry
from repro.query import (
    Answer,
    MultiPointQuery,
    PointQuery,
    Query,
    QueryKind,
)
from repro.runtime.sharded import ShardedRunner
from repro.serve.collectors import Collector, QueryCollector
from repro.state.algorithm import Sketch
from repro.state.budget import WriteBudget
from repro.state.report import StateChangeReport
from repro.state.tracker import resolve_tracking
from repro.streams.chunked import as_chunk

#: Default snapshot cadence, aligned with the columnar chunk default.
DEFAULT_SNAPSHOT_EVERY = 8192


@dataclass(frozen=True)
class LiveSnapshot:
    """One consistent cut of the live run.

    Attributes
    ----------
    sketch:
        The merged copy — query it like a batch run's merged sketch;
        it is immutable as far as the engine is concerned (later
        appends go to the live shards, never to a snapshot).
    update_index:
        Stream position of the cut: the snapshot summarizes exactly
        the first ``update_index`` updates.
    """

    sketch: Sketch
    update_index: int

    @cached_property
    def report(self) -> StateChangeReport:
        """The combined state-change audit at the cut.

        Computed lazily on first access and cached on the instance
        (``cached_property`` writes ``__dict__`` directly, bypassing
        the frozen ``__setattr__``), so cadence refreshes that nobody
        audits never pay for report construction.
        """
        return self.sketch.report()

    def answer(self, query: Query) -> Answer:
        """Answer a typed query against this cut."""
        return self.sketch.query(query)

    def answer_many(self, query: MultiPointQuery) -> tuple[Answer, ...]:
        """Answer a batch of point queries against this cut through
        the family's vectorized kernel (bit-identical to a loop of
        :meth:`answer` calls over ``PointQuery(item)``)."""
        return self.sketch.query_many(query)


@dataclass(frozen=True)
class LiveAnswer:
    """A query answer tagged with its staleness metadata.

    ``answer`` came from the snapshot taken at ``snapshot_index``;
    the engine had ingested ``head`` updates when the query ran, so
    the answer trails the stream by ``updates_behind`` updates
    (0 = exact).
    """

    answer: Answer
    snapshot_index: int
    head: int

    @property
    def updates_behind(self) -> int:
        """How many ingested updates the answering snapshot missed."""
        return self.head - self.snapshot_index

    @property
    def kind(self) -> QueryKind:
        """The answered query kind (delegates to the answer)."""
        return self.answer.kind


class _AnswerCache:
    """Snapshot-keyed memo of query answers.

    Keys are ``(snapshot_index, query)`` — every query type is a
    frozen (hence hashable) dataclass, including
    :class:`~repro.query.MultiPointQuery` whose items normalize to a
    tuple.  Sound because answers are pure deterministic reads of an
    immutable snapshot: two snapshots cut at the same update index
    answer identically, so the index alone keys the snapshot.  The
    engine still calls :meth:`clear` on every refresh (cadence or
    forced), keeping the cache from accumulating entries for cuts no
    query will ask about again.

    Bounded by ``capacity`` with FIFO eviction; guarded by its own
    lock so cache traffic never touches the engine's ingest lock.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple[int, Query], object] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple[int, Query]) -> object:
        """The cached answer for ``key``, or ``None`` on a miss."""
        with self._lock:
            found = self._entries.get(key)
            if found is None:
                self.misses += 1
            else:
                self.hits += 1
            return found

    def put(self, key: tuple[int, Query], answer: object) -> None:
        with self._lock:
            if key not in self._entries:
                while len(self._entries) >= self.capacity:
                    self._entries.popitem(last=False)
                self._entries[key] = answer

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class LiveEngine:
    """Long-lived engine: interleaved appends and snapshot-consistent
    queries over a sharded sketch.

    Parameters mirror :class:`~repro.api.Engine` where they overlap —
    one ``seed`` drives the shard factories and the routing hash, so a
    live run is exactly as reproducible as a batch one.

    Parameters
    ----------
    sketch:
        Registry name (see :func:`repro.registry.names`).
    n, m, epsilon, seed:
        Sizing hints and the randomness seed, forwarded to every
        shard's factory.
    shards:
        Ingestion sharding; ``K > 1`` requires a mergeable family
        (snapshots merge shard copies).  The executor is always
        serial — a live engine ingests in-process, where the process
        executor would start and finish a worker pool on every
        append.
    snapshot_every:
        The snapshot cadence in updates.  Appends are split at exact
        multiples, each boundary produces a fresh snapshot and one
        collector sample.
    tracking, budget, budget_split:
        Accounting backend / enforced write budget per
        :meth:`~repro.runtime.sharded.ShardedRunner.from_registry`;
        a live run's budget semantics (freeze/degrade/raise) are
        identical to a batch run's over the same updates.
    chunk_size:
        Columnar routing chunk size (``None``: the stream's own).
    answer_cache:
        Capacity of the snapshot-keyed answer cache (entries); ``0``
        disables caching.  Safe at any size — answers are pure
        deterministic reads of an immutable snapshot, and the cache
        is dropped on every refresh.
    """

    def __init__(
        self,
        sketch: str,
        *,
        n: int = 4096,
        m: int = 65536,
        epsilon: float = 0.5,
        seed: int = 0,
        shards: int = 1,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        tracking: str = "aggregate",
        budget: WriteBudget | int | None = None,
        budget_split: str = "even",
        chunk_size: int | None = None,
        answer_cache: int = 256,
    ) -> None:
        self.spec = registry.spec(sketch)  # raises on unknown names
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1: {snapshot_every}"
            )
        if shards > 1 and not self.spec.mergeable:
            raise ValueError(
                f"{sketch!r} is not mergeable and cannot be sharded; "
                f"mergeable sketches: {registry.mergeable_names()}"
            )
        self.sketch_name = sketch
        self.n = n
        self.seed = seed
        self.shards = shards
        self.snapshot_every = snapshot_every
        self.tracking = resolve_tracking(tracking, budget)
        self._runner = ShardedRunner.from_registry(
            sketch,
            shards,
            n=n,
            m=m,
            epsilon=epsilon,
            seed=seed,
            executor="serial",
            tracking=self.tracking,
            budget=budget,
            budget_split=budget_split,
            chunk_size=chunk_size,
        )
        if answer_cache < 0:
            raise ValueError(
                f"answer_cache must be >= 0: {answer_cache}"
            )
        self._lock = threading.RLock()
        self._ingested = 0
        self._snapshot: LiveSnapshot | None = None
        self._collectors: list[Collector] = []
        self._answer_cache = (
            _AnswerCache(answer_cache) if answer_cache else None
        )
        self._refresh_count = 0
        self._refresh_last_s = 0.0
        self._refresh_total_s = 0.0
        self._refresh_max_s = 0.0
        self._append_calls = 0
        self._append_wait_s = 0.0
        self._append_held_s = 0.0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def head(self) -> int:
        """Updates ingested so far (the stream position)."""
        return self._ingested

    @property
    def snapshot_index(self) -> int:
        """Stream position of the newest snapshot (0 before any)."""
        snapshot = self._snapshot
        return 0 if snapshot is None else snapshot.update_index

    @property
    def updates_behind(self) -> int:
        """How far the newest snapshot trails the head."""
        return self._ingested - self.snapshot_index

    @property
    def snapshots_taken(self) -> int:
        """Merged snapshots built so far (cadence + forced)."""
        return self._refresh_count

    @property
    def collectors(self) -> tuple[Collector, ...]:
        """The registered subscriptions."""
        return tuple(self._collectors)

    @property
    def answer_cache(self) -> _AnswerCache | None:
        """The snapshot-keyed answer cache (``None`` when disabled)."""
        return self._answer_cache

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, collector: Collector) -> Collector:
        """Register a collector; it samples every snapshot from now on.

        Returns the collector for chaining
        (``series = engine.subscribe(StateChangesCollector()).series``).
        """
        with self._lock:
            self._collectors.append(collector)
        return collector

    def subscribe_query(self, query: Query) -> QueryCollector:
        """Shorthand: subscribe a :class:`QueryCollector` for ``query``."""
        collector = QueryCollector(query)
        self.subscribe(collector)
        return collector

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def append(self, items: Iterable[int] | np.ndarray) -> int:
        """Ingest a batch of updates; returns the number consumed.

        The batch is routed through the sharded columnar data plane,
        split at snapshot-cadence boundaries: crossing a boundary cuts
        the snapshot at exactly that update index and notifies the
        collectors, so the cut points — and therefore every collector
        series — are independent of how callers size their appends.
        """
        chunks = getattr(items, "chunks", None)
        if chunks is not None:
            pieces: Iterable[np.ndarray] = chunks()
        elif isinstance(items, np.ndarray):
            pieces = (items,)
        else:
            pieces = (np.asarray(list(items), dtype=np.int64),)
        count = 0
        entered = time.perf_counter()
        with self._lock:
            acquired = time.perf_counter()
            for piece in pieces:
                piece = as_chunk(piece)
                position = 0
                while position < len(piece):
                    boundary = self.snapshot_every - (
                        self._ingested % self.snapshot_every
                    )
                    take = min(len(piece) - position, boundary)
                    segment = piece[position:position + take]
                    ingested = self._runner.ingest(segment)
                    self._ingested += ingested
                    count += ingested
                    position += take
                    if self._ingested % self.snapshot_every == 0:
                        self._refresh(notify=True)
            self._append_calls += 1
            self._append_wait_s += acquired - entered
            self._append_held_s += time.perf_counter() - acquired
        return count

    def finish(self) -> LiveSnapshot:
        """Take a final head snapshot and give collectors their last
        sample (a partial interval, unless the head sits exactly on a
        cadence boundary — collectors deduplicate that case).

        The engine stays usable: further appends and queries continue
        from the same state.
        """
        with self._lock:
            return self._refresh(notify=True)

    # ------------------------------------------------------------------
    # Snapshots + queries
    # ------------------------------------------------------------------
    def _refresh(self, notify: bool) -> LiveSnapshot:
        """Cut at the head, merge, and publish the new snapshot.

        The caller holds the ingest lock, so the cut, the installed
        snapshot, and the collector notifications all follow stream
        order.
        """
        started = time.perf_counter()
        snapshot = LiveSnapshot(
            sketch=self._runner.merged_snapshot(),
            update_index=self._ingested,
        )
        elapsed = time.perf_counter() - started
        self._refresh_count += 1
        self._refresh_last_s = elapsed
        self._refresh_total_s += elapsed
        self._refresh_max_s = max(self._refresh_max_s, elapsed)
        self._snapshot = snapshot
        if self._answer_cache is not None:
            self._answer_cache.clear()
        if notify:
            for collector in self._collectors:
                collector.on_snapshot(snapshot)
        return snapshot

    def snapshot(self, refresh: bool = False) -> LiveSnapshot:
        """The newest consistent cut (``refresh=True``: cut at head).

        The first call on a pristine engine materializes the empty
        snapshot at index 0.  Forced refreshes update what queries
        answer from but do **not** feed collector series — those
        sample on the cadence only, so forcing a snapshot never skews
        a subscription's time axis.
        """
        with self._lock:
            snapshot = self._snapshot
            if snapshot is None or (
                refresh and snapshot.update_index < self._ingested
            ):
                snapshot = self._refresh(notify=False)
            return snapshot

    def _current_cut(
        self,
        *,
        refresh: bool = False,
        max_staleness: int | None = None,
    ) -> tuple[LiveSnapshot, int]:
        """The ``(snapshot, head)`` pair every read answers from.

        The ingest lock is held just long enough to capture a
        consistent pair — refreshing first when the staleness bound
        demands a fresher cut.  The answering happens outside the
        lock, against the immutable snapshot.
        """
        if max_staleness is not None and max_staleness < 0:
            raise ValueError(
                f"max_staleness must be >= 0: {max_staleness}"
            )
        with self._lock:
            snapshot = self._snapshot
            head = self._ingested
            if (
                snapshot is None
                or refresh
                and snapshot.update_index < head
                or max_staleness is not None
                and head - snapshot.update_index > max_staleness
            ):
                snapshot = self._refresh(notify=False)
        return snapshot, head

    def _answer_cached(self, snapshot: LiveSnapshot, query: Query):
        """Answer ``query`` against ``snapshot`` through the answer
        cache (when enabled); runs outside the ingest lock."""
        cache = self._answer_cache
        if cache is None:
            if isinstance(query, MultiPointQuery):
                return snapshot.answer_many(query)
            return snapshot.answer(query)
        key = (snapshot.update_index, query)
        found = cache.get(key)
        if found is None:
            if isinstance(query, MultiPointQuery):
                found = snapshot.answer_many(query)
            else:
                found = snapshot.answer(query)
            cache.put(key, found)
        return found

    def query(
        self,
        query: Query,
        *,
        refresh: bool = False,
        max_staleness: int | None = None,
    ) -> LiveAnswer:
        """Answer a typed query from the newest snapshot.

        ``max_staleness=k`` guarantees the answer trails the head by
        at most ``k`` updates, refreshing the snapshot first if the
        standing one is older; ``refresh=True`` is ``max_staleness=0``.
        The default answers from whatever snapshot exists — the lock
        is held only to capture the snapshot reference, the answer is
        computed off-lock (and memoized per ``(snapshot_index,
        query)``), so queries never stall a concurrent append.
        """
        snapshot, head = self._current_cut(
            refresh=refresh, max_staleness=max_staleness
        )
        return LiveAnswer(
            answer=self._answer_cached(snapshot, query),
            snapshot_index=snapshot.update_index,
            head=head,
        )

    def queries(
        self, qs: Sequence[Query], **kwargs
    ) -> tuple[LiveAnswer, ...]:
        """Answer several queries against one consistent snapshot.

        The snapshot is captured **once** under the lock and every
        query answers from that same cut off-lock, so the batch is
        one consistent read (and never holds up concurrent appends —
        earlier revisions answered item-by-item inside the lock).
        Point queries that miss the cache are batched through the
        family's vectorized ``query_many`` kernel; answers are
        bit-identical to a loop of :meth:`query` calls, and every
        returned :class:`LiveAnswer` carries the same
        ``(snapshot_index, head)`` pair.
        """
        qs = tuple(qs)
        snapshot, head = self._current_cut(**kwargs)
        answers = self._answer_batch(snapshot, qs)
        return tuple(
            LiveAnswer(
                answer=answer,
                snapshot_index=snapshot.update_index,
                head=head,
            )
            for answer in answers
        )

    def query_batch(
        self, items: Iterable[int], **kwargs
    ) -> tuple[LiveAnswer, ...]:
        """Batch point queries against one consistent snapshot.

        Shorthand for :meth:`queries` over ``PointQuery(item)`` —
        but the whole batch is one :class:`~repro.query.
        MultiPointQuery` through the vectorized kernel and one answer
        cache entry (the query's items tuple is its cache identity).
        """
        query = MultiPointQuery(tuple(items))
        snapshot, head = self._current_cut(**kwargs)
        answers = self._answer_cached(snapshot, query)
        return tuple(
            LiveAnswer(
                answer=answer,
                snapshot_index=snapshot.update_index,
                head=head,
            )
            for answer in answers
        )

    def _answer_batch(
        self, snapshot: LiveSnapshot, qs: Sequence[Query]
    ) -> list[Answer]:
        """Answer ``qs`` against one snapshot, off-lock.

        Cache hits are served directly; point-query misses are
        gathered into one :class:`~repro.query.MultiPointQuery`
        through the family's kernel (when the family declares POINT);
        everything else answers through the scalar path.  Each
        individual answer lands in the cache under its own query key,
        so a later scalar :meth:`query` for the same item hits.
        """
        answers: list[Answer | None] = [None] * len(qs)
        point_at: list[int] = []
        point_items: list[int] = []
        batchable = QueryKind.POINT in snapshot.sketch.supports
        cache = self._answer_cache
        for position, query in enumerate(qs):
            if cache is not None:
                key = (snapshot.update_index, query)
                found = cache.get(key)
                if found is not None:
                    answers[position] = found
                    continue
            if batchable and isinstance(query, PointQuery):
                point_at.append(position)
                point_items.append(query.item)
                continue
            if isinstance(query, MultiPointQuery):
                answer = snapshot.answer_many(query)
            else:
                answer = snapshot.answer(query)
            if cache is not None:
                cache.put((snapshot.update_index, query), answer)
            answers[position] = answer
        if point_at:
            batch = snapshot.answer_many(
                MultiPointQuery(tuple(point_items))
            )
            for position, answer in zip(point_at, batch):
                answers[position] = answer
                if cache is not None:
                    cache.put(
                        (snapshot.update_index, qs[position]), answer
                    )
        return answers

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    @property
    def supports(self) -> frozenset[QueryKind]:
        """Query kinds the configured sketch declares."""
        return self.spec.supports

    def stats(self) -> dict:
        """Serving + snapshot-refresh metrics, one flat dict.

        Engine-side: refresh timings (``refresh_last_ms`` /
        ``refresh_mean_ms`` / ``refresh_max_ms`` over
        ``refresh_count`` cut-and-merge refreshes; ``snapshots_taken``
        is the same count) and append-path lock
        accounting (``append_lock_wait_ms`` is total time appends spent
        waiting to *enter* the ingest lock; ``append_lock_held_ms`` is
        total time spent inside it, cadence refreshes included).
        Runner-side (``snapshot_*``): the memoized merge-tree counters
        — leaves cloned vs reused and internal nodes built vs reused.
        """
        with self._lock:
            refresh_count = self._refresh_count
            mean_ms = (
                self._refresh_total_s / refresh_count * 1000.0
                if refresh_count
                else 0.0
            )
            data = {
                "head": self._ingested,
                "snapshot_index": self.snapshot_index,
                "snapshots_taken": refresh_count,
                "refresh_count": refresh_count,
                "refresh_last_ms": self._refresh_last_s * 1000.0,
                "refresh_mean_ms": mean_ms,
                "refresh_max_ms": self._refresh_max_s * 1000.0,
                "append_calls": self._append_calls,
                "append_lock_wait_ms": self._append_wait_s * 1000.0,
                "append_lock_held_ms": self._append_held_s * 1000.0,
            }
        for name, value in self._runner.snapshot_stats().items():
            data[f"snapshot_{name}"] = value
        return data

    def summary(self) -> str:
        """One-line human-readable serving status."""
        return (
            f"{self.sketch_name}: head={self._ingested} "
            f"snapshot@{self.snapshot_index} "
            f"(behind={self.updates_behind}, "
            f"cadence={self.snapshot_every}) "
            f"shards={self.shards} "
            f"collectors={len(self._collectors)}"
        )
