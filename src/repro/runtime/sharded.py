"""Sharded batch-ingest runtime over the mergeable sketch protocol.

:class:`ShardedRunner` partitions one logical stream across ``K``
independent sketch shards — each with its own
:class:`~repro.state.tracker.StateTracker` — ingests chunk-wise
through :meth:`~repro.state.algorithm.Sketch.process_chunk`, and
reduces the shards with a binary merge tree.  Because the mergeable
families combine losslessly (linear sketches) or within their summable
error bounds (Misra-Gries/SpaceSaving), the reduced sketch answers
queries like a single instance that saw the whole stream, while the
merged tracker reports the distributed run's aggregate audit (the
elementwise sum of the shard reports).

Routing is by item identity: a pairwise-independent hash of each item
picks its shard, so every occurrence of an item lands on one shard.
That preserves the per-item error bounds of the summary-based families
(a Misra-Gries shard sees *all* of its items' occurrences) and costs
the linear sketches nothing, where merge is exact addition.

Per-shard write budgets: the paper's state-change accounting extends
naturally to shards — each shard's tracker measures its own
``sum_t X_t``, and :attr:`ShardedRunResult.shard_reports` exposes them
so a deployment can bound per-device wear, not just the total.
Budgets are *enforceable*, not just observable:
:meth:`ShardedRunner.from_registry` accepts a
:class:`~repro.state.budget.WriteBudget` plus a split policy —
``"even"`` divides a global limit across the shards (the shard limits
sum to the global one exactly), ``"replicate"`` gives every shard the
full limit (a per-device cap) — and each shard then runs on its own
:class:`~repro.state.tracker.BudgetBackend`.  The ``tracking``
argument picks the accounting backend for unbudgeted runs
(``"aggregate"`` — the fast-path default — or ``"trace"`` for
per-cell wear histograms).

Ingestion is always columnar: every input is routed chunk-wise — one
vectorized routing hash per chunk, boolean-mask splits, shard-side
:meth:`~repro.state.algorithm.Sketch.process_chunk` — with shard
assignment and results bit-identical to the per-item route
(:meth:`ShardedRunner.shard_of`) and the scalar
:meth:`~repro.state.algorithm.Sketch.process_many` loop.  A
:class:`~repro.streams.chunked.ChunkedStream` or ``int64`` ndarray is
sliced as is; any other iterable is pulled lazily, one ``int64`` chunk
at a time, so generators stay bounded-memory.  An optional
``chunk_size`` sets the chunk length.

Two executors (:data:`EXECUTORS`) decide *where* the per-shard ingest
runs:

* ``"serial"`` — shards are ingested in-process as the stream is
  routed.
* ``"process"`` — the zero-copy pipelined pool
  (:class:`~repro.runtime.parallel.PipelinedShardPool`): each
  :meth:`~ShardedRunner.ingest` call starts it at its first routed
  part, with workers rebuilt from each shard's current snapshot; the
  router writes routed ``int64`` chunks straight into per-shard
  shared-memory ring buffers *while* workers ingest earlier chunks,
  and before ``ingest`` returns the ingested states stream back and
  restore the shards.  A process runner therefore ingests, snapshots
  and reports exactly like a serial one, in any order.

The results — merged payload, answers, and the full audit — are
bit-identical across the two; only the wall-clock changes.

A worker failure aborts the run with its shard context
(:class:`~repro.runtime.parallel.ShardIngestError`; ``policy="raise"``
budget aborts keep their ``WriteBudgetExceededError`` type with the
context chained), and the runner then refuses to merge, observe or
extend the partial results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from repro import registry
from repro.hashing.prime_field import KWiseHash
from repro.runtime.parallel import PipelinedShardPool
from repro.state.algorithm import NotMergeableError, Sketch
from repro.state.budget import BudgetReport, WriteBudget
from repro.state.report import StateChangeReport
from repro.state.tracker import BudgetBackend, make_tracker
from repro.streams.chunked import (
    DEFAULT_CHUNK_SIZE,
    ChunkedStream,
    as_chunk,
)

#: Builds the shard with the given index; shards must be mutually
#: merge-compatible (same type, same hash seeds, separate trackers).
ShardFactory = Callable[[int], Sketch]

#: Executors a runner (and the ``Engine`` and CLI built on it) accepts;
#: see the module docs.
EXECUTORS = ("serial", "process")

#: One leaf of a snapshot cut: the shard's ingest-epoch key plus an
#: immutable-by-convention private copy of the shard at that epoch.
SnapshotCut = list[tuple[tuple, Sketch]]


_Node = TypeVar("_Node")


def check_executor(executor: str) -> None:
    """Reject an executor outside the declared choices."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )


def _iter_chunks(items: Iterable[int], size: int) -> Iterator[np.ndarray]:
    """Pull ``items`` lazily, one ``int64`` chunk of ``size`` at a time."""
    iterator = iter(items)
    while len(chunk := np.fromiter(islice(iterator, size), dtype=np.int64)):
        yield chunk


def _reduce_tree(
    level: list[_Node],
    combine: Callable[[int, int, _Node, _Node], _Node],
) -> _Node:
    """Binary merge-tree reduce: each round pairs neighbours through
    ``combine(height, slot, left, right)`` and carries an odd last node
    up unmerged.  MG/SpaceSaving merges are not associative, so this
    shape is part of the bit-identity contract."""
    height = 1
    while len(level) > 1:
        paired = [
            combine(height, j // 2, level[j], level[j + 1])
            for j in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
        height += 1
    return level[0]


def _load_skew(shard_items: tuple[int, ...] | list[int]) -> float:
    """Max-over-mean shard load; 1.0 for an empty run (no 0/0)."""
    total = sum(shard_items)
    if total == 0:
        return 1.0
    return max(shard_items) * len(shard_items) / total


@dataclass(frozen=True)
class ShardedRunResult:
    """Outcome of one sharded run after the merge reduce.

    Attributes
    ----------
    merged:
        The reduced sketch; query it like a single-instance run.
    merged_report:
        Its audit — the elementwise sum of ``shard_reports``.
    shard_reports:
        Per-shard audits (per-shard write budgets live here).
    shard_items:
        Updates routed to each shard.
    budget_reports:
        Per-shard :class:`~repro.state.budget.BudgetReport` values when
        the shards ran on budget backends; ``None`` entries otherwise.
    """

    num_shards: int
    merged: Sketch
    merged_report: StateChangeReport
    shard_reports: tuple[StateChangeReport, ...]
    shard_items: tuple[int, ...]
    budget_reports: tuple[BudgetReport | None, ...] = ()

    @property
    def skew(self) -> float:
        """Load imbalance: max over shards of ``items / mean items``.

        1.0 means perfectly balanced.  An empty run has no imbalance to
        report, so the empty stream also yields 1.0 (rather than a
        0/0 division); a single-item stream yields ``num_shards`` —
        every routed item sat on one shard.
        """
        return _load_skew(self.shard_items)

    def summary(self) -> str:
        """One-line human-readable run summary."""
        return (
            f"shards={self.num_shards} skew={self.skew:.2f} "
            f"state_changes={self.merged_report.state_changes} "
            f"peak_words={self.merged_report.peak_words}"
        )


class ShardedRunner:
    """Partition a stream over ``K`` sketch shards and merge-reduce.

    Parameters
    ----------
    factory:
        ``factory(shard_index) -> Sketch``.  All shards must be built
        with the *same* hash seeds (merge compatibility) but must not
        share a tracker.  Use :meth:`from_registry` for the common
        case.
    num_shards:
        Number of shards ``K >= 1``.
    seed:
        Seeds the routing hash (independent of the sketch seeds).
    executor:
        ``"serial"`` (default) ingests in-process; ``"process"``
        runs the pipelined shared-memory pool, whose workers ingest
        concurrently with routing.  The process executor requires a
        serializable sketch and is bit-identical to serial mode.
    chunk_size:
        Items per routed chunk (``None``: a chunked stream's own
        chunking, :data:`~repro.streams.chunked.DEFAULT_CHUNK_SIZE`
        for plain iterables).
    """

    def __init__(
        self,
        factory: ShardFactory,
        num_shards: int,
        seed: int = 0,
        executor: str = "serial",
        chunk_size: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard: {num_shards}")
        check_executor(executor)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
        self.num_shards = num_shards
        self.executor = executor
        self.chunk_size = chunk_size
        self._shards: list[Sketch] = [factory(i) for i in range(num_shards)]
        trackers = {id(shard.tracker) for shard in self._shards}
        if len(trackers) != num_shards:
            raise ValueError(
                "shards must not share StateTrackers; give each shard "
                "its own tracker so per-shard audits are well defined"
            )
        if num_shards > 1 and not self._shards[0].mergeable:
            raise NotMergeableError(
                f"{type(self._shards[0]).__name__} does not support "
                f"merging; it cannot be sharded"
            )
        # Route by item identity so all occurrences co-locate.
        self._route = KWiseHash(2, seed=seed + 0x5A5A)
        self._shard_items = [0] * num_shards
        self._merged: Sketch | None = None
        self._premerge_reports: tuple[StateChangeReport, ...] = ()
        self._premerge_budgets: tuple[BudgetReport | None, ...] = ()
        self._failed: BaseException | None = None
        # Incremental snapshot plane: per-leaf clones and memoized
        # merge-tree nodes, both keyed by the shards' ingest epochs.
        # The merge lock serializes off-lock reductions (the caches are
        # shared); entries are (key, sketch) pairs, so a stale or
        # out-of-order build self-describes and rebuilds instead of
        # serving the wrong epoch.
        self._merge_lock = threading.Lock()
        self._leaf_cache: list[tuple[tuple, Sketch] | None] = (
            [None] * num_shards
        )
        self._node_cache: dict[tuple[int, int], tuple[tuple, Sketch]] = {}
        self._snap_stats = {
            "cuts_taken": 0,
            "leaves_cloned": 0,
            "leaves_reused": 0,
            "nodes_built": 0,
            "nodes_reused": 0,
        }

    @classmethod
    def from_registry(
        cls,
        name: str,
        num_shards: int,
        n: int = 4096,
        m: int = 65536,
        epsilon: float = 0.5,
        seed: int = 0,
        executor: str = "serial",
        tracking: str = "aggregate",
        budget: WriteBudget | int | None = None,
        budget_split: str = "even",
        chunk_size: int | None = None,
    ) -> "ShardedRunner":
        """Runner whose shards come from :mod:`repro.registry`.

        Every shard is built with the *same* ``seed`` so the shards
        share hash functions and merge losslessly.  ``tracking``
        selects the accounting backend of every shard (the runtime
        defaults to the aggregate fast path); passing a ``budget``
        switches the shards to budget backends, with the global limit
        divided per ``budget_split`` (``"even"`` — shard limits sum to
        the global limit — or ``"replicate"`` — every shard gets the
        full limit).
        """
        budgets: tuple[WriteBudget | None, ...]
        if budget is not None:
            if not isinstance(budget, WriteBudget):
                budget = WriteBudget(budget)
            budgets = budget.split(num_shards, how=budget_split)
        else:
            budgets = (None,) * num_shards
        return cls(
            lambda index: registry.create(
                name,
                n=n,
                m=m,
                epsilon=epsilon,
                seed=seed,
                tracker=make_tracker(tracking, budget=budgets[index]),
            ),
            num_shards=num_shards,
            seed=seed,
            executor=executor,
            chunk_size=chunk_size,
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def shard_of(self, item: int) -> int:
        """Shard index every occurrence of ``item`` is routed to.

        The per-item routing reference: :meth:`ingest` routes whole
        chunks through the vectorized hash, and every routed item lands
        exactly where this says.
        """
        return self._route.bucket(item, self.num_shards)

    def ingest(self, stream: Iterable[int]) -> int:
        """Route ``stream`` to the shards; returns items consumed.

        Every input takes the columnar path: one vectorized routing
        hash over each chunk, a boolean-mask split per shard, and
        shard-side ingest through
        :meth:`~repro.state.algorithm.Sketch.process_chunk`
        (bit-identical to the scalar route).  A
        :class:`~repro.streams.chunked.ChunkedStream` or an
        ``np.ndarray`` is sliced into chunks; any other iterable is
        pulled lazily, one ``int64`` chunk of ``chunk_size`` (default
        :data:`~repro.streams.chunked.DEFAULT_CHUNK_SIZE`) items at a
        time, so a generator is never materialized.

        Where the routed work goes depends on the executor: serial
        ingests as it routes; the process executor writes each routed
        part into the shard's shared-memory ring (workers ingest
        concurrently — the overlap is the point) and has restored the
        shards from the workers' states by the time it returns.
        """
        self._check_not_failed()
        if self._merged is not None:
            raise RuntimeError(
                "runner is already merged; create a new ShardedRunner"
            )
        chunks = getattr(stream, "chunks", None)
        if chunks is not None:
            source = chunks(self.chunk_size)
        elif isinstance(stream, np.ndarray):
            source = ChunkedStream(stream).chunks(self.chunk_size)
        else:
            source = _iter_chunks(
                stream, self.chunk_size or DEFAULT_CHUNK_SIZE
            )
        if self.executor == "serial":
            return self._ingest_chunks(source, self._ingest_part)
        return self._ingest_on_pool(source)

    def _check_not_failed(self) -> None:
        if self._failed is not None:
            raise RuntimeError(
                "a shard ingest failed; partial results cannot be "
                "merged, observed, or extended — create a new "
                "ShardedRunner"
            ) from self._failed

    def _fail(self, error: BaseException) -> None:
        """Latch a failure: the run's partial results are dead."""
        self._failed = error
        # The memoized snapshot plane describes a run that no longer
        # exists; a latched runner must not serve (or hold) stale roots.
        self._clear_snapshot_caches()

    def _ingest_chunks(
        self,
        chunks: Iterator[np.ndarray],
        deliver: Callable[[int, np.ndarray], None],
    ) -> int:
        """Columnar routing: split each chunk across the shards with
        one vectorized hash and ``deliver`` per-shard sub-chunks in
        stream order."""
        num_shards = self.num_shards
        count = 0
        for chunk in chunks:
            chunk = as_chunk(chunk)
            if not len(chunk):
                continue
            count += len(chunk)
            if num_shards == 1:
                deliver(0, chunk)
                continue
            routed = self._route.bucket_many(chunk, num_shards)
            for shard in range(num_shards):
                part = chunk[routed == shard]
                if len(part):
                    deliver(shard, part)
        return count

    def _ingest_part(self, shard: int, part: np.ndarray) -> None:
        self._shard_items[shard] += self._shards[shard].process_chunk(part)

    def _ingest_on_pool(self, chunks: Iterator[np.ndarray]) -> int:
        """Route ``chunks`` through a pipelined pool, then restore.

        The pool launches at the first routed part, its workers rebuilt
        from each shard's current state.  At end-of-stream the states
        of the shards that received parts are restored as workers
        report (a fast worker's ``from_state`` restoration overlaps a
        slow worker's tail); the other shards keep their local
        instances, matching serial bit for bit.  Any failure (a worker
        fault, a non-serializable shard at pool start) latches the
        runner as failed before propagating: partial results are never
        merged.
        """
        pool: PipelinedShardPool | None = None

        def submit(shard: int, part: np.ndarray) -> None:
            nonlocal pool
            if pool is None:
                pool = PipelinedShardPool(
                    [(i, s.to_state()) for i, s in enumerate(self._shards)],
                    slot_items=self.chunk_size or DEFAULT_CHUNK_SIZE,
                )
            pool.submit(shard, part)
            self._shard_items[shard] += len(part)

        try:
            count = self._ingest_chunks(chunks, submit)
            if pool is not None:
                for index, state in pool.finish():
                    sketch_cls = registry.sketch_class(state["algorithm"])
                    self._shards[index] = sketch_cls.from_state(state)
            return count
        except BaseException as error:
            self._fail(error)
            raise
        finally:
            if pool is not None:
                pool.close()

    # ------------------------------------------------------------------
    # Reduce
    # ------------------------------------------------------------------
    def _clear_snapshot_caches(self) -> None:
        """Drop every memoized leaf clone and merge-tree node."""
        self._leaf_cache = [None] * self.num_shards
        self._node_cache = {}

    def _leaf_key(self, index: int, shard: Sketch) -> tuple:
        """The shard's *ingest epoch*: a tuple of observable counters
        that changes whenever the shard absorbs an update.

        Derived rather than explicitly bumped, so it also catches
        mutation outside the runner's delivery paths (e.g. callers
        driving ``runner.shards[i].process(...)`` directly): any
        processed update advances the stream clock and the items
        counter, and the remaining audit counters distinguish runs
        that happen to tie on those.
        """
        tracker = shard.tracker
        return (
            self._shard_items[index],
            shard._items_processed,
            tracker._timestep,
            tracker._state_changes,
            tracker._total_writes,
            tracker._write_attempts,
        )

    def snapshot_cut(self) -> SnapshotCut:
        """Capture a consistent leaf vector for a (possibly off-lock)
        merge: one ``(epoch_key, private_copy)`` pair per shard.

        Intended to be called where the shards are quiescent (the
        serving engine calls it under its ingest lock): the expensive
        part — copying shards — is paid only for the leaves whose
        epoch advanced since the last cut; clean leaves reuse the
        cached copy by reference.  The returned cut is self-contained
        (every entry is an immutable-by-convention private copy), so
        :meth:`merged_from_cut` can reduce it later without touching
        live shard state.
        """
        self._check_not_failed()
        if self._merged is not None:
            # The destructive reduce folded every shard tracker into
            # the root; copying the shards now would double-count.
            raise RuntimeError(
                "runner is already merged; snapshots must be taken "
                "before merge()"
            )
        stats = self._snap_stats
        stats["cuts_taken"] += 1
        cut: SnapshotCut = []
        for i, shard in enumerate(self._shards):
            key = self._leaf_key(i, shard)
            cached = self._leaf_cache[i]
            if cached is None or cached[0] != key:
                cached = (key, shard.clone())
                self._leaf_cache[i] = cached
                stats["leaves_cloned"] += 1
            else:
                stats["leaves_reused"] += 1
            cut.append(cached)
        return cut

    def merged_from_cut(self, cut: SnapshotCut) -> Sketch:
        """Reduce a :meth:`snapshot_cut` into a caller-owned merged
        sketch; safe to run outside the caller's ingest lock.

        Internal nodes of the merge tree are memoized keyed by the
        concatenation of their leaves' epoch keys, so a cut where only
        ``k`` of ``S`` shards advanced re-merges only those leaves' root
        paths — ``O(k log S)`` merges instead of ``S - 1``.  Cached
        nodes are never mutated (a rebuild clones its left child before
        merging, and :meth:`~repro.state.algorithm.Sketch.merge` only
        reads its right operand), and an internal lock serializes
        concurrent reductions over the shared cache.  The returned root
        is always a private clone, so repeated snapshots never alias.
        """
        stats = self._snap_stats
        cache = self._node_cache

        def combine(height: int, slot: int, left, right):
            keys = left[0] + right[0]
            cached = cache.get((height, slot))
            if cached is not None and cached[0] == keys:
                stats["nodes_reused"] += 1
                return cached
            entry = (keys, left[1].clone().merge(right[1]))
            cache[(height, slot)] = entry
            stats["nodes_built"] += 1
            return entry

        with self._merge_lock:
            root = _reduce_tree(
                [((key,), sketch) for key, sketch in cut], combine
            )
            return root[1].clone()

    def snapshot_stats(self) -> dict[str, int]:
        """Counters of the incremental snapshot plane.

        ``cuts_taken`` snapshots so far; per cut, how many leaves were
        freshly cloned vs reused from cache, and how many merge-tree
        nodes were rebuilt vs served memoized.
        """
        return dict(self._snap_stats)

    def merged_snapshot(self) -> Sketch:
        """Reduce *copies* of the shards; the shards stay ingestable.

        Unlike :meth:`merge`, which absorbs the shards destructively
        and ends the runner's ingest phase, this builds the identical
        merge-tree over exact per-shard copies and returns the root —
        so callers can interleave snapshots with further
        :meth:`ingest` calls and take as many snapshots as they like.
        The returned sketch (payload, answers, and combined audit via
        its tracker) is bit-identical to what :meth:`merge` would have
        returned at this point in the stream, and — because routing
        and per-shard ingest are deterministic — to a fresh batch run
        over the same stream prefix.

        The reduce runs through the memoized merge tree (see
        :meth:`merged_from_cut`): a snapshot where only ``k`` of ``S``
        shards ingested since the last one costs ``k`` leaf clones and
        ``O(k log S)`` merges.

        This is the primitive the live serving engine
        (:class:`repro.serve.LiveEngine`) answers queries through.
        """
        return self.merged_from_cut(self.snapshot_cut())

    def merge(self) -> Sketch:
        """Reduce the shards with a binary merge tree; returns the root.

        After the reduce the shards are consumed (their state has been
        absorbed) and further :meth:`ingest` calls are rejected.  The
        tree shape halves the number of summaries per round, matching
        how a distributed reduce would combine partial sketches.
        """
        self._check_not_failed()
        if self._merged is None:
            # The destructive reduce ends the snapshot plane's life:
            # drop the memoized clones so a merged runner cannot serve
            # (or pin the memory of) a stale root.
            self._clear_snapshot_caches()
            # Snapshot the per-shard audits first: the reduce folds
            # every other tracker into the surviving shard's, after
            # which live reports would double-count.
            self._premerge_reports = tuple(
                shard.report() for shard in self._shards
            )
            self._premerge_budgets = tuple(
                self._shard_budget(shard) for shard in self._shards
            )
            self._merged = _reduce_tree(
                list(self._shards),
                lambda height, slot, left, right: left.merge(right),
            )
        return self._merged

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def shards(self) -> tuple[Sketch, ...]:
        """The live shards (pre-merge)."""
        self._check_not_failed()
        return tuple(self._shards)

    @property
    def shard_items(self) -> tuple[int, ...]:
        """Updates ingested per shard so far."""
        return tuple(self._shard_items)

    def shard_reports(self) -> tuple[StateChangeReport, ...]:
        """Per-shard state-change audits (per-shard write budgets).

        After :meth:`merge` this returns the audits snapshotted just
        before the reduce — the live trackers have been folded into
        the merge root by then and would double-count.
        """
        self._check_not_failed()
        if self._merged is not None:
            return self._premerge_reports
        return tuple(shard.report() for shard in self._shards)

    @staticmethod
    def _shard_budget(shard: Sketch) -> BudgetReport | None:
        tracker = shard.tracker
        if isinstance(tracker, BudgetBackend):
            return tracker.budget_report()
        return None

    def budget_reports(self) -> tuple[BudgetReport | None, ...]:
        """Per-shard budget outcomes (``None`` for unbudgeted shards).

        Like :meth:`shard_reports`, answers come from the pre-merge
        snapshot once the shards have been reduced.
        """
        self._check_not_failed()
        if self._merged is not None:
            return self._premerge_budgets
        return tuple(self._shard_budget(shard) for shard in self._shards)

    def skew(self) -> float:
        """Max-over-mean shard load (1.0 = perfectly balanced)."""
        return _load_skew(self._shard_items)

    def run(self, stream: Iterable[int]) -> ShardedRunResult:
        """Ingest ``stream``, reduce, and package the full result."""
        self.ingest(stream)
        shard_reports = self.shard_reports()
        shard_items = self.shard_items
        merged = self.merge()
        return ShardedRunResult(
            num_shards=self.num_shards,
            merged=merged,
            merged_report=merged.report(),
            shard_reports=shard_reports,
            shard_items=shard_items,
            budget_reports=self.budget_reports(),
        )
