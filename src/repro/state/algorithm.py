"""Common base class for every instrumented streaming algorithm.

:class:`Sketch` owns a :class:`~repro.state.tracker.StateTracker` and
enforces the paper's clock discipline: subclasses implement
``_update(item)``; the public :meth:`process` wraps it with a tracker
``tick()`` so that all mutations triggered by one stream update are
attributed to one potential state change ``X_t``.

The class also anchors the *unified query protocol*
(:mod:`repro.query`): a sketch declares the query kinds it answers in
the class-level ``supports`` frozenset and implements one ``_answer_*``
hook per declared kind; :meth:`query` dispatches typed queries to the
hooks and raises the typed ``UnsupportedQueryError`` for everything
else.  The historical per-family methods (``estimate``, ``estimates``,
``heavy_hitters``, ``f*_estimate``, …) survive as thin delegates of
:meth:`query`.

On top of the single-item stream interface the class defines the
*mergeable sketch protocol* that the sharded runtime
(:mod:`repro.runtime`) is built on:

* :meth:`process_many` — batched ingestion that still ticks the clock
  once per item (the cost model is unchanged) but amortizes the Python
  call overhead of :meth:`process`.
* :meth:`merge` — absorb another sketch of the same type built with
  the same randomness, so ``K`` hash-partitioned shards can be reduced
  to one summary whose estimates match a single-instance run.
* :meth:`to_state` / :meth:`from_state` — serialization hooks that
  round-trip a sketch (including its audit) through a plain dict of
  JSON-safe values, used for checkpointing.

Mergeable families override the three protected hooks
(:meth:`_merge_same_type`, :meth:`_config_state`,
:meth:`_payload_state`/:meth:`_load_payload`) and set
``mergeable = True``; everything else inherits defaults that raise the
typed errors below.

Merge semantics under the cost model: a merge is an *offline reduce*,
not a stream update, so the mutations it performs are applied through
the registers' untracked ``load`` path and are **not** charged as
writes or state changes.  Instead :meth:`merge` folds the absorbed
shard's full audit into this sketch's tracker via
:meth:`~repro.state.tracker.StateTracker.merge_child`, so the merged
:class:`~repro.state.report.StateChangeReport` equals the elementwise
sum of the shard reports.

``StreamAlgorithm`` remains as an alias for the pre-protocol name.
"""

from __future__ import annotations

import abc
import copy
from typing import Any, Callable, ClassVar, Iterable

import numpy as np

from repro.query import (
    QUERY_HOOKS,
    Answer,
    MultiPointQuery,
    PointQuery,
    Query,
    QueryKind,
    UnsupportedQueryError,
)
from repro.state.report import StateChangeReport
from repro.state.tracker import StateTracker, tracker_from_state
from repro.streams.chunked import as_chunk


class NotMergeableError(TypeError):
    """Raised when :meth:`Sketch.merge` is unsupported for a sketch.

    Sampling-based algorithms (the ``SampleAndHold`` family) hold
    per-item counters whose occurrence sets may overlap between shards,
    so their partial summaries cannot be combined without bias — they
    raise this error instead of silently producing wrong estimates.
    """


class NotSerializableError(TypeError):
    """Raised when a sketch does not implement the state hooks."""


#: The coin protocol of every class that draws coins: indexed Philox
#: streams (:mod:`repro.hashing.coins`).  Its predecessor v1, one
#: sequential ``random.Random`` per sketch, was retired.
COIN_PROTOCOL = "v2"


def check_coin_protocol(protocol: object, source: str) -> None:
    """Raise ``ValueError`` unless ``protocol`` is :data:`COIN_PROTOCOL`."""
    if protocol != COIN_PROTOCOL:
        raise ValueError(
            f"{source}: coin protocol {protocol!r} is not available; "
            f"{COIN_PROTOCOL!r} is the only one (v1 was retired)"
        )


class ChunkAudit:
    """Per-chunk write accounting for vectorized kernels.

    A kernel that settles individual positions (sample-and-hold
    admissions, reservoir acceptances, Morris transitions) records each
    write attempt here instead of on the tracker; at the end of the
    chunk the accumulated counts feed one
    :meth:`~repro.state.tracker.TrackerBackend.record_chunk` call.  The
    per-position ``dirty`` mask makes ``state_changes`` exact: a chunk
    position with at least one mutating write (or structural mutation)
    is exactly an update a scalar run would have ticked with
    ``X_t = 1``.

    ``cells`` is populated only when the backend needs per-cell labels
    (the trace backend's wear histogram).
    """

    __slots__ = ("dirty", "writes", "attempts", "cells")

    def __init__(self, length: int, needs_cell_ids: bool) -> None:
        self.dirty = np.zeros(length, dtype=bool)
        self.writes = 0
        self.attempts = 0
        self.cells: dict[str, int] | None = {} if needs_cell_ids else None

    def write(self, cell_id: str, mutated: bool, position: int) -> None:
        """One write attempt against ``cell_id`` at chunk ``position``."""
        self.attempts += 1
        if mutated:
            self.writes += 1
            self.dirty[position] = True
            cells = self.cells
            if cells is not None:
                cells[cell_id] = cells.get(cell_id, 0) + 1

    def write_many(
        self,
        positions: np.ndarray,
        cells: np.ndarray,
        label: Callable[[int], str],
    ) -> None:
        """One mutating write per entry: cell number ``cells[i]`` at
        chunk position ``positions[i]``.

        ``label`` turns a cell number into its cell id; it is called
        once per distinct cell, and only when the backend needs cell
        ids.
        """
        count = len(positions)
        self.attempts += count
        self.writes += count
        self.dirty[positions] = True
        histogram = self.cells
        if histogram is not None:
            numbers, counts = np.unique(cells, return_counts=True)
            for number, times in zip(numbers.tolist(), counts.tolist()):
                cell_id = label(number)
                histogram[cell_id] = histogram.get(cell_id, 0) + times

    def mark(self, position: int) -> None:
        """Structural mutation (no single-cell identity) at ``position``."""
        self.dirty[position] = True

    def commit(self, tracker, updates: int) -> None:
        """Flush the chunk's accounting in one ``record_chunk`` call."""
        tracker.record_chunk(
            updates,
            int(self.dirty.sum()),
            self.writes,
            self.attempts,
            self.cells,
        )


def payload_array(
    payload: dict[str, Any], field: str, shape: tuple[int, ...]
) -> np.ndarray:
    """Snapshot payload field ``field`` as an ``int64`` array of
    ``shape`` (the configured geometry); a ``ValueError`` naming the
    field otherwise, so a payload that does not fit fails at restore,
    not later."""
    try:
        raw = payload[field]
        values = np.asarray(raw, dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ValueError(f"payload field {field!r}: no integer array") from error
    if values.size and np.asarray(raw).dtype.kind not in "iu":
        raise ValueError(f"payload field {field!r}: a non-integer entry")
    if values.shape != shape:
        raise ValueError(f"payload field {field!r}: shape {values.shape}, not {shape}")
    return values


def payload_counts(
    payload: dict[str, Any], field: str, shape: tuple[int, ...]
) -> np.ndarray:
    """:func:`payload_array` for levels and counts: also a
    ``ValueError`` naming the field on a negative entry."""
    values = payload_array(payload, field, shape)
    if (values < 0).any():
        raise ValueError(f"payload field {field!r}: a negative entry")
    return values


class Sketch(abc.ABC):
    """Abstract insertion-only streaming algorithm over universe ``[n]``.

    Subclasses must implement :meth:`_update`.  Items are integers in
    ``range(n)`` (the paper's ``[n]``, zero-indexed here).
    """

    #: Whether this sketch supports :meth:`merge` (class-level flag so
    #: the registry and the sharded runtime can check without a probe).
    mergeable: bool = False

    #: Query kinds this sketch answers via :meth:`query` (class-level
    #: declaration so the registry and the :class:`~repro.api.Engine`
    #: can enumerate capabilities without a probe).
    supports: ClassVar[frozenset[QueryKind]] = frozenset()

    #: kind → implementing function, resolved once per subclass from
    #: :attr:`supports` (see ``__init_subclass__``).
    _query_handlers: ClassVar[dict[QueryKind, Any]] = {}

    #: Whether the class draws stream-time coins.  Coin classes draw
    #: them from indexed Philox streams (:data:`COIN_PROTOCOL`) and tag
    #: their snapshots with the protocol (see :meth:`to_state`).
    draws_coins: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._query_handlers = {
            kind: getattr(cls, QUERY_HOOKS[kind]) for kind in cls.supports
        }

    def __init__(self, tracker: StateTracker | None = None) -> None:
        self.tracker = tracker if tracker is not None else StateTracker()
        self._items_processed = 0

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    def process(self, item: int) -> None:
        """Feed one stream update and advance the state-change clock.

        Budget backends are consulted before the update runs: a denied
        update is skipped wholesale (no partially-applied mutations)
        while its tick still advances the stream clock with ``X_t = 0``.
        """
        self._scalar_step(item)
        self._items_processed += 1

    def process_many(self, items: Iterable[int]) -> int:
        """Feed a batch of updates; returns the number consumed.

        The clock discipline is identical to calling :meth:`process` in
        a loop — one ``tick()`` per item — but the hot loop binds the
        update and tick callables once, which removes most of the
        per-item attribute-lookup and method-call overhead (see
        ``benchmarks/bench_throughput.py``).  Only budget backends
        define the update-admission gate, so the common backends pay
        nothing for enforcement.
        """
        if isinstance(items, np.ndarray):
            # Scalar kernels expect Python ints (arbitrary-precision
            # hashing, dict keys, JSON-safe payloads).
            items = items.tolist()
        update = self._update
        tracker = self.tracker
        tick = tracker.tick
        admit = getattr(tracker, "admit_update", None)
        count = 0
        # try/finally: a raise-policy abort mid-batch must not lose the
        # completed updates' accounting (the aborting update itself is
        # never counted — its tick never ran).
        try:
            if admit is None:
                for item in items:
                    update(item)
                    tick()
                    count += 1
            else:
                for item in items:
                    if admit():
                        update(item)
                    tick()
                    count += 1
        finally:
            self._items_processed += count
        return count

    def process_stream(self, stream: Iterable[int]) -> None:
        """Feed every update of ``stream`` in order.

        Columnar sources — ``np.ndarray`` chunks or a
        :class:`~repro.streams.chunked.ChunkedStream` — route through
        :meth:`process_chunk` (bit-identical, usually much faster);
        anything else takes the scalar :meth:`process_many` loop.
        """
        chunks = getattr(stream, "chunks", None)
        if chunks is not None:
            for chunk in chunks():
                self.process_chunk(chunk)
        elif isinstance(stream, np.ndarray):
            self.process_chunk(stream)
        else:
            self.process_many(stream)

    # ------------------------------------------------------------------
    # Columnar (chunked) ingestion
    # ------------------------------------------------------------------
    def process_chunk(self, chunk) -> int:
        """Feed one columnar chunk (``int64`` array-like); returns the
        number of updates consumed.

        **Contract: bit-identical to the scalar path.**  For every
        family, backend, and chunk size, ``process_chunk`` over any
        chunking of a stream produces exactly the payload, audit, and
        answers of :meth:`process_many` over the same items
        (``tests/test_chunked_ingest.py`` sweeps this with Hypothesis).

        Families with a vectorized kernel override
        :meth:`_update_chunk` and account each sub-chunk in bulk
        (:meth:`~repro.state.tracker.TrackerBackend.record_chunk`).
        Three cases take the scalar loop instead: a class without a
        kernel, a run with write listeners attached (a bulk kernel
        cannot replay per-write callbacks), and the rest of a chunk
        once a write budget is spent (below).  The loop coerces items to
        Python ints at this boundary, so downstream hashes and dict keys
        never see ``np.int64``.

        Budget backends gate the kernel through
        :meth:`~repro.state.tracker.TrackerBackend.bulk_admit`: the
        kernel runs only over prefixes where no denial can trigger,
        and the remainder of the chunk is replayed through the scalar
        per-update gate — so freeze/degrade/raise cut over at the
        exact update index, not the chunk edge.
        """
        chunk = as_chunk(chunk)
        total = len(chunk)
        if total == 0:
            return 0
        tracker = self.tracker
        if type(self)._update_chunk is Sketch._update_chunk or tracker.has_listeners:
            return self.process_many(chunk.tolist())
        consumed = 0
        while consumed < total:
            admitted = tracker.bulk_admit(total - consumed)
            if admitted <= 0:
                # Budget exhausted: the scalar gate implements the
                # policy (freeze/degrade/raise) update by update.
                consumed += self.process_many(chunk[consumed:].tolist())
                break
            self._update_chunk(chunk[consumed:consumed + admitted])
            self._items_processed += admitted
            consumed += admitted
        return consumed

    def _update_chunk(self, chunk: np.ndarray) -> None:
        """Vectorized kernel hook: ingest one pre-admitted chunk.

        Overrides must (a) apply register mutations through the
        untracked ``load`` path, (b) account the chunk in bulk via
        ``self.tracker.record_chunk(...)`` — exactly the counts the
        scalar loop would have produced, including per-cell histogram
        entries when ``tracker.needs_cell_ids`` — and (c) leave
        ``self._items_processed`` alone (:meth:`process_chunk` owns
        it).  Individual structural updates inside the chunk may be
        delegated to :meth:`_scalar_step`.

        The base implementation is deliberately not a fallback:
        :meth:`process_chunk` checks ``is Sketch._update_chunk`` to
        decide whether a kernel exists.
        """
        raise NotImplementedError

    def _scalar_step(self, item: int) -> None:
        """One scalar update — the admission gate, :meth:`_update` and
        the clock tick — without the items-processed bump
        (:meth:`process`, or a chunk kernel's caller, accounts it)."""
        admit = getattr(self.tracker, "admit_update", None)
        if admit is None or admit():
            self._update(item)
        self.tracker.tick()

    @abc.abstractmethod
    def _update(self, item: int) -> None:
        """Handle one stream update (mutations go through tracked cells)."""

    # ------------------------------------------------------------------
    # Unified query protocol
    # ------------------------------------------------------------------
    def query(self, q: Query) -> Answer:
        """Answer a typed query (see :mod:`repro.query`).

        Dispatches on ``q.kind`` to the family's ``_answer_*`` hook.
        The supported kinds are declared in :attr:`supports`; asking
        for anything else raises the typed
        :class:`~repro.query.UnsupportedQueryError`, so callers can
        branch on capabilities (via :attr:`supports` or the registry's
        :class:`~repro.registry.SketchSpec`) instead of ``hasattr``
        probes.

        Queries are pure reads: they never mutate tracked state and are
        free under the paper's cost model.
        """
        handler = self._query_handlers.get(q.kind)
        if handler is None:
            raise UnsupportedQueryError(
                type(self).__name__, q.kind, self.supports
            )
        return handler(self, q)

    def query_many(self, q: MultiPointQuery) -> tuple[Answer, ...]:
        """Answer a batch of point queries in one call.

        **Contract: bit-identical to the scalar loop.**  For every
        family and configuration, ``query_many(MultiPointQuery(items))``
        returns exactly ``tuple(self.query(PointQuery(i)) for i in
        items)`` — same values, same answer types, same errors
        (``tests/test_query_many.py`` sweeps this with Hypothesis).
        Families with a vectorized :meth:`_answer_point_many` kernel
        (CountMin/CountSketch gather whole item arrays through the
        chunked hash paths; the dict-backed summaries answer via one
        bulk lookup; the sample-and-hold families materialize their
        estimate map once per batch instead of once per item) only
        change the wall clock; everything else takes the scalar-loop
        fallback.

        The capability is :attr:`~repro.query.QueryKind.POINT` — a
        sketch that answers point queries answers batches of them, and
        one that does not raises the same typed
        :class:`~repro.query.UnsupportedQueryError`.

        Like :meth:`query`, batch queries are pure reads: they never
        mutate tracked state and are free under the paper's cost model.
        """
        if QueryKind.POINT not in self.supports:
            raise UnsupportedQueryError(
                type(self).__name__, QueryKind.POINT, self.supports
            )
        return self._answer_point_many(q)

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[Answer, ...]:
        """Batch point-query hook: the scalar-loop fallback.

        Overrides must preserve the bit-identity contract of
        :meth:`query_many`; the base implementation *is* the contract
        (minus the per-item dispatch overhead, which is behavioral
        no-op).
        """
        answer_point = self._query_handlers[QueryKind.POINT]
        return tuple(
            answer_point(self, PointQuery(item)) for item in q.items
        )

    # One hook per QueryKind.  A subclass declaring a kind in
    # ``supports`` must override the matching hook; reaching a base
    # hook means the declaration and the implementation disagree.
    def _answer_point(self, q: Query) -> Answer:
        raise NotImplementedError(
            f"{type(self).__name__} declares {q.kind!s} support but "
            f"does not implement {QUERY_HOOKS[q.kind]}"
        )

    _answer_all_estimates = _answer_point
    _answer_heavy_hitters = _answer_point
    _answer_moment = _answer_point
    _answer_entropy = _answer_point
    _answer_distinct = _answer_point

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    def merge(self, other: "Sketch") -> "Sketch":
        """Absorb ``other`` (same type, same randomness) into this sketch.

        After the call this sketch summarizes the concatenation of both
        input streams and its tracker carries the combined audit; the
        absorbed sketch must be discarded.  Returns ``self`` so merges
        chain in a reduce.

        Raises
        ------
        NotMergeableError
            When the family does not support merging, or ``other`` is a
            different type.
        ValueError
            When the two sketches are configuration-incompatible (e.g.
            different widths or hash seeds), share a tracker, or are
            the same object.
        """
        if other is self:
            raise ValueError("cannot merge a sketch with itself")
        if type(other) is not type(self):
            raise NotMergeableError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}"
            )
        if other.tracker is self.tracker:
            raise ValueError(
                "cannot merge sketches sharing a StateTracker; shards "
                "need independent trackers for a well-defined audit"
            )
        self._merge_same_type(other)
        self.tracker.merge_child(other.tracker)
        self._items_processed += other._items_processed
        return self

    def _merge_same_type(self, other: "Sketch") -> None:
        """Family-specific merge; ``other`` is the same type as ``self``.

        Overrides must validate configuration compatibility and apply
        mutations through the registers' untracked ``load`` path (the
        audit is combined separately by :meth:`merge`).
        """
        raise NotMergeableError(
            f"{type(self).__name__} does not support merging"
        )

    # ------------------------------------------------------------------
    # Clone protocol
    # ------------------------------------------------------------------
    def clone(self) -> "Sketch":
        """Independent copy: same payload, audit, and randomness.

        **Contract: bit-identical to the serialization round trip.**
        For serializable families ``clone()`` produces exactly
        ``type(self).from_state(self.to_state())`` — same payload,
        same audit counters, same answers — and never shares mutable
        state with the original.  Write listeners are not carried over
        (a restored sketch starts unobserved), matching restore
        semantics.

        The default path *is* the round trip (or ``copy.deepcopy`` for
        families without the state hooks) — correct everywhere but
        paying the dict serialization tax.  Families whose registers
        are plain arrays and dicts override :meth:`_clone_registers`
        and take the fast path: a shallow copy sharing the immutable
        configuration (hash functions, sizing), a
        :meth:`~repro.state.tracker.TrackerBackend.clone` of the audit,
        and direct register copies via
        :meth:`~repro.state.registers.TrackedArray.clone_to`.
        """
        if type(self)._clone_registers is not Sketch._clone_registers:
            dup = copy.copy(self)
            dup.tracker = self.tracker.clone()
            dup._clone_registers(dup.tracker)
            return dup
        if type(self)._config_state is not Sketch._config_state:
            return type(self).from_state(self.to_state())
        return copy.deepcopy(self)

    def _clone_registers(self, tracker: StateTracker) -> None:
        """Fast-path hook: rebind register attributes onto ``tracker``.

        Called on the shallow copy, with the cloned tracker already
        installed as ``self.tracker``.  Overrides must replace every
        mutable attribute — each tracked register via its ``clone_to``
        (no re-allocation; the cloned tracker's word counters already
        cover them) and any plain containers by copy — so the clone
        shares nothing writable with the original.  Immutable
        configuration (hash families, sizes) stays shared.

        The base implementation is deliberately not a fallback:
        :meth:`clone` checks ``is Sketch._clone_registers`` to decide
        whether a fast path exists.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization protocol
    # ------------------------------------------------------------------
    def to_state(self) -> dict[str, Any]:
        """Snapshot the sketch into a dict of JSON-safe values.

        The snapshot contains the constructor configuration, the raw
        register payload, and the full tracker audit, so
        :meth:`from_state` reproduces both the estimates and the
        state-change report exactly.  Coin classes add the
        ``"coin_protocol"`` tag to the config; their coins are pure
        functions of the configured seeds, so no generator state needs
        saving.
        """
        config = self._config_state()
        if self.draws_coins:
            config["coin_protocol"] = COIN_PROTOCOL
        return {
            "algorithm": type(self).__name__,
            "config": config,
            "payload": self._payload_state(),
            "items_processed": self._items_processed,
            "audit": self.tracker.to_state(),
        }

    @classmethod
    def from_state(
        cls, state: dict[str, Any], tracker: StateTracker | None = None
    ) -> "Sketch":
        """Rebuild a sketch from a :meth:`to_state` snapshot.

        With the default ``tracker=None`` the restored sketch's audit
        is overwritten with the snapshot's, making the round trip
        exact.  When an external ``tracker`` is supplied (a sketch
        embedded in a larger algorithm) the audit restore is skipped —
        the caller owns the accounting.

        Randomness: hash functions and coin streams are rebuilt from
        the stored seeds, so post-restore coins *resume* the original
        sequence bit for bit.  A coin class's snapshot must carry the
        :data:`COIN_PROTOCOL` tag: an untagged one predates the tag and
        ran on the retired v1 protocol, so it raises ``ValueError``.

        Accounting backends round-trip too: with ``tracker=None`` the
        restored sketch runs on the same backend the snapshot came
        from (aggregate / trace / budget, including the budget's
        remaining headroom), rebuilt via
        :func:`~repro.state.tracker.tracker_from_state`.
        """
        algorithm = state.get("algorithm")
        if algorithm != cls.__name__:
            raise ValueError(
                f"state is for {algorithm!r}, not {cls.__name__!r}"
            )
        base_words = tracker.current_words if tracker is not None else 0
        own_tracker = tracker
        if own_tracker is None and state.get("audit") is not None:
            own_tracker = tracker_from_state(state["audit"])
        config = dict(state["config"])
        if cls.draws_coins:
            check_coin_protocol(
                config.pop("coin_protocol", "v1"), f"{algorithm} snapshot"
            )
        instance = cls(tracker=own_tracker, **config)
        instance._load_payload(state["payload"])
        instance._items_processed = int(state.get("items_processed", 0))
        audit = state.get("audit")
        if audit is not None:
            if tracker is None:
                instance.tracker.load_state(audit)
            else:
                # The payload load bypasses allocate(), but the
                # external tracker must still account the restored
                # live words or later frees (dict evictions) underflow.
                # The snapshot's current_words covers constructor
                # registers + payload; the constructor's own share was
                # just charged, so reconcile the difference.
                constructed = tracker.current_words - base_words
                delta = int(audit["current_words"]) - constructed
                if delta > 0:
                    tracker.allocate(delta)
                elif delta < 0:
                    tracker.free(-delta)
        return instance

    def _config_state(self) -> dict[str, Any]:
        """Constructor kwargs that rebuild an empty compatible sketch."""
        raise NotSerializableError(
            f"{type(self).__name__} does not support serialization"
        )

    def _payload_state(self) -> dict[str, Any]:
        """JSON-safe snapshot of the sketch's register contents."""
        raise NotSerializableError(
            f"{type(self).__name__} does not support serialization"
        )

    def _load_payload(self, payload: dict[str, Any]) -> None:
        """Load a :meth:`_payload_state` snapshot (untracked)."""
        raise NotSerializableError(
            f"{type(self).__name__} does not support serialization"
        )

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    @property
    def items_processed(self) -> int:
        """Number of stream updates consumed so far."""
        return self._items_processed

    @property
    def state_changes(self) -> int:
        """Total state changes so far (the paper's ``sum_t X_t``)."""
        return self.tracker.state_changes

    def report(self) -> StateChangeReport:
        """Snapshot the run's full state-change audit."""
        return self.tracker.report()


#: Pre-protocol name, kept so existing imports and subclasses work.
StreamAlgorithm = Sketch
