"""State-change accounting backends: the instrumented memory all
algorithms run on.

Every streaming algorithm in this library — the paper's algorithms and
the Table 1 baselines alike — stores its working memory in *tracked
registers* (:mod:`repro.state.registers`) bound to a single tracker
backend.  The backend implements the paper's cost model (Section 1.5):

* ``tick()`` is called exactly once per stream update; if any register
  cell changed value since the previous tick, the update counts as one
  *state change* (``X_t = 1``).
* Writes that store the value already present do **not** change the
  state (``sigma_t == sigma_{t-1}``) and are counted separately as
  ``silent`` write attempts.
* Space is accounted in *words*; allocation and deallocation update a
  live-word counter whose maximum is the reported space usage.

Accounting is **pluggable**: the cost model has one definition but
several deployments, and the backend class decides what one write
costs in bookkeeping:

* :class:`AggregateBackend` — the default fast path.  Scalar counters
  only (``__slots__``-backed, no per-cell ``Counter``, no listener
  machinery at all), so the ingest hot loop pays two integer
  increments per write.  This is what the runtime and the
  :class:`~repro.api.Engine` run on unless asked otherwise.
* :class:`TraceBackend` — the full observability mode: per-cell
  mutation histogram plus the listener interface that downstream
  consumers (the NVM wear simulator in :mod:`repro.nvm`, audits)
  subscribe to.  ``StateTracker`` — the substrate's historical name —
  is an alias of this class, so directly-constructed sketches keep
  their full audit.
* :class:`BudgetBackend` — enforces a
  :class:`~repro.state.budget.WriteBudget`: the run may change state
  at most ``limit`` times, and the budget's policy (``raise`` /
  ``freeze`` / ``degrade``) decides what happens to the excess.  This
  generalizes the lower-bound strawman of Theorem 1.2/1.4 — *any*
  sketch can run as "an algorithm with at most ``B`` state changes".

All backends report identical :class:`StateChangeReport` aggregate
fields on identical runs (an unlimited budget denies nothing); only
the per-cell histogram, the listener stream, and the enforcement
differ.  Backend identity and budget remainders survive
``to_state()``/``load_state()`` round trips bit for bit, which is what
the process executor's serial-equivalence guarantee rests on.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Protocol

from repro.state.budget import (
    BudgetReport,
    WriteBudget,
    WriteBudgetExceededError,
)
from repro.state.report import StateChangeReport

#: Signature of a write listener: ``(timestep, cell_id, mutated)``.
WriteListener = Callable[[int, str, bool], None]

#: Valid ``tracking=`` mode names, in documentation order.
TRACKING_MODES = ("aggregate", "trace", "budget")


class SupportsWriteListener(Protocol):
    """Objects that can observe the write trace (e.g. an NVM device)."""

    def on_write(self, timestep: int, cell_id: str, mutated: bool) -> None:
        """Called for every write attempt issued through the tracker."""


class TrackerBackend:
    """Shared counters and clock of every accounting backend.

    The base class *is* the aggregate fast path: scalar counters, no
    per-cell state, no listeners.  Subclasses layer observability
    (:class:`TraceBackend`) or enforcement (:class:`BudgetBackend`) on
    top of the same interface, so registers and sketches are backend-
    agnostic.

    Two write entry points exist so the hot path can skip cell-label
    construction entirely: registers call :meth:`record_write` (with a
    cell id) only when :attr:`needs_cell_ids` is set, and the label-
    free :meth:`count_write` otherwise.  Both return ``True`` iff the
    write may be applied — only budget policies ever answer ``False``.
    """

    #: Backend mode name, serialized into snapshots.
    kind: str = "aggregate"
    #: Whether registers must construct per-cell labels for writes.
    needs_cell_ids: bool = False

    __slots__ = (
        "_timestep",
        "_dirty",
        "_state_changes",
        "_total_writes",
        "_write_attempts",
        "_current_words",
        "_peak_words",
        "_next_cell_id",
    )

    def __init__(self) -> None:
        self._timestep = 0
        self._dirty = False
        self._state_changes = 0
        self._total_writes = 0
        self._write_attempts = 0
        self._current_words = 0
        self._peak_words = 0
        self._next_cell_id = 0

    def fresh_cell_number(self) -> int:
        """Reserve the next number for a dynamically created counter
        cell (its owner formats the label, such as ``morris#k``, only
        when the backend needs cell ids).

        Cells are numbered per tracker (not per process), so rebuilding
        a sketch from a snapshot — possibly in a different worker
        process — reproduces the exact same cell labels as the original
        construction.  The sharded runtime's process executor relies on
        this for byte-identical serial/parallel audits.
        """
        number = self._next_cell_id
        self._next_cell_id = number + 1
        return number

    # ------------------------------------------------------------------
    # Stream clock
    # ------------------------------------------------------------------
    @property
    def timestep(self) -> int:
        """Number of ``tick()`` calls so far (the stream position ``t``)."""
        return self._timestep

    def tick(self) -> bool:
        """Advance the stream clock by one update.

        Returns True iff the state changed during the update that just
        ended (the paper's indicator ``X_t``).
        """
        changed = self._dirty
        if changed:
            self._state_changes += 1
        self._dirty = False
        self._timestep += 1
        return changed

    # ------------------------------------------------------------------
    # Write path (called by tracked registers)
    # ------------------------------------------------------------------
    def count_write(self, mutated: bool) -> bool:
        """Record one label-free write attempt; returns "apply it?".

        ``mutated`` is False when the stored value equals the previous
        contents; such writes are "silent" and do not set the dirty
        flag (the memory state is unchanged, so
        ``sigma_t == sigma_{t-1}``).
        """
        self._write_attempts += 1
        if mutated:
            self._total_writes += 1
            self._dirty = True
        return True

    def record_write(self, cell_id: str, mutated: bool) -> bool:
        """Record one write attempt against ``cell_id``.

        The base backend keeps no per-cell state, so the label is
        dropped; :class:`TraceBackend` overrides this to feed the
        histogram and the listeners.
        """
        return self.count_write(mutated)

    def mark_dirty(self) -> bool:
        """Force the current update to count as a state change.

        Used for structural mutations that have no single-cell identity
        (e.g. freeing a block of counters).  Returns ``True`` iff the
        mutation was admitted (budget policies may answer ``False``).
        """
        self._dirty = True
        return True

    # ------------------------------------------------------------------
    # Bulk write path (called by vectorized chunk kernels)
    # ------------------------------------------------------------------
    @property
    def has_listeners(self) -> bool:
        """Whether per-write observers are attached (trace backend only).

        Listeners need one callback per write in stream order, which a
        bulk-accounted chunk cannot replay — chunked ingest falls back
        to the scalar loop while this is True.
        """
        return False

    def bulk_admit(self, k: int) -> int:
        """Longest prefix of the next ``k`` updates that may run
        without per-update admission gating.

        Unbudgeted backends admit everything.  Budget backends bound
        the prefix so no update inside it can be denied or aborted
        (every update causes at most one state change), returning 0
        once exhausted — the signal to fall back to the per-update
        scalar gate, which implements the policy exactly.
        """
        return k

    def record_chunk(
        self,
        updates: int,
        state_changes: int,
        writes: int,
        attempts: int,
        cell_writes: dict[str, int] | None = None,
    ) -> None:
        """Account a whole ingested chunk in one call.

        ``updates`` ticks are advanced at once, of which
        ``state_changes`` had ``X_t = 1``; ``writes`` mutating writes
        out of ``attempts`` attempts are charged.  Vectorized kernels
        compute these counts exactly (per family, per chunk), so a
        chunked run reports the identical audit a scalar run would —
        the backends just skip the per-item bookkeeping dispatch.

        ``cell_writes`` (cell id → mutation count) feeds the trace
        backend's wear histogram; other backends ignore it, matching
        :meth:`record_write` dropping labels.
        """
        if updates < 0 or not 0 <= state_changes <= updates:
            raise ValueError(
                f"need 0 <= state_changes <= updates: "
                f"{state_changes}, {updates}"
            )
        if writes < 0 or attempts < writes:
            raise ValueError(
                f"need 0 <= writes <= attempts: {writes}, {attempts}"
            )
        self._timestep += updates
        self._state_changes += state_changes
        self._total_writes += writes
        self._write_attempts += attempts

    # ------------------------------------------------------------------
    # Space accounting (words)
    # ------------------------------------------------------------------
    def allocate(self, words: int) -> None:
        """Account for ``words`` newly-live memory words."""
        if words < 0:
            raise ValueError(f"cannot allocate negative words: {words}")
        self._current_words += words
        if self._current_words > self._peak_words:
            self._peak_words = self._current_words

    def free(self, words: int) -> None:
        """Release ``words`` previously-allocated memory words."""
        if words < 0:
            raise ValueError(f"cannot free negative words: {words}")
        if words > self._current_words:
            raise ValueError(
                f"freeing {words} words but only {self._current_words} live"
            )
        self._current_words -= words

    # ------------------------------------------------------------------
    # Distributed runs: audit merging and serialization
    # ------------------------------------------------------------------
    def merge_child(self, other: "TrackerBackend") -> None:
        """Fold a merged shard's audit into this tracker.

        Every counter is combined additively — the merged tracker
        describes the *distributed run as a whole*: its stream length,
        state changes, writes, wear histogram, and space are the sums
        over both shards (both shards' memory was live during the run,
        so peak and current words add too).  Consequently the merged
        :meth:`report` equals the elementwise sum of the shard reports.
        """
        if other is self:
            raise ValueError("cannot merge a tracker into itself")
        self._timestep += other._timestep
        self._state_changes += other._state_changes
        self._total_writes += other._total_writes
        self._write_attempts += other._write_attempts
        self._current_words += other._current_words
        self._peak_words += other._peak_words
        self._dirty = self._dirty or other._dirty

    def _histogram(self) -> dict[str, int]:
        """Per-cell mutation counts (empty unless the backend traces)."""
        return {}

    def _fresh(self) -> "TrackerBackend":
        """A new, empty backend carrying this backend's configuration."""
        return type(self)()

    def clone(self) -> "TrackerBackend":
        """Duplicate every counter into a new backend of the same mode.

        The fast-path twin of ``tracker_from_state(to_state())`` +
        :meth:`load_state`, and bit-identical to it: the dirty flag
        resets (a restored tracker never carries an in-flight update)
        and listeners are not carried over.  ``_next_cell_id`` *is*
        copied so a clone that later creates cells labels them exactly
        as the original would.
        """
        dup = self._fresh()
        dup._timestep = self._timestep
        dup._state_changes = self._state_changes
        dup._total_writes = self._total_writes
        dup._write_attempts = self._write_attempts
        dup._current_words = self._current_words
        dup._peak_words = self._peak_words
        dup._next_cell_id = self._next_cell_id
        dup._dirty = False
        return dup

    def to_state(self) -> dict:
        """Snapshot every counter into a JSON-safe dict.

        The snapshot is self-describing: the ``"backend"`` tag (plus
        budget extras, see :class:`BudgetBackend`) lets
        :func:`tracker_from_state` rebuild the same backend in another
        process, so accounting mode and budget remainders survive the
        executor round trip bit-identically.
        """
        return {
            "backend": self.kind,
            "timestep": self._timestep,
            "state_changes": self._state_changes,
            "total_writes": self._total_writes,
            "write_attempts": self._write_attempts,
            "current_words": self._current_words,
            "peak_words": self._peak_words,
            "cell_writes": dict(self._histogram()),
        }

    def load_state(self, state: dict) -> None:
        """Overwrite every counter from a :meth:`to_state` snapshot.

        Used when a sketch is restored from a checkpoint: the snapshot
        already accounts for the words the constructor re-allocated, so
        the restore replaces (not adds to) the current counters.
        """
        self._timestep = int(state["timestep"])
        self._state_changes = int(state["state_changes"])
        self._total_writes = int(state["total_writes"])
        self._write_attempts = int(state["write_attempts"])
        self._current_words = int(state["current_words"])
        self._peak_words = int(state["peak_words"])
        self._dirty = False

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def state_changes(self) -> int:
        """Number of updates whose processing mutated the state."""
        return self._state_changes

    @property
    def total_writes(self) -> int:
        """Number of cell mutations across the whole run."""
        return self._total_writes

    @property
    def peak_words(self) -> int:
        """High-water mark of live words."""
        return self._peak_words

    @property
    def current_words(self) -> int:
        """Words live right now."""
        return self._current_words

    def report(self) -> StateChangeReport:
        """Snapshot the audit into an immutable report."""
        return StateChangeReport(
            stream_length=self._timestep,
            state_changes=self._state_changes,
            total_writes=self._total_writes,
            total_write_attempts=self._write_attempts,
            peak_words=self._peak_words,
            current_words=self._current_words,
            cell_writes=dict(self._histogram()),
        )


class AggregateBackend(TrackerBackend):
    """The default fast path: scalar counters only.

    No per-cell histogram, no listener dispatch, nothing per write
    beyond two integer increments.  Registers bound to this backend
    skip cell-label construction entirely (:attr:`needs_cell_ids` is
    False), which is where most of the ingest speedup over
    :class:`TraceBackend` comes from
    (``benchmarks/bench_throughput.py``).
    """

    __slots__ = ()


class TraceBackend(TrackerBackend):
    """Full observability: per-cell wear histogram + write listeners.

    This is the substrate's historical behaviour (``StateTracker`` is
    an alias).  Audits that need :attr:`StateChangeReport.cell_writes`
    or :attr:`~StateChangeReport.max_cell_wear`, and consumers of the
    raw write trace (the NVM simulator), run on this backend.

    Parameters
    ----------
    record_cells:
        When True (default), keep the per-cell mutation histogram.
        Turn off for very large experiments where only the listener
        stream matters.
    """

    kind = "trace"
    needs_cell_ids = True

    __slots__ = ("_record_cells", "_cell_writes", "_listeners")

    def __init__(self, record_cells: bool = True) -> None:
        super().__init__()
        self._record_cells = record_cells
        self._cell_writes: Counter[str] = Counter()
        self._listeners: list[WriteListener] = []

    def record_write(self, cell_id: str, mutated: bool) -> bool:
        self._write_attempts += 1
        if mutated:
            self._total_writes += 1
            self._dirty = True
            if self._record_cells:
                self._cell_writes[cell_id] += 1
        for listener in self._listeners:
            listener(self._timestep, cell_id, mutated)
        return True

    def count_write(self, mutated: bool) -> bool:
        # Registers always hand this backend real cell ids
        # (needs_cell_ids is True); direct label-free callers still get
        # correct aggregate accounting under a synthetic label.
        return self.record_write("(untraced)", mutated)

    @property
    def has_listeners(self) -> bool:
        return bool(self._listeners)

    def record_chunk(
        self,
        updates: int,
        state_changes: int,
        writes: int,
        attempts: int,
        cell_writes: dict[str, int] | None = None,
    ) -> None:
        """Bulk accounting plus the per-cell wear histogram.

        Callers must not bulk-account while listeners are attached
        (checked here; chunked ingest already falls back on
        :attr:`has_listeners`) — a listener expects one callback per
        write, which a folded chunk cannot replay.
        """
        if self._listeners:
            raise RuntimeError(
                "cannot bulk-account a chunk while write listeners are "
                "attached; ingest through the scalar path instead"
            )
        super().record_chunk(
            updates, state_changes, writes, attempts, cell_writes
        )
        if self._record_cells and cell_writes:
            self._cell_writes.update(cell_writes)

    def add_listener(self, listener: WriteListener) -> None:
        """Subscribe ``listener`` to the raw write trace."""
        self._listeners.append(listener)

    def remove_listener(self, listener: WriteListener) -> None:
        """Unsubscribe a previously added listener."""
        self._listeners.remove(listener)

    def merge_child(self, other: TrackerBackend) -> None:
        """Fold a shard's audit in, aggregating wear by *cell label*.

        Labels are per tracker (``table[r][c]``, ``morris#0``, ...), so
        two shards' physically distinct cells with the same label sum
        into one entry — the merged ``max_cell_wear`` is a per-label
        total, not a per-device maximum.  Per-device wear bounds should
        be read off the per-shard reports, which remain exact.
        """
        super().merge_child(other)
        if self._record_cells:
            self._cell_writes.update(other._histogram())

    def _histogram(self) -> dict[str, int]:
        return self._cell_writes

    def _fresh(self) -> "TrackerBackend":
        return TraceBackend(record_cells=self._record_cells)

    def clone(self) -> "TrackerBackend":
        dup = super().clone()
        dup._cell_writes = Counter(self._cell_writes)
        return dup

    def to_state(self) -> dict:
        state = super().to_state()
        state["record_cells"] = self._record_cells
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._record_cells = bool(state.get("record_cells", True))
        self._cell_writes = Counter(
            {
                str(cell): int(count)
                for cell, count in state.get("cell_writes", {}).items()
            }
        )


#: Historical name of the full-observability tracker; every sketch
#: constructed without an explicit backend still runs on it.
StateTracker = TraceBackend


class BudgetBackend(TrackerBackend):
    """Aggregate accounting plus an enforced write budget.

    The budget caps *state changes* (the paper's ``sum_t X_t``), not
    write attempts: all mutations inside one already-admitted update
    belong to the same state change and are free.  Enforcement has two
    hooks:

    * :meth:`admit_update` — consulted by
      :meth:`~repro.state.algorithm.Sketch.process` /
      :meth:`~repro.state.algorithm.Sketch.process_many` before each
      update.  Once the budget is exhausted, ``freeze`` denies every
      further update (the sketch's memory is effectively read-only —
      no partially-applied updates, no stuck eviction loops) and
      ``degrade`` admits a geometrically thinning trickle (the 1st,
      2nd, 4th, 8th, … denied update is let through).
    * :meth:`count_write` / :meth:`record_write` / :meth:`mark_dirty`
      — the ``raise`` policy aborts precisely at the first write that
      would cause state change ``limit + 1``, and denied direct writes
      under the other policies are refused (registers do not apply
      them).

    Policy decisions are pure functions of the serialized counters, so
    a budgeted run resumed from a snapshot — or re-executed in a
    worker process — makes bit-identical admissions.
    """

    kind = "budget"

    __slots__ = (
        "_budget",
        "_limit",
        "_denied",
        "_denied_since_admit",
        "_stride",
    )

    def __init__(
        self, budget: WriteBudget | int | float | None = None
    ) -> None:
        super().__init__()
        if budget is None:
            budget = WriteBudget(math.inf)
        elif not isinstance(budget, WriteBudget):
            budget = WriteBudget(budget)
        self._budget = budget
        self._limit = budget.limit
        self._denied = 0
        self._denied_since_admit = 0
        self._stride = 1

    @property
    def budget(self) -> WriteBudget:
        """The enforced budget (immutable)."""
        return self._budget

    @property
    def exhausted(self) -> bool:
        """Whether the limit has been reached."""
        return self._state_changes >= self._limit

    @property
    def denied(self) -> int:
        """Updates (or direct writes) the policy has turned away."""
        return self._denied

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------
    def admit_update(self) -> bool:
        """Whether the next stream update may mutate state.

        The sketch's clock discipline calls this once per update; a
        denied update is skipped wholesale (its tick still advances the
        stream clock, with ``X_t = 0``).
        """
        if self._state_changes < self._limit:
            return True
        policy = self._budget.policy
        if policy == "raise":
            # Precise enforcement happens at the first mutating write
            # (a silent update after exhaustion is still legal).
            return True
        if (
            policy == "degrade"
            and self._denied_since_admit >= self._stride
        ):
            self._stride <<= 1
            self._denied_since_admit = 0
            return True
        self._denied += 1
        self._denied_since_admit += 1
        return False

    def _admit_write(self) -> bool:
        """Policy decision for a state-changing write past the limit."""
        policy = self._budget.policy
        if policy == "raise":
            raise WriteBudgetExceededError(self._limit, self._timestep)
        if policy == "degrade":
            # The update-level gate admitted this update; its writes
            # all belong to the one admitted state change.
            return True
        self._denied += 1
        return False

    def count_write(self, mutated: bool) -> bool:
        self._write_attempts += 1
        if mutated:
            if not self._dirty and self._state_changes >= self._limit:
                if not self._admit_write():
                    return False
            self._total_writes += 1
            self._dirty = True
        return True

    # ------------------------------------------------------------------
    # Bulk write path
    # ------------------------------------------------------------------
    def bulk_admit(self, k: int) -> int:
        """Prefix of the next ``k`` updates that needs no gating.

        Each update causes at most one state change, so before the
        ``i``-th update of the prefix the spent budget is at most
        ``state_changes + i - 1 < limit`` — no policy (deny or raise)
        can trigger inside it.  Once exhausted the answer is 0 and
        chunked ingest falls back to the per-update gate, which cuts
        over at the exact update index a scalar run would.
        """
        remaining = self._limit - self._state_changes
        if remaining <= 0:
            return 0
        if math.isinf(remaining):
            return k
        return min(k, int(remaining))

    def record_chunk(
        self,
        updates: int,
        state_changes: int,
        writes: int,
        attempts: int,
        cell_writes: dict[str, int] | None = None,
    ) -> None:
        if self._state_changes + state_changes > self._limit:
            raise ValueError(
                f"bulk-accounting {state_changes} state changes would "
                f"overrun the budget ({self._state_changes} of "
                f"{self._limit} spent); gate the chunk with bulk_admit()"
            )
        super().record_chunk(
            updates, state_changes, writes, attempts, cell_writes
        )

    def mark_dirty(self) -> bool:
        if not self._dirty and self._state_changes >= self._limit:
            if not self._admit_write():
                return False
        self._dirty = True
        return True

    # ------------------------------------------------------------------
    # Reporting and serialization
    # ------------------------------------------------------------------
    def budget_report(self) -> BudgetReport:
        """How the budget was spent so far."""
        return BudgetReport(
            limit=self._limit,
            policy=self._budget.policy,
            state_changes=self._state_changes,
            denied=self._denied,
            exhausted=self.exhausted,
        )

    def _fresh(self) -> "TrackerBackend":
        return BudgetBackend(self._budget)

    def clone(self) -> "TrackerBackend":
        dup = super().clone()
        dup._denied = self._denied
        dup._denied_since_admit = self._denied_since_admit
        dup._stride = self._stride
        return dup

    def merge_child(self, other: TrackerBackend) -> None:
        """Fold a shard in; per-shard limits and denials add."""
        super().merge_child(other)
        if isinstance(other, BudgetBackend):
            self._limit += other._limit
            self._denied += other._denied
            # Keep the public budget value consistent with the folded
            # limit: after a merge this tracker describes the whole
            # distributed run.
            self._budget = WriteBudget(self._limit, self._budget.policy)

    def to_state(self) -> dict:
        state = super().to_state()
        state["budget"] = {
            "limit": None if self._limit == math.inf else int(self._limit),
            "policy": self._budget.policy,
            "denied": self._denied,
            "denied_since_admit": self._denied_since_admit,
            "stride": self._stride,
        }
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        budget = state.get("budget") or {}
        limit = budget.get("limit")
        policy = budget.get("policy", self._budget.policy)
        self._budget = WriteBudget(
            math.inf if limit is None else int(limit), policy
        )
        self._limit = self._budget.limit
        self._denied = int(budget.get("denied", 0))
        self._denied_since_admit = int(budget.get("denied_since_admit", 0))
        self._stride = int(budget.get("stride", 1))


# ----------------------------------------------------------------------
# Backend construction
# ----------------------------------------------------------------------
def resolve_tracking(
    tracking: str = "aggregate",
    budget: WriteBudget | int | float | None = None,
) -> str:
    """The tracking mode a run with ``budget`` ends up on.

    Passing a ``budget`` selects the budget backend regardless of the
    default ``tracking`` value (a budget *is* a tracking mode);
    combining a budget with ``tracking="trace"`` is rejected, because
    the budget backend keeps no per-cell state.
    """
    if tracking not in TRACKING_MODES:
        raise ValueError(
            f"unknown tracking mode {tracking!r}; "
            f"choose from {TRACKING_MODES}"
        )
    if budget is None:
        return tracking
    if tracking == "trace":
        raise ValueError(
            "a write budget runs on the 'budget' backend, which keeps "
            "no per-cell trace; drop tracking= or pass tracking='budget'"
        )
    return "budget"


def make_tracker(
    tracking: str = "aggregate",
    *,
    budget: WriteBudget | int | float | None = None,
    record_cells: bool = True,
) -> TrackerBackend:
    """Build a tracker backend from a mode name and an optional
    ``budget``, resolved by :func:`resolve_tracking`."""
    mode = resolve_tracking(tracking, budget)
    if mode == "aggregate":
        return AggregateBackend()
    if mode == "trace":
        return TraceBackend(record_cells=record_cells)
    return BudgetBackend(budget)


def tracker_from_state(state: dict) -> TrackerBackend:
    """Rebuild the backend a :meth:`TrackerBackend.to_state` snapshot
    came from (mode, budget configuration), with fresh counters.

    Legacy snapshots without a ``"backend"`` tag predate the backend
    architecture, when every tracker carried the full trace semantics —
    they restore as :class:`TraceBackend`.
    """
    kind = state.get("backend", "trace")
    if kind == "aggregate":
        return AggregateBackend()
    if kind == "trace":
        return TraceBackend(
            record_cells=bool(state.get("record_cells", True))
        )
    if kind == "budget":
        budget = state.get("budget") or {}
        limit = budget.get("limit")
        return BudgetBackend(
            WriteBudget(
                math.inf if limit is None else int(limit),
                budget.get("policy", "raise"),
            )
        )
    raise ValueError(
        f"unknown tracker backend {kind!r}; choose from {TRACKING_MODES}"
    )
