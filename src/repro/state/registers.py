"""Tracked registers: the memory cells streaming algorithms write to.

Three container shapes cover every algorithm in the library:

* :class:`TrackedValue` — a single word (a counter, a flag, a sample).
* :class:`TrackedArray` — a fixed-length array of words (a reservoir,
  a sketch row).
* :class:`TrackedDict` — a dynamic key-value store whose live size is
  charged against the space budget (the hold-counter table, Misra-Gries
  summaries).

Every mutation is routed through the owning tracker backend
(:mod:`repro.state.tracker`), which decides whether the write changed
the state — and, for budget backends, whether it may be *applied* at
all: the write methods consult the backend before storing, so an
exhausted :class:`~repro.state.tracker.BudgetBackend` can refuse
mutations and the register contents stay exactly as audited.  Writes
of an identical value are "silent": they cost a write *attempt* but
not a state change, matching the paper's definition that ``X_t = 1``
only when ``sigma_t != sigma_{t-1}``.

Each register binds its backend's write entry point once at
construction: cell-label strings (``table[3]``, ``hold[17]``) are only
built when the backend declares
:attr:`~repro.state.tracker.TrackerBackend.needs_cell_ids` — the
aggregate fast path never pays for label formatting.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

from repro.state.tracker import TrackerBackend

T = TypeVar("T")
K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class TrackedValue(Generic[T]):
    """A single tracked memory word."""

    __slots__ = ("_tracker", "_cell_id", "_value", "_count")

    def __init__(
        self, tracker: TrackerBackend, cell_id: str, initial: T
    ) -> None:
        self._tracker = tracker
        self._cell_id = cell_id
        self._value = initial
        # Bound label-free fast path; None when the backend wants ids.
        self._count = None if tracker.needs_cell_ids else tracker.count_write
        tracker.allocate(1)

    @property
    def value(self) -> T:
        """Read the cell (free under the asymmetric cost model)."""
        return self._value

    def set(self, new_value: T) -> bool:
        """Write ``new_value``; returns True iff the contents changed.

        A budget backend may refuse the write, in which case the cell
        keeps its previous contents and the method returns False.
        """
        mutated = new_value != self._value
        count = self._count
        if count is None:
            applied = self._tracker.record_write(self._cell_id, mutated)
        else:
            applied = count(mutated)
        if applied:
            self._value = new_value
            return mutated
        return False

    def load(self, value: T) -> None:
        """Overwrite the cell without touching the audit.

        Reserved for offline operations outside the streaming cost
        model — sketch merges and checkpoint restores — which must not
        be charged as stream-time writes.
        """
        self._value = value

    def clone_to(self, tracker: TrackerBackend) -> "TrackedValue[T]":
        """Duplicate this register onto an already-cloned backend.

        The clone fast path: the target tracker is a
        :meth:`~repro.state.tracker.TrackerBackend.clone` of this
        register's backend, so its word counters already cover this
        cell — no ``allocate()`` here, only a contents copy and a
        rebind of the label-free write entry point.
        """
        dup: TrackedValue[T] = TrackedValue.__new__(TrackedValue)
        dup._tracker = tracker
        dup._cell_id = self._cell_id
        dup._value = self._value
        dup._count = None if tracker.needs_cell_ids else tracker.count_write
        return dup

    def release(self) -> None:
        """Free the word (e.g. when a counter is evicted)."""
        self._tracker.free(1)

    def __repr__(self) -> str:
        return f"TrackedValue({self._cell_id}={self._value!r})"


class TrackedArray(Generic[T]):
    """A fixed-length array of tracked words (reservoirs, sketch rows)."""

    __slots__ = ("_tracker", "_name", "_cells", "_count")

    def __init__(
        self, tracker: TrackerBackend, name: str, length: int, fill: T
    ) -> None:
        if length < 0:
            raise ValueError(f"array length must be non-negative: {length}")
        self._tracker = tracker
        self._name = name
        self._cells: list[T] = [fill] * length
        self._count = None if tracker.needs_cell_ids else tracker.count_write
        tracker.allocate(length)

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, index: int) -> T:
        return self._cells[index]

    def __setitem__(self, index: int, new_value: T) -> None:
        cells = self._cells
        mutated = new_value != cells[index]
        count = self._count
        if count is None:
            applied = self._tracker.record_write(
                f"{self._name}[{index}]", mutated
            )
        else:
            applied = count(mutated)
        if applied:
            cells[index] = new_value

    def __iter__(self) -> Iterator[T]:
        return iter(self._cells)

    def index_of(self, value: T) -> int | None:
        """Linear scan for ``value``; None when absent (a read, free)."""
        try:
            return self._cells.index(value)
        except ValueError:
            return None

    def load(self, values: list[T]) -> None:
        """Replace the whole contents without touching the audit.

        Reserved for merges and checkpoint restores; the length is
        fixed at construction, so replacements must match it.
        """
        if len(values) != len(self._cells):
            raise ValueError(
                f"load of {len(values)} values into array of "
                f"length {len(self._cells)}"
            )
        self._cells = list(values)

    def add_at(self, indices, deltas) -> None:
        """Add ``deltas`` to the cells at ``indices`` without touching
        the audit.

        The bulk counterpart of per-cell ``load``: chunk kernels that
        have already accounted a whole chunk via
        :meth:`~repro.state.tracker.TrackerBackend.record_chunk` apply
        the folded per-bucket deltas here, touching only the hit cells
        — per-chunk work scales with the number of touched buckets,
        not the array width.
        """
        cells = self._cells
        for index, delta in zip(indices, deltas):
            cells[index] += delta

    def store_at(self, index: int, value: T) -> None:
        """Overwrite one cell without touching the audit.

        The single-cell counterpart of :meth:`load`, for chunk kernels
        that settle individual positions after bulk accounting
        (reservoir slots, sample-and-hold admissions).
        """
        self._cells[index] = value

    def exchange_at(self, indices: list[int], values: list[T]) -> list[T]:
        """Overwrite the cells at ``indices`` (distinct) with ``values``
        without touching the audit; returns what they held.

        The bulk counterpart of :meth:`store_at`."""
        cells = self._cells
        held = [cells[index] for index in indices]
        for index, value in zip(indices, values):
            cells[index] = value
        return held

    def clone_to(self, tracker: TrackerBackend) -> "TrackedArray[T]":
        """Duplicate this array onto an already-cloned backend.

        No ``allocate()`` (the cloned tracker's word counters already
        include the array); the cell list is copied so the clone and
        the original never share mutable storage.
        """
        dup: TrackedArray[T] = TrackedArray.__new__(TrackedArray)
        dup._tracker = tracker
        dup._name = self._name
        dup._cells = list(self._cells)
        dup._count = None if tracker.needs_cell_ids else tracker.count_write
        return dup

    def release(self) -> None:
        """Free the whole array."""
        self._tracker.free(len(self._cells))
        self._cells = []

    def __repr__(self) -> str:
        return f"TrackedArray({self._name}, len={len(self._cells)})"


class TrackedDict(Generic[K, V]):
    """A dynamic tracked map; each live entry costs ``entry_words`` words.

    Insertion allocates, deletion frees, and every value overwrite is a
    write attempt against the per-key cell.  Used for hold-counter
    tables and dictionary-based baselines.
    """

    __slots__ = ("_tracker", "_name", "_entry_words", "_data", "_count")

    def __init__(
        self, tracker: TrackerBackend, name: str, entry_words: int = 1
    ) -> None:
        if entry_words <= 0:
            raise ValueError(f"entry_words must be positive: {entry_words}")
        self._tracker = tracker
        self._name = name
        self._entry_words = entry_words
        self._data: dict[K, V] = {}
        self._count = None if tracker.needs_cell_ids else tracker.count_write

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __getitem__(self, key: K) -> V:
        return self._data[key]

    def get(self, key: K, default: V | None = None) -> V | None:
        return self._data.get(key, default)

    def __setitem__(self, key: K, value: V) -> None:
        data = self._data
        count = self._count
        if key in data:
            mutated = data[key] != value
            if count is None:
                applied = self._tracker.record_write(
                    f"{self._name}[{key!r}]", mutated
                )
            else:
                applied = count(mutated)
            if applied:
                data[key] = value
        else:
            if count is None:
                applied = self._tracker.record_write(
                    f"{self._name}[{key!r}]", True
                )
            else:
                applied = count(True)
            if applied:
                self._tracker.allocate(self._entry_words)
                data[key] = value

    def __delitem__(self, key: K) -> None:
        if key not in self._data:
            raise KeyError(key)
        count = self._count
        if count is None:
            applied = self._tracker.record_write(
                f"{self._name}[{key!r}]", True
            )
        else:
            applied = count(True)
        if applied:
            del self._data[key]
            self._tracker.free(self._entry_words)

    def pop(self, key: K) -> V:
        """Remove and return the entry for ``key``."""
        value = self._data[key]
        del self[key]
        return value

    def keys(self):
        return self._data.keys()

    def values(self):
        return self._data.values()

    def items(self):
        return self._data.items()

    def load(self, mapping: dict[K, V]) -> None:
        """Replace the whole contents without touching the audit.

        Reserved for merges and checkpoint restores.  Space accounting
        is deliberately untouched: after a merge the tracker already
        carries both shards' allocations (see
        :meth:`~repro.state.tracker.TrackerBackend.merge_child`), and a
        restore reconciles live words centrally in
        :meth:`~repro.state.algorithm.Sketch.from_state`.
        """
        self._data = dict(mapping)

    def load_update(self, mapping: dict[K, V]) -> None:
        """Merge entries in place without touching the audit.

        The bulk counterpart of per-cell ``load``: chunk kernels that
        have already accounted a segment via
        :meth:`~repro.state.tracker.TrackerBackend.record_chunk` (and
        :meth:`~repro.state.tracker.TrackerBackend.allocate` for
        inserts) apply the merged values here, touching only the
        changed entries — never copying the table.  New keys append in
        ``mapping`` order, matching scalar insertion order.
        """
        self._data.update(mapping)

    def clone_to(self, tracker: TrackerBackend) -> "TrackedDict[K, V]":
        """Duplicate this map onto an already-cloned backend.

        No per-entry ``allocate()`` (the cloned tracker already counts
        the live entries); the backing dict is copied, preserving
        insertion order.
        """
        dup: TrackedDict[K, V] = TrackedDict.__new__(TrackedDict)
        dup._tracker = tracker
        dup._name = self._name
        dup._entry_words = self._entry_words
        dup._data = dict(self._data)
        dup._count = None if tracker.needs_cell_ids else tracker.count_write
        return dup

    def clear(self) -> None:
        """Drop every entry, freeing its space.

        A budget backend that refuses the structural mutation leaves
        the contents in place.
        """
        if not self._data:
            return
        if self._tracker.mark_dirty():
            self._tracker.free(self._entry_words * len(self._data))
            self._data.clear()

    def __iter__(self) -> Iterator[K]:
        return iter(self._data)

    def __repr__(self) -> str:
        return f"TrackedDict({self._name}, entries={len(self._data)})"
