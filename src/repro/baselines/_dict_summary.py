"""Shared helpers for the dict-backed summaries.

``ExactFrequencyCounter``, ``MisraGries`` and ``SpaceSaving`` all keep
an (item → count) :class:`~repro.state.registers.TrackedDict` in
``self._counters``; the point/all-estimates query hooks, the add-merge
over two summaries, and the ``[[item, count], ...]`` payload round-trip
are identical across them and live here so the family-specific rules
(heavy-hitter thresholds, k-th-largest subtraction, minimum floors) stay
the only per-class code.
"""

from __future__ import annotations

import numpy as np

from repro.query import (
    AllEstimates,
    MapAnswer,
    MultiPointQuery,
    PointQuery,
    QueryKind,
    ScalarAnswer,
)
from repro.state.algorithm import payload_array


class DictSummaryQueries:
    """Query hooks shared by the (item → count) summary families.

    Mixed in before :class:`~repro.state.algorithm.Sketch`; expects
    the counters in ``self._counters``.
    """

    def _answer_point(self, q: PointQuery) -> ScalarAnswer:
        return ScalarAnswer(
            QueryKind.POINT, float(self._counters.get(q.item, 0))
        )

    def _answer_all_estimates(self, q: AllEstimates) -> MapAnswer:
        return MapAnswer(
            QueryKind.ALL_ESTIMATES,
            {item: float(count) for item, count in self._counters.items()},
        )

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[ScalarAnswer, ...]:
        """Batch point queries: one bulk lookup pass over the summary
        (no per-item query construction or dispatch)."""
        get = self._counters.get
        return tuple(
            ScalarAnswer(QueryKind.POINT, float(get(item, 0)))
            for item in q.items
        )


#: Shortest tracked segment worth bulk-incrementing: below this the
#: np.unique + dict-merge machinery costs more than the scalar steps
#: it replaces, so shorter segments replay scalar (same results, the
#: pre-pass then costs one membership mask and nothing else).
MIN_BULK_SEGMENT = 32


def increment_tracked_segment(counters, tracker, segment, name) -> None:
    """Bulk-increment a segment of *already-tracked* chunk items.

    A chunk update whose item is already tracked is a pure counter
    increment — one mutating write, one state change, no structural
    decision — and increments commute within a segment, so the whole
    segment folds in one step: ``np.unique`` + dict merge through the
    untracked load, then one bulk accounting call (per update: one
    write attempt, one mutating write, ``X_t = 1``; per cell, its
    occurrence count in the wear histogram).  Callers guarantee every
    segment item is currently tracked.
    """
    if not len(segment):
        return
    uniq, counts = np.unique(segment, return_counts=True)
    merged = {}
    cells = {} if tracker.needs_cell_ids else None
    for item, count in zip(uniq.tolist(), counts.tolist()):
        merged[item] = counters[item] + count
        if cells is not None:
            cells[f"{name}[{item}]"] = count
    counters.load_update(merged)  # touched entries only, no table copy
    run = len(segment)
    tracker.record_chunk(run, run, run, run, cells)


def chunk_with_tracked_segments(
    sketch, chunk, name, keys_removed
) -> None:
    """Candidate-filter chunk kernel for the (item → count) summaries.

    One membership pre-pass over the chunk (``np.isin`` against the
    tracked set at chunk entry) splits it into segments of tracked
    items — bulk-incremented via :func:`increment_tracked_segment` —
    separated by *untracked* items, which replay through the scalar
    step (insert / eviction / decrement-all, the structural moves).

    The pre-pass mask is sound only while no key leaves the tracked
    set: structural steps may *insert* keys (a stale ``False`` merely
    sends that item down the scalar path, which handles tracked items
    too), but a *removal* could leave a stale ``True``.  After each
    structural step the family-specific ``keys_removed(len_before,
    len_after)`` predicate decides whether the mask is still valid;
    once keys have been removed, the rest of the chunk is replayed
    scalar.
    """
    counters = sketch._counters
    if len(counters):
        keys = np.fromiter(
            counters.keys(), dtype=np.int64, count=len(counters)
        )
        mask = np.isin(chunk, keys)
        breaks = np.flatnonzero(~mask).tolist()
    else:
        breaks = list(range(len(chunk)))
    tracker = sketch.tracker
    # Bound-local scalar loop, same shape as process_many's hot loop
    # (the replayed remainder must not pay method-dispatch per item).
    update = sketch._update
    tick = tracker.tick
    admit = getattr(tracker, "admit_update", None)

    def scalar_run(items: list[int]) -> None:
        if admit is None:
            for item in items:
                update(item)
                tick()
        else:
            for item in items:
                if admit():
                    update(item)
                tick()

    def apply_segment(low: int, high: int) -> None:
        if high - low >= MIN_BULK_SEGMENT:
            increment_tracked_segment(
                counters, tracker, chunk[low:high], name
            )
        else:  # too short for the bulk machinery to pay off
            scalar_run(chunk[low:high].tolist())

    position = 0
    total = len(chunk)
    for break_at in breaks:
        apply_segment(position, break_at)
        len_before = len(counters)
        if admit is None or admit():
            update(int(chunk[break_at]))
        tick()
        position = break_at + 1
        if keys_removed(len_before, len(counters)):
            scalar_run(chunk[position:].tolist())
            return
    apply_segment(position, total)


def added_counts(mine, theirs) -> dict[int, int]:
    """Entrywise sum of two (item → count) mappings."""
    combined = dict(mine.items())
    for item, count in theirs.items():
        combined[item] = combined.get(item, 0) + count
    return combined


def dict_payload(cells) -> list[list[int]]:
    """JSON-safe ``[[item, count], ...]`` snapshot of a tracked dict."""
    return [[item, count] for item, count in cells.items()]


def load_dict_payload(
    cells, payload: dict, field: str, capacity: int | None = None
) -> None:
    """Restore a :func:`dict_payload` snapshot from ``payload[field]``
    (untracked load): integer ``[item, count]`` pairs with distinct
    items and counts of at least 1, at most ``capacity`` of them when
    given.  Anything else raises a ``ValueError`` naming the field, so
    a payload the summary could never hold fails at restore, not
    later."""
    try:
        count = len(payload[field])
    except (KeyError, TypeError) as error:
        raise ValueError(f"payload field {field!r}: no [item, count] pairs") from error
    pairs = (
        payload_array(payload, field, (count, 2))
        if count
        else np.zeros((0, 2), dtype=np.int64)
    )
    items, counts = pairs.T
    if capacity is not None and count > capacity:
        raise ValueError(
            f"payload field {field!r}: {count} counters, more than {capacity}"
        )
    if (counts < 1).any():
        raise ValueError(f"payload field {field!r}: a count below 1")
    if len(np.unique(items)) != count:
        raise ValueError(f"payload field {field!r}: a repeated item")
    cells.load(dict(zip(items.tolist(), counts.tolist())))
