"""Exact dictionary counter — the zero-error, maximum-write baseline.

Stores the full frequency vector.  Every update mutates a counter, so
the number of state changes equals the stream length ``m`` exactly,
anchoring the ``O(m)`` end of Table 1.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines._dict_summary import (
    DictSummaryQueries,
    dict_payload,
    load_dict_payload,
)
from repro.baselines._merge_kernels import fold_counts
from repro.query import (
    AllEstimates,
    Distinct,
    Entropy,
    Moment,
    MomentAnswer,
    PointQuery,
    QueryKind,
    ScalarAnswer,
)
from repro.state.algorithm import StreamAlgorithm
from repro.state.registers import TrackedDict
from repro.state.tracker import StateTracker


class ExactFrequencyCounter(DictSummaryQueries, StreamAlgorithm):
    """Exact frequencies via a tracked hash table (space ``O(F0)``).

    Trivially mergeable: frequency vectors add.
    """

    name = "Exact"
    mergeable = True
    # Holding the full frequency vector, it answers every query kind
    # exactly — the reference implementation of the query protocol.
    supports = frozenset(
        {
            QueryKind.POINT,
            QueryKind.ALL_ESTIMATES,
            QueryKind.MOMENT,
            QueryKind.DISTINCT,
            QueryKind.ENTROPY,
        }
    )

    def __init__(self, tracker: StateTracker | None = None) -> None:
        super().__init__(tracker)
        self._counters: TrackedDict[int, int] = TrackedDict(self.tracker, "exact")

    def _update(self, item: int) -> None:
        self._counters[item] = self._counters.get(item, 0) + 1

    def _update_chunk(self, chunk: np.ndarray) -> None:
        # Fully vectorized: exact counting has no structural decisions,
        # so the whole chunk folds through one np.unique.  Every update
        # mutates its item's counter (increment or insert): per update
        # one write attempt, one mutating write, X_t = 1; inserts
        # allocate one word each, and with no frees inside the chunk
        # the peak matches the scalar interleaving exactly.
        tracker = self.tracker
        counters = self._counters
        uniq, first_seen, counts = np.unique(
            chunk, return_index=True, return_counts=True
        )
        # Insert new keys in first-occurrence order (np.unique sorts),
        # so the payload dict — and its serialized form — is
        # bit-identical to the scalar ingest's insertion order.
        order = np.argsort(first_seen, kind="stable")
        uniq, counts = uniq[order], counts[order]
        get = counters.get
        merged: dict[int, int] = {}
        cells = {} if tracker.needs_cell_ids else None
        inserts = 0
        for item, count in zip(uniq.tolist(), counts.tolist()):
            previous = get(item)
            if previous is None:
                merged[item] = count
                inserts += 1
            else:
                merged[item] = previous + count
            if cells is not None:
                cells[f"exact[{item}]"] = count
        if inserts:
            tracker.allocate(inserts)
        # Only the touched entries are written — the table is never
        # copied, so distinct-heavy streams stay O(m) like the scalar
        # loop instead of O(distinct * chunks).
        counters.load_update(merged)
        updates = len(chunk)
        tracker.record_chunk(updates, updates, updates, updates, cells)

    # ------------------------------------------------------------------
    # Queries (point/all-estimates hooks come from DictSummaryQueries)
    # ------------------------------------------------------------------
    def _answer_moment(self, q: Moment) -> MomentAnswer:
        """Exact ``Fp`` for any order (``p=None`` defaults to 2)."""
        p = 2.0 if q.p is None else q.p
        if p == 0.0:
            value = float(len(self._counters))
        else:
            value = float(sum(count**p for count in self._counters.values()))
        return MomentAnswer(QueryKind.MOMENT, value, p=p)

    def _answer_distinct(self, q: Distinct) -> ScalarAnswer:
        return ScalarAnswer(QueryKind.DISTINCT, float(len(self._counters)))

    def _answer_entropy(self, q: Entropy) -> ScalarAnswer:
        """Exact Shannon entropy (bits) of the empirical distribution."""
        total = self._items_processed
        if total == 0:
            return ScalarAnswer(QueryKind.ENTROPY, 0.0)
        entropy = -sum(
            (count / total) * math.log2(count / total)
            for count in self._counters.values()
            if count > 0
        )
        return ScalarAnswer(QueryKind.ENTROPY, entropy)

    def estimate(self, item: int) -> float:
        """Exact frequency of ``item``."""
        return self.query(PointQuery(item)).value

    def estimates(self) -> dict[int, float]:
        """All stored frequencies (exact)."""
        return dict(self.query(AllEstimates()).values)

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    def _merge_same_type(self, other: "ExactFrequencyCounter") -> None:
        self._counters.load(fold_counts(self._counters, other._counters))

    def _clone_registers(self, tracker: StateTracker) -> None:
        self._counters = self._counters.clone_to(tracker)

    def _config_state(self) -> dict:
        return {}

    def _payload_state(self) -> dict:
        return {"counts": dict_payload(self._counters)}

    def _load_payload(self, payload: dict) -> None:
        load_dict_payload(self._counters, payload, "counts")
