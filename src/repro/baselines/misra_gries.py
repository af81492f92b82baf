"""Misra–Gries deterministic heavy hitters [MG82] (Table 1, row 1).

Maintains at most ``k - 1`` counters; a stream update either increments
its item's counter, inserts it if a slot is free, or decrements *every*
counter by one.  Estimates satisfy ``f_i - m/k <= fhat_i <= f_i``, so
``k = 2/eps`` solves the ``L1``-heavy-hitter problem.  Every update
writes, so the algorithm makes ``Theta(m)`` state changes — the
behaviour the paper contrasts against.
"""

from __future__ import annotations

import numpy as np

from repro.baselines._dict_summary import (
    DictSummaryQueries,
    chunk_with_tracked_segments,
    dict_payload,
    load_dict_payload,
)
from repro.baselines._merge_kernels import fold_counts, subtract_kth
from repro.query import (
    AllEstimates,
    HeavyHitters,
    MapAnswer,
    PointQuery,
    QueryKind,
)
from repro.state.algorithm import StreamAlgorithm
from repro.state.registers import TrackedDict
from repro.state.tracker import StateTracker


class MisraGries(DictSummaryQueries, StreamAlgorithm):
    """Misra–Gries summary with ``k - 1`` counters.

    Mergeable per [ACHPWY12] ("Mergeable Summaries"): add the two
    summaries' counters, then subtract the ``k``-th largest combined
    count from every entry and drop the non-positive ones.  The merged
    summary keeps the ``f_i - (m_1 + m_2)/k <= fhat_i <= f_i``
    guarantee of a single instance over the concatenated stream.
    """

    name = "Misra-Gries"
    mergeable = True
    supports = frozenset(
        {QueryKind.POINT, QueryKind.ALL_ESTIMATES, QueryKind.HEAVY_HITTERS}
    )

    def __init__(self, k: int, tracker: StateTracker | None = None) -> None:
        if k < 2:
            raise ValueError(f"Misra-Gries needs k >= 2: {k}")
        super().__init__(tracker)
        self.k = k
        self._counters: TrackedDict[int, int] = TrackedDict(self.tracker, "mg")

    def _update(self, item: int) -> None:
        if item in self._counters:
            self._counters[item] = self._counters[item] + 1
        elif len(self._counters) < self.k - 1:
            self._counters[item] = 1
        else:
            # Decrement-all; counters hitting zero are evicted.
            expired = []
            for tracked, count in self._counters.items():
                if count == 1:
                    expired.append(tracked)
                else:
                    self._counters[tracked] = count - 1
            for tracked in expired:
                del self._counters[tracked]

    def _update_chunk(self, chunk: np.ndarray) -> None:
        # Candidate-filter pre-pass: segments of already-tracked items
        # bulk-increment; untracked items replay scalar.  A structural
        # step removes keys only via decrement-all evictions, which
        # shrink the table — inserts only grow it — so the segment
        # mask stays valid exactly while the length never drops.
        chunk_with_tracked_segments(
            self, chunk, "mg", lambda before, after: after < before
        )

    # ------------------------------------------------------------------
    # Queries (point/all-estimates hooks come from DictSummaryQueries)
    # ------------------------------------------------------------------
    def _answer_heavy_hitters(self, q: HeavyHitters) -> MapAnswer:
        """Tracked items that may be ``phi``-heavy (default ``phi=1/k``).

        Counters underestimate by at most ``m/k``, so a true
        ``phi``-heavy hitter (``f >= phi*m``) is guaranteed a counter
        of at least ``(phi - 1/k)*m`` — that is the report threshold
        (no false negatives).  With the default ``phi = 1/k`` the
        threshold is 0: every survivor is a candidate, which is all a
        ``k``-counter summary can certify.
        """
        phi = (1.0 / self.k) if q.phi is None else q.phi
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1]: {phi}")
        threshold = max(0.0, phi - 1.0 / self.k) * self.items_processed
        return MapAnswer(
            QueryKind.HEAVY_HITTERS,
            {
                item: float(count)
                for item, count in self._counters.items()
                if count >= threshold
            },
        )

    def estimate(self, item: int) -> float:
        """Underestimate of ``f_item`` (within ``m/k`` of the truth)."""
        return self.query(PointQuery(item)).value

    def estimates(self) -> dict[int, float]:
        """All currently tracked (item, count) pairs."""
        return dict(self.query(AllEstimates()).values)

    def heavy_hitters(self, phi: float | None = None) -> dict[int, float]:
        """Tracked items with count at least ``phi * m``."""
        return dict(self.query(HeavyHitters(phi)).values)

    def additive_error_bound(self) -> float:
        """Worst-case underestimation ``m/k`` after ``m`` updates."""
        return self.items_processed / self.k

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    def _merge_same_type(self, other: "MisraGries") -> None:
        if other.k != self.k:
            raise ValueError(
                f"incompatible Misra-Gries summaries: k={self.k} vs "
                f"k={other.k}"
            )
        combined = fold_counts(self._counters, other._counters)
        if len(combined) > self.k - 1:
            # Subtract the k-th largest combined count; at most k - 1
            # entries stay positive ([ACHPWY12] merge rule).
            combined = subtract_kth(combined, self.k)
        self._counters.load(combined)

    def _clone_registers(self, tracker: StateTracker) -> None:
        self._counters = self._counters.clone_to(tracker)

    def _config_state(self) -> dict:
        return {"k": self.k}

    def _payload_state(self) -> dict:
        return {"counters": dict_payload(self._counters)}

    def _load_payload(self, payload: dict) -> None:
        load_dict_payload(self._counters, payload, "counters", self.k - 1)
