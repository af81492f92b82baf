"""SpaceSaving heavy hitters [MAA05] (Table 1, row 3).

Keeps exactly ``k`` (item, count) pairs.  A tracked item increments its
counter; an untracked item *replaces* the minimum-count entry and
inherits its count plus one.  Estimates are overestimates with error at
most ``m/k``.  Like Misra–Gries it writes on every update —
``Theta(m)`` state changes.
"""

from __future__ import annotations

import numpy as np

from repro.baselines._dict_summary import (
    DictSummaryQueries,
    chunk_with_tracked_segments,
    dict_payload,
    load_dict_payload,
)
from repro.baselines._merge_kernels import top_k
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


class SpaceSaving(DictSummaryQueries, StreamAlgorithm):
    """SpaceSaving summary with ``k`` counters.

    Mergeable with the parallel-SpaceSaving rule [CPE16]: over the
    union of tracked items, an item absent from a *full* summary
    contributes that summary's minimum count (it may have been evicted
    holding up to that much mass) and the ``k`` largest combined
    counts survive.  Merged estimates stay overestimates and the
    additive error is bounded by the sum of the shards' bounds.
    """

    name = "SpaceSaving"
    mergeable = True
    supports = frozenset(
        {QueryKind.POINT, QueryKind.ALL_ESTIMATES, QueryKind.HEAVY_HITTERS}
    )

    def __init__(self, k: int, tracker: StateTracker | None = None) -> None:
        if k < 1:
            raise ValueError(f"SpaceSaving needs k >= 1: {k}")
        super().__init__(tracker)
        self.k = k
        self._counters: TrackedDict[int, int] = TrackedDict(self.tracker, "ss")

    def _update(self, item: int) -> None:
        if item in self._counters:
            self._counters[item] = self._counters[item] + 1
        elif len(self._counters) < self.k:
            self._counters[item] = 1
        else:
            victim = min(self._counters, key=self._counters.__getitem__)
            inherited = self._counters[victim]
            del self._counters[victim]
            self._counters[item] = inherited + 1

    def _update_chunk(self, chunk: np.ndarray) -> None:
        # Candidate-filter pre-pass: segments of already-tracked items
        # bulk-increment; untracked items replay scalar.  A structural
        # step either inserts into a free slot (table grows, no key
        # leaves) or replaces the minimum (table size unchanged, the
        # victim's key leaves) — so the segment mask stays valid
        # exactly while the table keeps growing.
        chunk_with_tracked_segments(
            self, chunk, "ss", lambda before, after: after <= before
        )

    # ------------------------------------------------------------------
    # Queries (point/all-estimates hooks come from DictSummaryQueries)
    # ------------------------------------------------------------------
    def _answer_heavy_hitters(self, q: HeavyHitters) -> MapAnswer:
        """Tracked items with ``fhat >= phi * m`` (default ``phi=1/k``).

        Estimates are overestimates (``fhat >= f``), so the raw
        ``phi*m`` threshold already reports every true ``phi``-heavy
        hitter — no false negatives."""
        phi = (1.0 / self.k) if q.phi is None else q.phi
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1]: {phi}")
        threshold = phi * self.items_processed
        return MapAnswer(
            QueryKind.HEAVY_HITTERS,
            {
                item: float(count)
                for item, count in self._counters.items()
                if count >= threshold
            },
        )

    def estimate(self, item: int) -> float:
        """Overestimate of ``f_item`` (within ``m/k`` of the truth)."""
        return self.query(PointQuery(item)).value

    def estimates(self) -> dict[int, float]:
        """All currently tracked (item, count) pairs."""
        return dict(self.query(AllEstimates()).values)

    def heavy_hitters(self, phi: float | None = None) -> dict[int, float]:
        """Tracked items with count at least ``phi * m``."""
        return dict(self.query(HeavyHitters(phi)).values)

    def additive_error_bound(self) -> float:
        """Worst-case overestimation ``m/k`` after ``m`` updates."""
        return self.items_processed / self.k

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    def _merge_same_type(self, other: "SpaceSaving") -> None:
        if other.k != self.k:
            raise ValueError(
                f"incompatible SpaceSaving summaries: k={self.k} vs "
                f"k={other.k}"
            )
        mine = dict(self._counters.items())
        theirs = dict(other._counters.items())
        # An item missing from a full summary may have been evicted
        # holding up to that summary's minimum count, so it counts as
        # the minimum rather than zero — otherwise a heavy item evicted
        # on one shard loses its mass and the overestimate invariant.
        floor_mine = min(mine.values()) if len(mine) >= self.k else 0
        floor_theirs = min(theirs.values()) if len(theirs) >= self.k else 0
        combined = {
            item: mine.get(item, floor_mine) + theirs.get(item, floor_theirs)
            for item in mine.keys() | theirs.keys()
        }
        if len(combined) > self.k:
            combined = top_k(combined, self.k)
        self._counters.load(combined)

    def _clone_registers(self, tracker: StateTracker) -> None:
        self._counters = self._counters.clone_to(tracker)

    def _config_state(self) -> dict:
        return {"k": self.k}

    def _payload_state(self) -> dict:
        return {"counters": dict_payload(self._counters)}

    def _load_payload(self, payload: dict) -> None:
        load_dict_payload(self._counters, payload, "counters", self.k)
