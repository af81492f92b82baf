"""Classic reservoir sampling (Vitter's Algorithm R).

A uniform sample of ``k`` stream positions.  The expected number of
reservoir replacements after ``m`` updates is ``k * (H_m - H_k) =
O(k log m)`` — sampling is the canonical *few-state-changes* primitive
the paper builds on (Section 1.1, "Relationship with sampling").

The admission draw uses index-addressable
:class:`~repro.hashing.coins.PhiloxCoins`: the arrival with seen-count
``s >= k`` consumes the coin at index ``s`` and lands on slot
``floor(u * (s+1))``, rejected when that is ``>= k``.  Because every
coin is a pure function of its index, the chunk kernel fetches the
whole block of coins a chunk would consume in one call and replays
only the ``j < k`` acceptances scalar-style — bit-identical to the
scalar loop.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.coins import PhiloxCoins
from repro.state.algorithm import ChunkAudit, StreamAlgorithm
from repro.state.registers import TrackedArray, TrackedValue
from repro.state.tracker import StateTracker


class ReservoirSampler(StreamAlgorithm):
    """Uniform ``k``-sample of the stream with tracked slots."""

    name = "Reservoir"
    draws_coins = True

    def __init__(
        self,
        k: int,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"reservoir size must be >= 1: {k}")
        super().__init__(tracker)
        self.k = k
        self.seed = seed
        self._coins = PhiloxCoins(seed, "reservoir")
        self._slots: TrackedArray[int | None] = TrackedArray(
            self.tracker, "reservoir", k, fill=None
        )
        self._seen = TrackedValue(self.tracker, "reservoir.seen", 0)

    def _update(self, item: int) -> None:
        seen = self._seen.value
        if seen < self.k:
            self._slots[seen] = item
        else:
            # The coin at index ``seen`` picks a slot in [0, seen];
            # j >= k means rejection.
            u = self._coins.uniform(seen)
            j = min(int(u * (seen + 1)), seen)
            if j < self.k:
                self._slots[j] = item
        # The counter write makes Algorithm R Theta(m) state changes as
        # written; a Morris counter would remove this (see core/).
        self._seen.set(seen + 1)

    def _update_chunk(self, chunk: np.ndarray) -> None:
        n = len(chunk)
        seen0 = self._seen.value
        audit = ChunkAudit(n, self.tracker.needs_cell_ids)
        slots = self._slots
        # Fill phase: arrivals with seen < k land on slot ``seen``.
        fill = min(n, max(0, self.k - seen0))
        for i in range(fill):
            item = int(chunk[i])
            audit.write(f"reservoir[{seen0 + i}]", True, i)
            slots.store_at(seen0 + i, item)
        # Sampled phase: coin index == seen value, fetched as a block.
        if fill < n:
            start = seen0 + fill
            u = self._coins.uniform_block(start, n - fill)
            counts = np.arange(start + 1, seen0 + n + 1, dtype=np.float64)
            j = np.minimum(
                (u * counts).astype(np.int64), np.arange(start, seen0 + n)
            )
            accepted = np.nonzero(j < self.k)[0]
            for offset in accepted.tolist():
                pos = fill + offset
                slot = int(j[offset])
                item = int(chunk[pos])
                audit.write(
                    f"reservoir[{slot}]", slots[slot] != item, pos
                )
                slots.store_at(slot, item)
        # The seen counter mutates on every update.
        audit.attempts += n
        audit.writes += n
        audit.dirty[:] = True
        if audit.cells is not None:
            audit.cells["reservoir.seen"] = (
                audit.cells.get("reservoir.seen", 0) + n
            )
        self._seen.load(seen0 + n)
        audit.commit(self.tracker, n)

    @property
    def sample(self) -> list[int]:
        """Current reservoir contents (only filled slots)."""
        return [slot for slot in self._slots if slot is not None]
