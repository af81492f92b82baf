"""CountMin sketch [CM05] (Table 1, row 2).

``depth`` pairwise-independent hash rows of ``width`` counters; a point
query returns the minimum over rows, an overestimate with additive
error ``<= e*m/width`` w.p. ``1 - e^{-depth}``.  Every update increments
``depth`` cells, so the sketch makes one state change per update —
``Theta(m)`` total, the classical behaviour the paper improves on.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.baselines._merge_kernels import add_cells
from repro.hashing.prime_field import HashStack, KWiseHash
from repro.query import MultiPointQuery, PointQuery, QueryKind, ScalarAnswer
from repro.state.algorithm import StreamAlgorithm, payload_counts
from repro.state.registers import TrackedArray
from repro.state.tracker import StateTracker


class CountMin(StreamAlgorithm):
    """CountMin sketch with ``depth x width`` tracked counters.

    CountMin is a linear sketch, so two instances built with the same
    ``(width, depth, seed)`` merge by cell-wise addition and the merged
    sketch is *identical* to one that saw both streams.
    """

    name = "CountMin"
    mergeable = True
    supports = frozenset({QueryKind.POINT})

    def __init__(
        self,
        width: int,
        depth: int,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> None:
        if width < 1 or depth < 1:
            raise ValueError(f"need width, depth >= 1: {width}x{depth}")
        super().__init__(tracker)
        self.width = width
        self.depth = depth
        self.seed = 0 if seed is None else seed
        self._rows = [
            TrackedArray(self.tracker, f"cm[{r}]", width, fill=0)
            for r in range(depth)
        ]
        self._hashes = [
            KWiseHash(2, seed=self.seed + 1000 * r) for r in range(depth)
        ]
        self._stack = HashStack(self._hashes)
        # Hash descriptions occupy memory too.
        self.tracker.allocate(self._stack.description_words)

    @classmethod
    def for_accuracy(
        cls,
        epsilon: float,
        delta: float = 0.05,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> "CountMin":
        """Sketch with additive error ``eps*m`` w.p. ``1 - delta``."""
        width = max(1, int(math.ceil(math.e / epsilon)))
        depth = max(1, int(math.ceil(math.log(1.0 / delta))))
        return cls(width, depth, seed=seed, tracker=tracker)

    def _update(self, item: int) -> None:
        for row, h in zip(self._rows, self._hashes):
            bucket = h.bucket(item, self.width)
            row[bucket] = row[bucket] + 1

    def _update_chunk(self, chunk: np.ndarray) -> None:
        # Vectorized kernel: one stacked hash of every row, one bincount
        # over row-offset buckets, cells merged through the untracked
        # load path.  Every update increments depth cells (increments
        # are never silent), so the bulk audit is exact: k updates = k
        # state changes and k * depth mutating writes.
        k = len(chunk)
        tracker = self.tracker
        cells = {} if tracker.needs_cell_ids else None
        buckets = self._stack.bucket_many(chunk, self.width)
        buckets += np.arange(0, self.depth * self.width, self.width)[:, None]
        counts = np.bincount(
            buckets.ravel(), minlength=self.depth * self.width
        ).reshape(self.depth, self.width)
        for r, (row, row_counts) in enumerate(zip(self._rows, counts)):
            touched = np.flatnonzero(row_counts)
            deltas = row_counts[touched].tolist()
            touched = touched.tolist()
            row.add_at(touched, deltas)
            if cells is not None:
                for bucket, count in zip(touched, deltas):
                    cells[f"cm[{r}][{bucket}]"] = count
        writes = k * self.depth
        tracker.record_chunk(k, k, writes, writes, cells)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _answer_point(self, q: PointQuery) -> ScalarAnswer:
        """Point query: min over rows (an overestimate)."""
        item = q.item
        return ScalarAnswer(
            QueryKind.POINT,
            float(
                min(
                    row[h.bucket(item, self.width)]
                    for row, h in zip(self._rows, self._hashes)
                )
            ),
        )

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[ScalarAnswer, ...]:
        """Batch point queries: one stacked hash of every row, gathered.

        Evaluates every row's polynomial once for the whole batch
        (:meth:`~repro.hashing.prime_field.KWiseHash.bucket_many` is
        bit-identical to the scalar hash), gathers the cells, and
        reduces with ``np.minimum`` — the same integer minima the
        scalar loop takes, converted to float once at the end.
        """
        if not q.items:
            return ()
        if self.width > 64 * len(q.items):
            # Tiny batch against a wide row: materializing the row
            # costs more than the scalar hashes it saves.
            return super()._answer_point_many(q)
        items = np.asarray(q.items, dtype=np.int64)
        buckets = self._stack.bucket_many(items, self.width)
        best = np.minimum.reduce(
            [
                np.fromiter(row, dtype=np.int64, count=self.width)[row_buckets]
                for row, row_buckets in zip(self._rows, buckets)
            ]
        )
        return tuple(
            ScalarAnswer(QueryKind.POINT, float(value))
            for value in best.tolist()
        )

    def estimate(self, item: int) -> float:
        """Point query: min over rows (an overestimate)."""
        return self.query(PointQuery(item)).value

    def estimates(self, items: Iterable[int]) -> dict[int, float]:
        """Point queries for a candidate set (CountMin has no item list,
        so unlike the summary families the candidates are required)."""
        return {item: self.estimate(item) for item in items}

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    def _merge_same_type(self, other: "CountMin") -> None:
        if (other.width, other.depth, other.seed) != (
            self.width,
            self.depth,
            self.seed,
        ):
            raise ValueError(
                f"incompatible CountMin sketches: "
                f"{self.width}x{self.depth}/seed={self.seed} vs "
                f"{other.width}x{other.depth}/seed={other.seed}"
            )
        for row, other_row in zip(self._rows, other._rows):
            row.load(add_cells(row, other_row))

    def _clone_registers(self, tracker: StateTracker) -> None:
        # Rows carry the only mutable state; hash descriptions are
        # immutable and stay shared with the original.
        self._rows = [row.clone_to(tracker) for row in self._rows]

    def _config_state(self) -> dict:
        return {"width": self.width, "depth": self.depth, "seed": self.seed}

    def _payload_state(self) -> dict:
        return {"rows": [list(row) for row in self._rows]}

    def _load_payload(self, payload: dict) -> None:
        rows = payload_counts(payload, "rows", (self.depth, self.width))
        for row, values in zip(self._rows, rows.tolist()):
            row.load(values)
