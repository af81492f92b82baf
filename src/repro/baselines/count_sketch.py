"""CountSketch [CCF04] (Table 1, row 4 — the L2 baseline).

``depth`` rows of ``width`` signed counters; item ``i`` adds
``sign_r(i)`` to cell ``h_r(i)`` in every row.  A point query takes the
median over rows of ``sign_r(i) * cell``, an unbiased estimate with
additive error ``O(||f||_2 / sqrt(width))``.  Writes on every update:
``Theta(m)`` state changes.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from repro.baselines._merge_kernels import add_cells
from repro.hashing.prime_field import HashStack, KWiseHash
from repro.query import (
    Moment,
    MomentAnswer,
    MultiPointQuery,
    PointQuery,
    QueryKind,
    ScalarAnswer,
)
from repro.state.algorithm import StreamAlgorithm, payload_array
from repro.state.registers import TrackedArray
from repro.state.tracker import StateTracker


class CountSketch(StreamAlgorithm):
    """CountSketch with ``depth x width`` signed tracked counters.

    A linear sketch: instances sharing ``(width, depth, seed)`` merge
    by cell-wise addition, exactly matching a single-instance run.
    """

    name = "CountSketch"
    mergeable = True
    supports = frozenset({QueryKind.POINT, QueryKind.MOMENT})

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
            TrackedArray(self.tracker, f"cs[{r}]", width, fill=0)
            for r in range(depth)
        ]
        base = self.seed
        self._bucket_hashes = [
            KWiseHash(2, seed=base + 1000 * r) for r in range(depth)
        ]
        self._sign_hashes = [
            KWiseHash(4, seed=base + 1000 * r + 500) for r in range(depth)
        ]
        self._bucket_stack = HashStack(self._bucket_hashes)
        self._sign_stack = HashStack(self._sign_hashes)
        self.tracker.allocate(
            self._bucket_stack.description_words
            + self._sign_stack.description_words
        )

    @classmethod
    def for_accuracy(
        cls,
        epsilon: float,
        delta: float = 0.05,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> "CountSketch":
        """Sketch with additive error ``eps*||f||_2`` w.p. ``1 - delta``."""
        width = max(1, int(math.ceil(6.0 / epsilon**2)))
        depth = max(1, int(math.ceil(2.0 * math.log(1.0 / delta))))
        if depth % 2 == 0:
            depth += 1  # odd depth keeps the median well defined
        return cls(width, depth, seed=seed, tracker=tracker)

    def _update(self, item: int) -> None:
        for row, bucket_hash, sign_hash in zip(
            self._rows, self._bucket_hashes, self._sign_hashes
        ):
            bucket = bucket_hash.bucket(item, self.width)
            row[bucket] = row[bucket] + sign_hash.sign(item)

    def _update_chunk(self, chunk: np.ndarray) -> None:
        # Vectorized kernel: every row's buckets and every row's signs
        # from one stacked hash each, the signed deltas scattered with
        # one np.add.at over row-offset buckets.  Every update writes
        # ±1 to depth cells — each write mutates even when per-bucket
        # deltas net to zero across the chunk, so the audit charges one
        # write per (update, row), exactly like the scalar loop.
        k = len(chunk)
        tracker = self.tracker
        cells = {} if tracker.needs_cell_ids else None
        buckets = self._bucket_stack.bucket_many(chunk, self.width)
        cell_count = self.depth * self.width
        delta = np.zeros(cell_count, dtype=np.int64)
        np.add.at(
            delta,
            (buckets + np.arange(0, cell_count, self.width)[:, None]).ravel(),
            self._sign_stack.sign_many(chunk).ravel(),
        )
        delta = delta.reshape(self.depth, self.width)
        for r, (row, row_delta) in enumerate(zip(self._rows, delta)):
            # Touching only the net-nonzero cells is exact: a bucket
            # whose ±1s cancel keeps its value either way (the writes
            # are still charged above, like the scalar loop's).
            touched = np.flatnonzero(row_delta)
            row.add_at(touched.tolist(), row_delta[touched].tolist())
            if cells is not None:
                counts = np.bincount(buckets[r], minlength=self.width)
                for bucket in np.flatnonzero(counts).tolist():
                    cells[f"cs[{r}][{bucket}]"] = int(counts[bucket])
        writes = k * self.depth
        tracker.record_chunk(k, k, writes, writes, cells)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _answer_point(self, q: PointQuery) -> ScalarAnswer:
        """Point query: median over rows of the signed cell values."""
        item = q.item
        votes = [
            sign_hash.sign(item) * row[bucket_hash.bucket(item, self.width)]
            for row, bucket_hash, sign_hash in zip(
                self._rows, self._bucket_hashes, self._sign_hashes
            )
        ]
        return ScalarAnswer(QueryKind.POINT, float(statistics.median(votes)))

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[ScalarAnswer, ...]:
        """Batch point queries: chunked bucket + sign hashes, exact
        integer median.

        One stacked ``bucket_many`` and one stacked ``sign_many`` build
        a ``depth x batch`` vote matrix; the median is taken per column
        on sorted int64 votes — the middle element for odd depth, the
        exact integer midpoint sum divided by 2 for even depth — which
        reproduces ``statistics.median`` of the scalar loop's Python
        ints bit for bit (the division by two of an exact int64 sum is
        correctly rounded either way).
        """
        if not q.items:
            return ()
        if self.width > 64 * len(q.items):
            # Tiny batch against wide rows: materializing the rows
            # costs more than the scalar hashes it saves.
            return super()._answer_point_many(q)
        items = np.asarray(q.items, dtype=np.int64)
        buckets = self._bucket_stack.bucket_many(items, self.width)
        votes = self._sign_stack.sign_many(items)
        for row, row_buckets, row_votes in zip(self._rows, buckets, votes):
            cells = np.fromiter(row, dtype=np.int64, count=self.width)
            row_votes *= cells[row_buckets]
        votes.sort(axis=0)
        mid = self.depth // 2
        if self.depth % 2:
            medians = votes[mid].astype(np.float64)
        else:
            medians = (votes[mid - 1] + votes[mid]) / 2.0
        return tuple(
            ScalarAnswer(QueryKind.POINT, value)
            for value in medians.tolist()
        )

    def _answer_moment(self, q: Moment) -> MomentAnswer:
        """``F2``: median over rows of the row's squared mass."""
        if q.p is not None and q.p != 2.0:
            raise ValueError(f"CountSketch answers only p=2 moments: {q.p}")
        row_sums = [sum(cell * cell for cell in row) for row in self._rows]
        return MomentAnswer(
            QueryKind.MOMENT, float(statistics.median(row_sums)), p=2.0
        )

    def estimate(self, item: int) -> float:
        """Point query: median over rows of the signed cell values."""
        return self.query(PointQuery(item)).value

    def f2_estimate(self) -> float:
        """``F2`` estimate: median over rows of the row's squared mass."""
        return self.query(Moment(2.0)).value

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    def _merge_same_type(self, other: "CountSketch") -> None:
        if (other.width, other.depth, other.seed) != (
            self.width,
            self.depth,
            self.seed,
        ):
            raise ValueError(
                f"incompatible CountSketch sketches: "
                f"{self.width}x{self.depth}/seed={self.seed} vs "
                f"{other.width}x{other.depth}/seed={other.seed}"
            )
        for row, other_row in zip(self._rows, other._rows):
            row.load(add_cells(row, other_row))

    def _clone_registers(self, tracker: StateTracker) -> None:
        # Rows carry the only mutable state; the bucket and sign hash
        # descriptions are immutable and stay shared.
        self._rows = [row.clone_to(tracker) for row in self._rows]

    def _config_state(self) -> dict:
        return {"width": self.width, "depth": self.depth, "seed": self.seed}

    def _payload_state(self) -> dict:
        return {"rows": [list(row) for row in self._rows]}

    def _load_payload(self, payload: dict) -> None:
        # Cells are signed: the shape check, without the sign rule.
        rows = payload_array(payload, "rows", (self.depth, self.width))
        for row, values in zip(self._rows, rows.tolist()):
            row.load(values)
