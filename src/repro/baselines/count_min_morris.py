"""CountMin with Morris-counter cells — a sketch/sampling hybrid.

Section 1.4 of the paper observes that classical sketches (CountMin,
CountSketch, ...) "can only achieve a linear number of internal state
changes" because every update touches a cell.  A natural question the
paper leaves open is whether replacing each exact cell with a Morris
counter helps: an update then mutates a cell only when the Morris coin
lands, so *hot* cells quickly stop changing.

The answer this hybrid makes measurable (ablation A4): on skewed
streams the per-update state-change probability decays as the hot
cells' levels grow, so total state changes become sublinear in ``m`` —
but on near-uniform streams every row still hosts cold cells and the
behaviour stays ``Θ(m)``.  The paper's sample-and-hold approach is
sublinear regardless of skew, which is exactly the separation A4
demonstrates.

Coins: the cells are the rows of one
:class:`~repro.core.counters.HeldTable` -- row ``r * width + c`` is cell
``cmm[r][c]``, counting arrivals down to geometric thresholds drawn
from the index-addressable level-coin stream labelled by its cell id --
so the chunk kernel hands the table every (cell, position) arrival of a
chunk in one :meth:`~repro.core.counters.HeldTable.settle`, which
climbs all touched cells in ``O(levels climbed)`` — bit-identical to
the scalar loop.  Merges draw from a dedicated ``cmm.merge`` stream
with a serialized draw counter, keeping the executor round trip
deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.counters import HeldTable
from repro.hashing.coins import PhiloxCoins, stream_key
from repro.hashing.prime_field import HashStack, KWiseHash
from repro.query import MultiPointQuery, PointQuery, QueryKind, ScalarAnswer
from repro.state.algorithm import ChunkAudit, StreamAlgorithm, payload_counts
from repro.state.tracker import StateTracker


class _Cells(HeldTable):
    """The sketch's cells: row ``r * width + c`` is cell ``cmm[r][c]``,
    numbered by its position rather than by the tracker, so its id is
    the same on any tracker it is restored onto."""

    __slots__ = ("width",)

    def __init__(
        self, tracker: StateTracker, a: float, width: int, depth: int, seed: int
    ) -> None:
        super().__init__(tracker, a)
        self.width = width
        for cell in range(depth * width):
            self.open(stream_key(seed, self.label(cell)), 0, cell)

    def label(self, cell: int) -> str:
        row, column = divmod(cell, self.width)
        return f"cmm[{row}][{column}]"


class CountMinMorris(StreamAlgorithm):
    """CountMin whose cells are Morris counters.

    Point queries remain (probably) overestimates in expectation —
    each cell unbiasedly estimates the hashed-in mass — but inherit the
    Morris multiplicative noise ``~sqrt(a/2)``.
    """

    name = "CountMin-Morris"
    mergeable = True
    supports = frozenset({QueryKind.POINT})
    draws_coins = True

    def __init__(
        self,
        width: int,
        depth: int,
        a: float = 0.125,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> None:
        if width < 1 or depth < 1:
            raise ValueError(f"need width, depth >= 1: {width}x{depth}")
        super().__init__(tracker)
        self.width = width
        self.depth = depth
        self.a = a
        self.seed = 0 if seed is None else seed
        base = self.seed
        self._cells = _Cells(self.tracker, a, width, depth, base)
        self._merge_coins = PhiloxCoins(base, "cmm.merge")
        self._merge_draws = 0
        self._hashes = [KWiseHash(2, seed=base + 1000 * r) for r in range(depth)]
        self._stack = HashStack(self._hashes)
        self.tracker.allocate(self._stack.description_words)

    @classmethod
    def for_accuracy(
        cls,
        epsilon: float,
        delta: float = 0.05,
        a: float = 0.125,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> "CountMinMorris":
        """Same sizing rule as exact CountMin."""
        width = max(1, int(math.ceil(math.e / epsilon)))
        depth = max(1, int(math.ceil(math.log(1.0 / delta))))
        return cls(width, depth, a=a, seed=seed, tracker=tracker)

    def _update(self, item: int) -> None:
        for offset, h in zip(self._offsets, self._hashes):
            self._cells.add(offset + h.bucket(item, self.width))

    def _update_chunk(self, chunk: np.ndarray) -> None:
        n = len(chunk)
        audit = ChunkAudit(n, self.tracker.needs_cell_ids)
        # Every row's arrivals, row by row and each in stream order.
        cells = self._stack.bucket_many(chunk, self.width)
        cells += np.array(self._offsets)[:, None]
        self._cells.settle(
            cells.ravel(), np.tile(np.arange(n), self.depth), audit
        )
        audit.commit(self.tracker, n)

    @property
    def _offsets(self) -> range:
        """The number of each row's first cell."""
        return range(0, self.depth * self.width, self.width)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _answer_point(self, q: PointQuery) -> ScalarAnswer:
        """Point query: min over rows of the cell estimates."""
        cells = [
            offset + h.bucket(q.item, self.width)
            for offset, h in zip(self._offsets, self._hashes)
        ]
        return ScalarAnswer(
            QueryKind.POINT, float(self._cells.estimates(cells).min())
        )

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[ScalarAnswer, ...]:
        """Batch point queries: one stacked hash of every row and one
        table gather per row, each distinct level's estimate computed
        once.

        The per-cell estimate is a pure function of the counter level,
        so the gathered estimates reproduce the scalar min over rows
        exactly.
        """
        if not q.items:
            return ()
        items = np.asarray(q.items, dtype=np.int64)
        buckets = self._stack.bucket_many(items, self.width)
        best = np.minimum.reduce(
            [
                self._cells.estimates(offset + row_buckets)
                for offset, row_buckets in zip(self._offsets, buckets)
            ]
        )
        return tuple(
            ScalarAnswer(QueryKind.POINT, value)
            for value in best.tolist()
        )

    def estimate(self, item: int) -> float:
        """Point query: min over rows of the cell estimates."""
        return self.query(PointQuery(item)).value

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    # Cells merge pairwise via the unbiased Morris merge (a weighted
    # climb by the other cell's estimate), so the merged sketch stays an
    # unbiased per-cell estimate of the combined hashed-in mass.
    def _merge_same_type(self, other: "CountMinMorris") -> None:
        if (other.width, other.depth, other.a, other.seed) != (
            self.width,
            self.depth,
            self.a,
            self.seed,
        ):
            raise ValueError(
                f"incompatible CountMin-Morris sketches: "
                f"{self.width}x{self.depth}/a={self.a}/seed={self.seed} vs "
                f"{other.width}x{other.depth}/a={other.a}/seed={other.seed}"
            )
        # One merge coin per cell the other sketch counted, in cell
        # order.
        weights = other._cells.estimates(np.arange(self.depth * self.width))
        cells = np.flatnonzero(weights > 0)
        uniforms = self._merge_coins.uniform_block(self._merge_draws, len(cells))
        self._merge_draws += len(cells)
        self._cells.merge(cells, weights[cells], uniforms)

    def _config_state(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "a": self.a,
            "seed": self.seed,
        }

    def _payload_state(self) -> dict:
        cells, shape = self._cells, (self.depth, self.width)
        size = self.depth * self.width
        return {
            "levels": cells.level[:size].reshape(shape).tolist(),
            "since": cells.since[:size].reshape(shape).tolist(),
            "merge_draws": self._merge_draws,
        }

    def _load_payload(self, payload: dict) -> None:
        shape = (self.depth, self.width)
        levels = payload_counts(payload, "levels", shape)
        since = payload_counts(payload, "since", shape)
        self._cells.restore(np.arange(levels.size), levels.ravel(), since.ravel())
        self._merge_draws = int(payload_counts(payload, "merge_draws", ()))
