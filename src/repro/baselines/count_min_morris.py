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

Coins: each cell owns an index-addressable
:class:`~repro.hashing.coins.PhiloxCoins` stream labelled by its cell
id and counts arrivals down to a geometric threshold
(:class:`~repro.core.counters.SkipMorrisCounter`), so the chunk kernel
can group a chunk by bucket and absorb each cell's arrivals in
``O(levels climbed)`` — bit-identical to the scalar loop.  Merges draw
from a dedicated ``cmm.merge`` stream with a serialized draw counter,
keeping the executor round trip deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.counters import SkipMorrisCounter
from repro.hashing.coins import PhiloxCoins
from repro.hashing.prime_field import KWiseHash
from repro.query import MultiPointQuery, PointQuery, QueryKind, ScalarAnswer
from repro.state.algorithm import ChunkAudit, StreamAlgorithm
from repro.state.tracker import StateTracker


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
        self._rows = [
            [
                SkipMorrisCounter(
                    self.tracker,
                    a=a,
                    coins=PhiloxCoins(base, f"cmm[{r}][{c}]"),
                    cell_id=f"cmm[{r}][{c}]",
                )
                for c in range(width)
            ]
            for r in range(depth)
        ]
        self._merge_coins = PhiloxCoins(base, "cmm.merge")
        self._merge_draws = 0
        self._hashes = [KWiseHash(2, seed=base + 1000 * r) for r in range(depth)]
        self.tracker.allocate(sum(h.description_words for h in self._hashes))

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
        for row, h in zip(self._rows, self._hashes):
            row[h.bucket(item, self.width)].add()

    def _update_chunk(self, chunk: np.ndarray) -> None:
        n = len(chunk)
        audit = ChunkAudit(n, self.tracker.needs_cell_ids)
        for row, h in zip(self._rows, self._hashes):
            buckets = h.bucket_many(chunk, self.width)
            # Stable sort: within one bucket, positions stay in stream
            # order, so a cell's j-th absorbed arrival maps back to the
            # exact chunk position the scalar loop would have written on.
            order = np.argsort(buckets, kind="stable")
            uniq, starts = np.unique(buckets[order], return_index=True)
            ends = np.append(starts[1:], n)
            for c, lo, hi in zip(
                uniq.tolist(), starts.tolist(), ends.tolist()
            ):
                cell = row[c]
                transitions = cell.absorb(hi - lo)
                if transitions:
                    count = len(transitions)
                    audit.writes += count
                    audit.attempts += count
                    audit.dirty[
                        order[lo + np.asarray(transitions) - 1]
                    ] = True
                    if audit.cells is not None:
                        audit.cells[cell.cell_id] = (
                            audit.cells.get(cell.cell_id, 0) + count
                        )
        audit.commit(self.tracker, n)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _answer_point(self, q: PointQuery) -> ScalarAnswer:
        """Point query: min over rows of the cell estimates."""
        item = q.item
        return ScalarAnswer(
            QueryKind.POINT,
            min(
                row[h.bucket(item, self.width)].estimate
                for row, h in zip(self._rows, self._hashes)
            ),
        )

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[ScalarAnswer, ...]:
        """Batch point queries: one chunked hash per row, each touched
        cell's Morris estimate computed once and gathered.

        The per-cell ``estimate`` is a pure function of the counter
        level, so memoizing it per batch reproduces the scalar min
        over rows exactly.
        """
        if not q.items:
            return ()
        items = np.asarray(q.items, dtype=np.int64)
        best: np.ndarray | None = None
        for row, h in zip(self._rows, self._hashes):
            buckets = h.bucket_many(items, self.width)
            estimates = {
                c: row[c].estimate for c in np.unique(buckets).tolist()
            }
            values = np.array(
                [estimates[c] for c in buckets.tolist()], dtype=np.float64
            )
            best = values if best is None else np.minimum(best, values)
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
        for row, other_row in zip(self._rows, other._rows):
            for cell, other_cell in zip(row, other_row):
                weight = other_cell.estimate
                if weight > 0:
                    u = self._merge_coins.uniform(self._merge_draws)
                    self._merge_draws += 1
                    cell.merge_weight(weight, u)

    def _config_state(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "a": self.a,
            "seed": self.seed,
        }

    def _payload_state(self) -> dict:
        return {
            "levels": [[cell.level for cell in row] for row in self._rows],
            "since": [[cell.since for cell in row] for row in self._rows],
            "merge_draws": self._merge_draws,
        }

    def _load_payload(self, payload: dict) -> None:
        for row, levels, since in zip(
            self._rows, payload["levels"], payload["since"]
        ):
            for cell, level, n_since in zip(row, levels, since):
                cell.restore(level, n_since)
        self._merge_draws = int(payload.get("merge_draws", 0))
