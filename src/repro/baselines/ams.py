"""AMS F2 sketch [AMS99] — the classical moment-estimation baseline.

``copies`` independent 4-wise sign hashes maintain ``Z_c = sum_i
sign_c(i) * f_i``; ``Z_c^2`` is an unbiased estimate of ``F2`` with
``Var <= 2*F2^2``, so a median of means over groups achieves
``(1 +/- eps)`` accuracy.  Every update mutates every ``Z_c``:
``Theta(m)`` state changes, the behaviour Theorem 1.3 improves on.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from repro.baselines._merge_kernels import add_cells
from repro.hashing.prime_field import PIECE_CELLS, HashStack, KWiseHash
from repro.query import Moment, MomentAnswer, QueryKind
from repro.state.algorithm import StreamAlgorithm, payload_array
from repro.state.registers import TrackedArray
from repro.state.tracker import StateTracker


class AMSSketch(StreamAlgorithm):
    """AMS ``F2`` estimator with median-of-means boosting.

    A linear sketch: instances sharing ``(num_groups, group_size,
    seed)`` merge by adding the sign-sums ``Z_c`` coordinate-wise.
    """

    name = "AMS"
    mergeable = True
    supports = frozenset({QueryKind.MOMENT})

    def __init__(
        self,
        num_groups: int,
        group_size: int,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> None:
        if num_groups < 1 or group_size < 1:
            raise ValueError(
                f"need num_groups, group_size >= 1: {num_groups}x{group_size}"
            )
        super().__init__(tracker)
        self.num_groups = num_groups
        self.group_size = group_size
        self.seed = 0 if seed is None else seed
        total = num_groups * group_size
        self._sums = TrackedArray(self.tracker, "ams", total, fill=0)
        self._signs = [
            KWiseHash(4, seed=self.seed + 37 * c) for c in range(total)
        ]
        self._stack = HashStack(self._signs)
        self.tracker.allocate(self._stack.description_words)

    @classmethod
    def for_accuracy(
        cls,
        epsilon: float,
        delta: float = 0.05,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> "AMSSketch":
        """Median of means sized for ``(1 +/- eps)`` w.p. ``1 - delta``."""
        group_size = max(1, int(math.ceil(16.0 / epsilon**2)))
        num_groups = max(1, int(math.ceil(4.0 * math.log(1.0 / delta))))
        return cls(num_groups, group_size, seed=seed, tracker=tracker)

    def _update(self, item: int) -> None:
        for c, sign_hash in enumerate(self._signs):
            self._sums[c] = self._sums[c] + sign_hash.sign(item)

    def _update_chunk(self, chunk: np.ndarray) -> None:
        # Vectorized kernel: each counter's delta is the sum of its ±1
        # signs over the chunk, hashed a stacked piece of counters at a
        # time.  Every update writes every counter (a ±1 add is never
        # silent), so the chunk costs k * num_counters mutating writes
        # and k state changes.
        k = len(chunk)
        tracker = self.tracker
        step = max(1, PIECE_CELLS // k)
        deltas = np.concatenate(
            [
                self._stack[c:c + step].sign_many(chunk).sum(axis=1)
                for c in range(0, len(self._signs), step)
            ]
        )
        self._sums.load([z + d for z, d in zip(self._sums, deltas.tolist())])
        cells = None
        if tracker.needs_cell_ids:
            cells = {f"ams[{c}]": k for c in range(len(self._signs))}
        writes = k * len(self._signs)
        tracker.record_chunk(k, k, writes, writes, cells)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _answer_moment(self, q: Moment) -> MomentAnswer:
        """Median over groups of the mean of ``Z_c^2`` within the group."""
        if q.p is not None and q.p != 2.0:
            raise ValueError(f"AMS answers only p=2 moments: {q.p}")
        group_means = []
        for g in range(self.num_groups):
            start = g * self.group_size
            values = [
                self._sums[c] ** 2 for c in range(start, start + self.group_size)
            ]
            group_means.append(sum(values) / len(values))
        return MomentAnswer(
            QueryKind.MOMENT, float(statistics.median(group_means)), p=2.0
        )

    def f2_estimate(self) -> float:
        """Median over groups of the mean of ``Z_c^2`` within the group."""
        return self.query(Moment(2.0)).value

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    def _merge_same_type(self, other: "AMSSketch") -> None:
        if (other.num_groups, other.group_size, other.seed) != (
            self.num_groups,
            self.group_size,
            self.seed,
        ):
            raise ValueError(
                f"incompatible AMS sketches: "
                f"{self.num_groups}x{self.group_size}/seed={self.seed} vs "
                f"{other.num_groups}x{other.group_size}/seed={other.seed}"
            )
        self._sums.load(add_cells(self._sums, other._sums))

    def _clone_registers(self, tracker: StateTracker) -> None:
        # The sign-sum array is the only mutable state; the sign hash
        # descriptions are immutable and stay shared.
        self._sums = self._sums.clone_to(tracker)

    def _config_state(self) -> dict:
        return {
            "num_groups": self.num_groups,
            "group_size": self.group_size,
            "seed": self.seed,
        }

    def _payload_state(self) -> dict:
        return {"sums": list(self._sums)}

    def _load_payload(self, payload: dict) -> None:
        shape = (self.num_groups * self.group_size,)
        self._sums.load(payload_array(payload, "sums", shape).tolist())
