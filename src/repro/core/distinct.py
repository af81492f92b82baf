"""Distinct elements (``F0``) with few state changes.

The paper's introduction singles out distinct elements as a problem
where space-optimal *sampling* algorithms — the route to few state
changes — were not known.  The k-minimum-values (KMV) sketch is,
however, naturally state-change frugal: it stores the ``k`` smallest
hash values seen, and a stream update mutates the state only when its
hash beats the current ``k``-th minimum.  Over a stream with ``F0``
distinct items the expected number of such record-breaking events is

    k + k * (H_{F0} - H_k)  =  O(k * log F0),

independent of the stream length ``m`` — the same flavour of guarantee
the paper proves for moments (and repeated items never mutate anything
at all).  The estimator is the classical ``(k-1) / v_k`` with the
``k``-th smallest unit-hash ``v_k``, giving relative error
``~1/sqrt(k)``.

This module rounds out the library's coverage of the paper's problem
family; it is an extension, not a reproduction of a specific theorem
(docs/ARCHITECTURE.md §5 indexes it as experiment E10).
"""

from __future__ import annotations

import math

import numpy as np

from repro.hashing.prime_field import KWiseHash
from repro.query import Distinct, QueryKind, ScalarAnswer
from repro.state.algorithm import StreamAlgorithm
from repro.state.registers import TrackedArray
from repro.state.tracker import StateTracker


class KMVDistinctElements(StreamAlgorithm):
    """k-minimum-values ``F0`` estimator on tracked memory.

    Parameters
    ----------
    k:
        Number of minima retained; relative error ``~1/sqrt(k)``.
    seed:
        Hash seed (the sketch is deterministic given the seed).
    """

    name = "KMV"
    mergeable = True
    supports = frozenset({QueryKind.DISTINCT})

    def __init__(
        self,
        k: int,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> None:
        if k < 2:
            raise ValueError(f"KMV needs k >= 2: {k}")
        super().__init__(tracker)
        self.k = k
        self.seed = 0 if seed is None else seed
        self._hash = KWiseHash(2, seed=self.seed)
        self.tracker.allocate(self._hash.description_words)
        # Sorted array of the k smallest unit hashes (1.0 = empty slot).
        self._minima: TrackedArray[float] = TrackedArray(
            self.tracker, "kmv", k, fill=1.0
        )
        # Shadow read-index for O(1) duplicate detection (mirrors the
        # tracked array; reads are free in the cost model).
        self._members: set[float] = set()

    @classmethod
    def for_accuracy(
        cls,
        epsilon: float,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> "KMVDistinctElements":
        """Sketch with standard error ``~epsilon``."""
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1]: {epsilon}")
        return cls(
            k=max(2, int(math.ceil(1.0 / epsilon**2))),
            seed=seed,
            tracker=tracker,
        )

    def _update(self, item: int) -> None:
        value = self._hash.unit(item)
        if value in self._members:
            return  # duplicate hash: a read, no state change
        if value >= self._minima[self.k - 1]:
            return  # not a record: a read, no state change
        # Insert into the sorted minima, dropping the old k-th value.
        evicted = self._minima[self.k - 1]
        position = self.k - 1
        while position > 0 and self._minima[position - 1] > value:
            self._minima[position] = self._minima[position - 1]
            position -= 1
        self._minima[position] = value
        if evicted < 1.0:
            self._members.discard(evicted)
        self._members.add(value)

    def _update_chunk(self, chunk: np.ndarray) -> None:
        # Candidate-filter pre-pass: hash the whole chunk vectorized,
        # then scalar-process only potential record-breakers.  The
        # k-th minimum only decreases during a chunk, so filtering on
        # its value at chunk entry is sound; the relative slack covers
        # the one-ulp difference between uint64->float64 unit hashes
        # and Python's correctly-rounded scalar division (a too-loose
        # filter only adds no-op scalar steps, never loses a record).
        # Culled updates are reads only — no writes, X_t = 0 — and are
        # bulk-ticked in one call.
        values = self._hash.unit_many(chunk)
        threshold = self._minima[self.k - 1] * (1.0 + 1e-9)
        candidates = np.flatnonzero(values < threshold)
        for position in candidates.tolist():
            self._scalar_step(int(chunk[position]))
        culled = len(chunk) - len(candidates)
        if culled:
            self.tracker.record_chunk(culled, 0, 0, 0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_minima(self) -> int:
        """How many slots are currently occupied."""
        return sum(1 for value in self._minima if value < 1.0)

    def _answer_distinct(self, q: Distinct) -> ScalarAnswer:
        """Estimated number of distinct items.

        Exact (the occupied-slot count) while fewer than ``k`` distinct
        hashes have been seen; ``(k-1)/v_k`` once the sketch is full.
        """
        occupied = self.num_minima
        if occupied < self.k:
            return ScalarAnswer(QueryKind.DISTINCT, float(occupied))
        v_k = self._minima[self.k - 1]
        if v_k <= 0.0:
            return ScalarAnswer(QueryKind.DISTINCT, float(self.k))
        return ScalarAnswer(QueryKind.DISTINCT, (self.k - 1) / v_k)

    def f0_estimate(self) -> float:
        """Estimated number of distinct items (the distinct query)."""
        return self.query(Distinct()).value

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    # Two KMV sketches over the same hash merge by taking the k smallest
    # of the union of minima — exactly the state of a single instance
    # that saw both streams.
    def _merge_same_type(self, other: "KMVDistinctElements") -> None:
        if (other.k, other.seed) != (self.k, self.seed):
            raise ValueError(
                f"incompatible KMV sketches: k={self.k}/seed={self.seed} "
                f"vs k={other.k}/seed={other.seed}"
            )
        union = {v for v in self._minima if v < 1.0}
        union.update(v for v in other._minima if v < 1.0)
        self._load_minima(sorted(union)[: self.k])

    def _load_minima(self, occupied: list[float]) -> None:
        self._minima.load(occupied + [1.0] * (self.k - len(occupied)))
        self._members = set(occupied)

    def _config_state(self) -> dict:
        return {"k": self.k, "seed": self.seed}

    def _payload_state(self) -> dict:
        return {"minima": [v for v in self._minima if v < 1.0]}

    def _load_payload(self, payload: dict) -> None:
        """Restore the minima as :meth:`_payload_state` writes them: at
        most ``k`` floats in ``[0, 1)``, strictly increasing; a
        ``ValueError`` naming the field otherwise."""
        minima = payload.get("minima")
        if not (
            isinstance(minima, list)
            and len(minima) <= self.k
            and all(isinstance(v, float) and 0.0 <= v < 1.0 for v in minima)
            and all(low < high for low, high in zip(minima, minima[1:]))
        ):
            raise ValueError(
                f"payload field 'minima': not at most {self.k} strictly "
                "increasing floats in [0, 1)"
            )
        self._load_minima(list(minima))
