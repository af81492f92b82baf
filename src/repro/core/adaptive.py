"""Stream-length-oblivious operation (the paper's unknown-``m`` case).

The paper's model (Section 1.5) does not require the stream length in
advance; the algorithms are parameterized by ``m`` only to set sampling
rates, so the standard doubling trick applies.  This module wraps
:class:`~repro.core.full_sample_and_hold.FullSampleAndHold` in epochs:
epoch ``e`` is provisioned for ``m0 * 2^e`` updates and processes the
corresponding disjoint chunk of the stream.  Because the stream is
insertion-only, an item's true frequency is the sum of its per-epoch
frequencies, and each epoch's estimate is one-sided, so the summed
estimate inherits one-sidedness.

The total state-change budget telescopes: epoch ``e`` contributes
``Õ(n^{1-1/p})`` changes (its own guarantee), and there are
``O(log(m / m0))`` epochs, preserving the theorem's bound up to the
logarithmic factor the paper's ``Õ`` already absorbs.
"""

from __future__ import annotations

import numpy as np

from repro.core.full_sample_and_hold import FullSampleAndHold
from repro.core.sample_and_hold import ChunkSettle, SampleAndHold
from repro.query import (
    AllEstimates,
    MapAnswer,
    MultiPointQuery,
    PointQuery,
    QueryKind,
    ScalarAnswer,
)
from repro.state.algorithm import ChunkAudit, StreamAlgorithm
from repro.state.tracker import StateTracker


class AdaptiveFullSampleAndHold(StreamAlgorithm):
    """FullSampleAndHold without a stream-length hint (doubling epochs).

    Parameters
    ----------
    n, p, epsilon:
        As in :class:`FullSampleAndHold`.
    initial_m:
        Provisioned length of the first epoch (doubles thereafter).
    fsh_kwargs:
        Extra keyword arguments forwarded to each epoch's inner
        :class:`FullSampleAndHold`.
    """

    name = "AdaptiveFullSampleAndHold"
    supports = frozenset({QueryKind.POINT, QueryKind.ALL_ESTIMATES})
    draws_coins = True

    def __init__(
        self,
        n: int,
        p: float,
        epsilon: float,
        initial_m: int = 1024,
        seed: int | None = None,
        tracker: StateTracker | None = None,
        **fsh_kwargs,
    ) -> None:
        if initial_m < 1:
            raise ValueError(f"initial_m must be >= 1: {initial_m}")
        super().__init__(tracker)
        self.n = n
        self.p = p
        self.epsilon = epsilon
        self.initial_m = initial_m
        self._seed = 0 if seed is None else seed
        # Summed estimates compound any per-epoch upward bias, so the
        # conservative shallowest-level rule is the right default here.
        fsh_kwargs.setdefault("level_rule", "shallowest")
        self._fsh_kwargs = fsh_kwargs
        self._epochs: list[FullSampleAndHold] = []
        self._epoch_budget = 0  # updates remaining in the current epoch
        self._start_epoch()

    def _start_epoch(self) -> None:
        epoch_index = len(self._epochs)
        epoch_m = self.initial_m * (2**epoch_index)
        self._epochs.append(
            FullSampleAndHold(
                n=self.n,
                m=epoch_m,
                p=self.p,
                epsilon=self.epsilon,
                seed=self._seed + 101 * epoch_index,
                tracker=self.tracker,
                **self._fsh_kwargs,
            )
        )
        self._epoch_budget = epoch_m

    def _update(self, item: int) -> None:
        if self._epoch_budget == 0:
            self._start_epoch()
        self._epochs[-1]._update(item)
        self._epoch_budget -= 1

    def _update_chunk(self, chunk: np.ndarray) -> None:
        """Cut the chunk at epoch boundaries and settle each piece with
        its epoch, all on one audit.  A new epoch is built exactly where
        the scalar loop builds it — after the previous epoch's last
        arrival settled — so its allocations and cell ids interleave
        with the settles as they would there."""
        n = len(chunk)
        audit = ChunkAudit(n, self.tracker.needs_cell_ids)
        start = 0
        while start < n:
            if self._epoch_budget == 0:
                self._start_epoch()
            stop = min(n, start + self._epoch_budget)
            epoch = self._epochs[-1]
            routes: list[tuple[SampleAndHold, np.ndarray]] = []
            epoch._lengths.settle(
                *epoch._route_chunk(np.arange(start, stop), routes), audit
            )
            ChunkSettle(chunk, routes, audit).run()
            self._epoch_budget -= stop - start
            start = stop
        audit.commit(self.tracker, n)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_epochs(self) -> int:
        """Number of doubling epochs opened so far."""
        return len(self._epochs)

    def _answer_point(self, q: PointQuery) -> ScalarAnswer:
        return ScalarAnswer(
            QueryKind.POINT, self._estimates_impl(None).get(q.item, 0.0)
        )

    def _answer_all_estimates(self, q: AllEstimates) -> MapAnswer:
        return MapAnswer(QueryKind.ALL_ESTIMATES, self._estimates_impl(None))

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[ScalarAnswer, ...]:
        """Batch point queries: the per-epoch estimate merge runs once
        for the whole batch instead of once per item."""
        estimates = self._estimates_impl(None)
        return tuple(
            ScalarAnswer(QueryKind.POINT, estimates.get(item, 0.0))
            for item in q.items
        )

    def _estimates_impl(self, level_rule: str | None) -> dict[int, float]:
        """Summed per-epoch estimates (one-sided, like each epoch's)."""
        combined: dict[int, float] = {}
        for epoch in self._epochs:
            for item, value in epoch.estimates(level_rule).items():
                combined[item] = combined.get(item, 0.0) + value
        return combined

    def estimates(self, level_rule: str | None = None) -> dict[int, float]:
        """Summed per-epoch estimates (one-sided, like each epoch's)."""
        if level_rule is None:
            return dict(self.query(AllEstimates()).values)
        return self._estimates_impl(level_rule)

    def estimate(self, item: int) -> float:
        """Summed estimate for one item (0 when never held)."""
        return self.query(PointQuery(item)).value
