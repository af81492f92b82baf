"""Public ``Lp``-heavy-hitter API (Theorem 1.1).

Reads the Algorithm 3 stack: the level-1 (unsampled) FullSampleAndHold
copies provide one-sided frequency estimates for every candidate item,
and the level-set machinery provides the ``Fp`` estimate whose ``p``-th
root is the ``||f||_p`` threshold scale.  Since both live in the same
:class:`~repro.core.fp_estimation.FpEstimator`, a single pass over the
stream answers both queries with ``Õ(n^{1-1/p})`` state changes.

Reporting rule: with a ``2``-approximation of ``||f||_p`` and one-sided
frequency estimates, returning every item with
``fhat_j >= (epsilon/2) * lp_norm_estimate`` reports all true
``epsilon``-heavy hitters and nothing below ``(epsilon/4) * ||f||_p``
(the guarantee discussed below Theorem 1.1).
"""

from __future__ import annotations

import statistics

from repro.core.fp_estimation import FpEstimator
from repro.query import (
    AllEstimates,
    MapAnswer,
    MultiPointQuery,
    PointQuery,
    QueryKind,
    ScalarAnswer,
)
from repro.query import HeavyHitters as HeavyHittersQuery


class HeavyHitters(FpEstimator):
    """One-pass ``Lp``-heavy hitters with few state changes.

    Parameters are :class:`~repro.core.fp_estimation.FpEstimator`'s;
    ``epsilon`` doubles as the default report threshold.
    """

    name = "HeavyHitters"
    supports = frozenset(
        {
            QueryKind.POINT,
            QueryKind.ALL_ESTIMATES,
            QueryKind.HEAVY_HITTERS,
            QueryKind.MOMENT,
        }
    )

    #: The median-of-copies map and the arrival clock it was built at.
    _estimate_map: tuple[int, dict[int, float]] | None = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _answer_all_estimates(self, q: AllEstimates) -> MapAnswer:
        """Median-over-copies frequency estimates from the unsampled
        (level 1) FullSampleAndHold instances.

        Estimates are one-sided: up to the Morris ``(1+eps)`` factor,
        ``fhat_j <= f_j`` always, and ``fhat_j >= (1 - eps) * f_j`` for
        heavy hitters with the theorem's probability.
        """
        return MapAnswer(QueryKind.ALL_ESTIMATES, dict(self._estimates()))

    def _estimates(self) -> dict[int, float]:
        """The median-of-copies map, built once per arrival clock of the
        estimator (state changes only as it advances); callers that
        hand it out copy it."""
        built = self._estimate_map
        if built is None or built[0] != self._t:
            built = self._estimate_map = (self._t, self._build_estimates())
        return built[1]

    def _build_estimates(self) -> dict[int, float]:
        """Median over copies of the level-1 estimates."""
        candidates: set[int] = set()
        # Point queries read the least-subsampled level that held the
        # item ("shallowest"): unless the stream's moment is so large
        # that level-1 counters churn (the regime Algorithm 2's deeper
        # levels exist for), it is the lowest-variance choice; callers
        # needing the paper's one-sided fallback can query the
        # per-level estimates with level_rule="max".
        per_copy = [
            self.level_estimates(r, 1, level_rule="shallowest")
            for r in range(self.repetitions)
        ]
        for estimates in per_copy:
            candidates.update(estimates)
        return {
            item: float(
                statistics.median(est.get(item, 0.0) for est in per_copy)
            )
            for item in candidates
        }

    def _answer_point(self, q: PointQuery) -> ScalarAnswer:
        return ScalarAnswer(
            QueryKind.POINT, self._estimates().get(q.item, 0.0)
        )

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[ScalarAnswer, ...]:
        """Batch point queries: one gather from the median-of-copies
        estimate map."""
        estimates = self._estimates()
        return tuple(
            ScalarAnswer(QueryKind.POINT, estimates.get(item, 0.0))
            for item in q.items
        )

    def _answer_heavy_hitters(self, q: HeavyHittersQuery) -> MapAnswer:
        """Items with ``fhat_j >= (phi/2) * lp_norm_estimate``.

        Contains every true ``phi``-heavy hitter (with the theorem's
        probability) and no item below ``phi/4`` of the true norm when
        the norm estimate is within a factor 2.
        """
        phi = self.epsilon if q.phi is None else q.phi
        if not 0 < phi <= 1:
            raise ValueError(f"phi must be in (0, 1]: {phi}")
        threshold = 0.5 * phi * self.lp_norm_estimate()
        return MapAnswer(
            QueryKind.HEAVY_HITTERS,
            {
                item: fhat
                for item, fhat in self._estimates().items()
                if fhat >= threshold
            },
        )

    def estimates(self) -> dict[int, float]:
        """Median-over-copies frequency estimates (see the all-estimates
        query hook for the level choice)."""
        return dict(self.query(AllEstimates()).values)

    def estimate(self, item: int) -> float:
        """Frequency estimate for one item (0 when never held)."""
        return self.query(PointQuery(item)).value

    def heavy_hitters(self, epsilon: float | None = None) -> dict[int, float]:
        """Items with ``fhat_j >= (epsilon/2) * lp_norm_estimate``."""
        return dict(self.query(HeavyHittersQuery(epsilon)).values)
