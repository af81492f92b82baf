"""Algorithm 3: ``Fp`` estimation for ``p >= 1`` with few state changes.

The estimator follows the [IW05] level-set framework (Section 3.2):

1. **Universe subsampling.**  ``L`` nested subsets
   ``I_1 ⊇ I_2 ⊇ ... `` of ``[n]`` are formed by hashing, level ``l``
   keeping each element with probability ``p_l = min(1, 2^{1-l})``.
   ``R`` independent copies are kept for a median.
2. **Heavy hitters per level.**  Each surviving substream is fed to a
   ``FullSampleAndHold`` instance, which returns one-sided frequency
   estimates using few state changes (the paper's key advantage over
   plugging in AMS/p-stable style estimators, which write every
   update).
3. **Level sets.**  With a random boundary ``lambda ~ Uni[1/2, 1]``
   (Definition 3.3), items are bucketed by their estimated
   ``(fhat_j)^p`` into geometric bands ``[lambda*M/2^i, 2*lambda*M/2^i)``.
   Band ``i`` is read from subsampling level ``l(i) = max(1, i -
   offset)`` and its contribution is the rescaled median
   ``C_i = (1/p_l) * median_r sum (fhat_j)^p`` (Algorithm 3 line 13).
4. **Sum.**  ``Fp_hat = sum_i C_i`` (line 14).

Steps 3-4 are :class:`LevelSets`, which takes the per-level estimates
as an input: fed the ``exact`` family's counts, it checks the level-set
machinery apart from sampling noise (the tests and E3's oracle arm).
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Callable

import numpy as np

from repro.core.full_sample_and_hold import (
    FullSampleAndHold,
    share_length_table,
)
from repro.core.sample_and_hold import (
    ChunkSettle,
    SampleAndHold,
    share_held_table,
)
from repro.hashing.subsample import NestedUniverseSampler
from repro.query import Moment, MomentAnswer, QueryKind
from repro.state.algorithm import ChunkAudit, StreamAlgorithm
from repro.state.tracker import StateTracker

#: Constant ``c`` in the band-to-level offset ``floor(log2(c * log2(nm)
#: / eps^2))``: the practical stand-in for Algorithm 3 line 12's
#: ``gamma^2 log(nm)/eps^2`` (docs/ARCHITECTURE.md §2, deviation 1).
OFFSET_SCALE = 1.0


class LevelSets:
    """Algorithm 3 lines 8-14: ``Fp`` from per-level frequency
    estimates, ``Fp_hat = sum_i C_i`` over :meth:`contributions`.

    Draws Definition 3.3's boundary ``lambda``, then one
    universe-sampler seed per copy, from ``rng``; :class:`FpEstimator`
    draws its grid seeds next, so ``LevelSets(..., random.Random(seed))``
    has the estimator's ``lambda`` and samplers for the same ``seed``.
    The arguments are the estimator's.
    """

    def __init__(
        self,
        n: int,
        m: int,
        p: float,
        epsilon: float,
        rng: random.Random,
        repetitions: int,
        num_levels: int | None = None,
    ) -> None:
        self.m = m
        self.p = p
        if repetitions % 2 == 0:
            repetitions += 1
        self.repetitions = repetitions
        # Definition 3.3's randomized boundary.
        self._lambda = rng.uniform(0.5, 1.0)
        if num_levels is None:
            num_levels = max(1, int(math.ceil(math.log2(max(2, n)))) + 1)
        self.num_levels = num_levels
        log_nm = math.log2(2 + n * m)
        self._offset = max(
            0, int(math.floor(math.log2(OFFSET_SCALE * log_nm / epsilon**2)))
        )
        self.samplers = [
            NestedUniverseSampler(num_levels, seed=rng.randrange(2**62))
            for _ in range(repetitions)
        ]

    def _band_of(self, value_p: float, m_tilde: float) -> int | None:
        """Band index ``i >= 1`` with ``value_p`` in
        ``[lambda*M/2^i, 2*lambda*M/2^i)``; None if out of range."""
        if value_p <= 0:
            return None
        top = 2.0 * self._lambda * m_tilde
        if value_p >= top:
            return 1  # clamp overshoots into the first band
        i = int(math.floor(math.log2(top / value_p)))
        return max(1, i)

    def level_for_band(self, band: int) -> int:
        """Algorithm 3 line 12: subsampling level read by band ``i``."""
        return min(self.num_levels, max(1, band - self._offset))

    def contributions(
        self, level_estimates: Callable[[int, int], dict[int, float]]
    ) -> dict[int, float]:
        """Per-band contribution estimates ``C_i`` (line 13).

        ``level_estimates(r, level)`` is copy ``r``'s frequency
        estimates at universe level ``level``; it is called once per
        (copy, level) a band reads, and its order is the summation
        order.
        """
        m_tilde = 2.0 ** math.ceil(self.p * math.log2(max(2, self.m)))
        num_bands = int(math.ceil(math.log2(m_tilde))) + 2
        cache: dict[tuple[int, int], dict[int, float]] = {}
        contributions: dict[int, float] = {}
        for band in range(1, num_bands + 1):
            level = self.level_for_band(band)
            rate = min(1.0, 2.0 ** (1 - level))
            per_copy = []
            for r in range(self.repetitions):
                if (r, level) not in cache:
                    cache[r, level] = level_estimates(r, level)
                total = 0.0
                for fhat in cache[r, level].values():
                    value_p = fhat**self.p
                    if self._band_of(value_p, m_tilde) == band:
                        total += value_p
                per_copy.append(total / rate)
            contributions[band] = float(statistics.median(per_copy))
        return contributions


class FpEstimator(StreamAlgorithm):
    """``(1 + eps)``-approximation of ``Fp`` for ``p >= 1`` (Theorem 1.3).

    Parameters
    ----------
    n, m, p, epsilon:
        Problem dimensions (``m`` is the stream-length hint used to
        size substructures and the level-set scale).
    repetitions:
        Outer repetitions ``R`` (median over universe-subsampling
        copies); odd.  Default 3.
    inner_kwargs:
        Extra keyword arguments forwarded to each inner
        :class:`FullSampleAndHold`.
    """

    name = "FpEstimator"
    supports = frozenset({QueryKind.MOMENT})
    draws_coins = True

    def __init__(
        self,
        n: int,
        m: int,
        p: float,
        epsilon: float,
        repetitions: int = 3,
        num_levels: int | None = None,
        seed: int | None = None,
        tracker: StateTracker | None = None,
        inner_kwargs: dict | None = None,
    ) -> None:
        if p < 1:
            raise ValueError(
                f"Algorithm 3 needs p >= 1 (use PStableFpEstimator for p < 1): {p}"
            )
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1]: {epsilon}")
        super().__init__(tracker)
        self.n = n
        self.m = m
        self.p = p
        self.epsilon = epsilon
        rng = random.Random(seed)
        self._levels = LevelSets(n, m, p, epsilon, rng, repetitions, num_levels)
        self.repetitions = self._levels.repetitions
        self.num_levels = self._levels.num_levels
        # Arrival clock, advanced before each update reaches a grid,
        # and the band contributions with the clock they were built at.
        self._t = 0
        self._contributions: tuple[int, dict[int, float]] | None = None
        inner_kwargs = dict(inner_kwargs or {})
        # Moment sums aggregate many small estimates, so the inner
        # instances default to the shallowest-held-level rule: maxing
        # rescaled noisy levels is upward biased, and the paper's
        # min-length rule selects needlessly deep (noisy) levels at
        # laptop scale.  Heavy-hitter point queries override to "max".
        inner_kwargs.setdefault("level_rule", "shallowest")
        self._backends: list[list[FullSampleAndHold]] = [
            [
                FullSampleAndHold(
                    n=max(2, n >> (level - 1)),
                    m=max(1, int(round(m * min(1.0, 2.0 ** (1 - level))))),
                    p=p,
                    epsilon=epsilon,
                    seed=rng.randrange(2**62),
                    tracker=self.tracker,
                    **inner_kwargs,
                )
                for level in range(1, self.num_levels + 1)
            ]
            for _ in range(self.repetitions)
        ]
        # Every grid's instances hold their counters in one table, and
        # every grid's length counters are rows of another: the chunk
        # kernel settles each table at once.
        grids = [grid for row in self._backends for grid in row]
        share_held_table([leaf for grid in grids for leaf in grid.leaves()])
        share_length_table(grids)

    # ------------------------------------------------------------------
    # Stream processing (Algorithm 3 lines 2-7)
    # ------------------------------------------------------------------
    def _update(self, item: int) -> None:
        self._t += 1
        for r, sampler in enumerate(self._levels.samplers):
            deepest = sampler.level_of(item)
            row = self._backends[r]
            for level_index in range(min(deepest, self.num_levels)):
                row[level_index]._update(item)

    def _update_chunk(self, chunk: np.ndarray) -> None:
        """Route the chunk down the universe levels, then settle every
        grid's instances in one pass over one shared audit."""
        self._t += len(chunk)
        audit = ChunkAudit(len(chunk), self.tracker.needs_cell_ids)
        ChunkSettle(chunk, self._route(chunk, audit), audit).run()
        audit.commit(self.tracker, len(chunk))

    def _route(
        self, chunk: np.ndarray, audit: ChunkAudit
    ) -> list[tuple[SampleAndHold, np.ndarray]]:
        """The chunk's routes to every grid's instances, in the scalar
        (repetition, level, grid repetition, grid level) order; every
        grid's length-counter arrivals settle here, in one call on
        their shared table, and their arrays are freed before the
        instances settle.

        Universe levels come from one ``levels_many`` per copy over the
        chunk's distinct items, equal to the scalar ``level_of``.
        """
        distinct, inverse = np.unique(chunk, return_inverse=True)
        routes: list[tuple[SampleAndHold, np.ndarray]] = []
        lengths: list[tuple[np.ndarray, np.ndarray]] = []
        for sampler, row in zip(self._levels.samplers, self._backends):
            deepest = sampler.levels_many(distinct)[inverse]
            for level_index, backend in enumerate(row):
                positions = np.flatnonzero(deepest > level_index)
                if len(positions) == 0:
                    break  # universe levels are nested
                lengths.append(backend._route_chunk(positions, routes))
        self._backends[0][0]._lengths.settle(
            *(np.concatenate(column) for column in zip(*lengths)), audit
        )
        return routes

    # ------------------------------------------------------------------
    # Level-set estimation (Algorithm 3 lines 8-14)
    # ------------------------------------------------------------------
    def contributions(self) -> dict[int, float]:
        """Per-band contribution estimates ``C_i`` (line 13), built once
        per arrival clock."""
        built = self._contributions
        if built is None or built[0] != self._t:
            built = self._contributions = (self._t, self._build_contributions())
        return dict(built[1])

    def _build_contributions(self) -> dict[int, float]:
        return self._levels.contributions(
            lambda r, level: self._backends[r][level - 1].estimates()
        )

    def _answer_moment(self, q: Moment) -> MomentAnswer:
        """``Fp_hat = sum_i C_i`` (Algorithm 3 line 14)."""
        if q.p is not None and q.p != self.p:
            raise ValueError(
                f"this estimator is configured for p={self.p}, not p={q.p}"
            )
        return MomentAnswer(
            QueryKind.MOMENT, sum(self.contributions().values()), p=self.p
        )

    def fp_estimate(self) -> float:
        """``Fp_hat = sum_i C_i`` (Algorithm 3 line 14)."""
        return self.query(Moment()).value

    def lp_norm_estimate(self) -> float:
        """``||f||_p`` estimate: ``fp_estimate() ** (1/p)``."""
        return self.fp_estimate() ** (1.0 / self.p)

    def level_estimates(
        self, r: int, level: int, level_rule: str | None = None
    ) -> dict[int, float]:
        """Raw per-backend estimates (for point queries and tests)."""
        return self._backends[r][level - 1].estimates(level_rule)
