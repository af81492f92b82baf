"""Algorithm 2: ``FullSampleAndHold`` — removing the moment assumption.

``SampleAndHold`` (Algorithm 1) is only accurate when the substream's
moment satisfies ``Fp = Õ(n)`` (Lemma 2.4).  Algorithm 2 lifts that
assumption by running a grid of ``R x Y`` SampleAndHold instances,
where instance ``(r, x)`` processes the substream obtained by keeping
each stream *update* independently with probability
``p_x = min(1, 2^{1-x})``.  For some level ``x`` the subsampled moment
drops into the good regime; because SampleAndHold estimates are
**one-sided** (counters can miss occurrences but never invent them —
Section 1.3, "Removing moment assumptions"), the final estimate for an
item is the *maximum* over levels of the median-over-``r`` estimate
rescaled by the inverse sampling rate ``2^{x-1}``.

Implementation notes
--------------------
* Substream lengths ``m_x`` are tracked by Morris counters (an exact
  length counter would alone cost ``Theta(m)`` state changes): one
  :class:`~repro.core.counters.HeldTable` row per level, which the
  chunk kernel settles with one
  :meth:`~repro.core.counters.HeldTable.settle` per chunk.  The grids
  of one :class:`~repro.core.fp_estimation.FpEstimator` move their
  length rows into one table (:func:`share_length_table`), so its
  chunk kernel settles every grid's lengths in one call.
* The paper's line 8 selects ``l = min{x : m_x >= (fhat^x_j)^p}``; we
  default to the maximum rule justified by the one-sidedness argument
  (docs/ARCHITECTURE.md §2, deviation 2) and keep the paper's literal
  rule available via ``level_rule="min-length"``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.counters import HeldTable
from repro.core.sample_and_hold import (
    ChunkSettle,
    SampleAndHold,
    SampleAndHoldParams,
    share_held_table,
)
from repro.hashing.coins import PhiloxCoins, stream_key
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


class FullSampleAndHold(StreamAlgorithm):
    """Algorithm 2 of the paper: level grid over stream subsampling.

    Parameters
    ----------
    n, m, p, epsilon:
        Problem dimensions; ``m`` is the (hinted) stream length used to
        size the per-level instances (the unknown-``m`` case is handled
        by the standard doubling trick and is out of scope here).
    repetitions:
        ``R = O(log n)`` independent copies per level; odd so the
        median is well defined.  Default 3.
    num_levels:
        ``Y = O(log m)`` subsampling levels; defaults to
        ``ceil(log2(m)) + 1`` capped at 24.
    level_rule:
        ``"max"`` (default) — the one-sided maximum rule, best for
        point queries on heavy items;
        ``"shallowest"`` — the estimate from the least-subsampled level
        that held the item, which avoids the upward bias of maxing
        rescaled noise (best when summing many small estimates, e.g.
        inside the ``Fp`` estimator);
        ``"min-length"`` — the paper's literal line 8 selection.
    """

    name = "FullSampleAndHold"
    supports = frozenset({QueryKind.POINT, QueryKind.ALL_ESTIMATES})
    draws_coins = True

    def __init__(
        self,
        n: int,
        m: int,
        p: float,
        epsilon: float,
        repetitions: int = 3,
        num_levels: int | None = None,
        level_rule: str = "max",
        seed: int | None = None,
        use_morris: bool = True,
        tracker: StateTracker | None = None,
        **param_overrides: float,
    ) -> None:
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1: {repetitions}")
        if level_rule not in ("max", "shallowest", "min-length"):
            raise ValueError(f"unknown level_rule: {level_rule!r}")
        super().__init__(tracker)
        self.n = n
        self.m = m
        self.p = p
        self.epsilon = epsilon
        self.level_rule = level_rule
        self.seed = 0 if seed is None else seed
        if repetitions % 2 == 0:
            repetitions += 1
        self.repetitions = repetitions
        if num_levels is None:
            num_levels = min(24, max(1, int(math.ceil(math.log2(max(2, m)))) + 1))
        self.num_levels = num_levels
        self._t = 0  # arrival clock (level-coin index of the next arrival)
        # Estimate maps by level rule, each with the clock it was built
        # at: state changes only as the clock advances.
        self._estimate_maps: dict[str, tuple[int, dict[int, float]]] = {}

        # One indexed level-draw stream per repetition: arrival t's
        # survival depth for copy r is a pure function of coin (r, t),
        # which is what lets the chunk kernel split the chunk into
        # per-level substreams up front.
        self._level_coins = [
            PhiloxCoins(self.seed, f"fsh.lvl[{r}]")
            for r in range(repetitions)
        ]
        # Instance (r, x) processes the level-x substream of copy r.
        self._instances: list[list[SampleAndHold]] = []
        for r in range(repetitions):
            row = []
            for x in range(1, num_levels + 1):
                expected_m = max(1, int(round(m * min(1.0, 2.0 ** (1 - x)))))
                params = SampleAndHoldParams.from_problem(
                    n=n, m=expected_m, p=p, epsilon=epsilon, **param_overrides
                )
                row.append(
                    SampleAndHold(
                        params,
                        seed=self.seed,
                        use_morris=use_morris,
                        stream_label=f"fsh[{r}][{x}]",
                        tracker=self.tracker,
                    )
                )
            self._instances.append(row)
        # The instances hold their counters in one table.
        share_held_table(self.leaves())
        # Morris counters tracking each level's substream length m_x
        # (line 4); the paper only needs a 2-approximation, so a coarse
        # growth parameter keeps these counters nearly write-free.
        self._lengths = HeldTable(self.tracker, 0.05)
        self._length_rows = np.array(
            [
                self._lengths.open(stream_key(self.seed, f"fsh.len[{x}]"), 0)
                for x in range(num_levels)
            ],
            dtype=np.int64,
        )

    def leaves(self) -> list[SampleAndHold]:
        """The grid's instances, in (repetition, level) order."""
        return [instance for row in self._instances for instance in row]

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------
    def _deepest_level(self, u: float) -> int:
        """Deepest surviving level for one level coin ``u``.

        An update survives to level ``x`` with probability
        ``p_x = min(1, 2^{1-x})``, i.e. iff ``u < 2^{1-x}``, so the
        deepest level is ``floor(1 - log2(u))`` clamped to
        ``[1, num_levels]``.  That equals ``1 - e`` for ``u = f * 2^e``
        with ``f in [0.5, 1)``, plus one exactly on powers of two —
        ``frexp`` keeps scalar and vectorized draws bit-identical
        where a log2 round-trip could disagree in the last ulp.
        """
        if u <= 0.0:
            return self.num_levels
        fraction, exponent = math.frexp(u)
        deepest = 1 - exponent + (1 if fraction == 0.5 else 0)
        return max(1, min(self.num_levels, deepest))

    def _update(self, item: int) -> None:
        idx = self._t
        self._t = idx + 1
        for r, coins in enumerate(self._level_coins):
            deepest = self._deepest_level(coins.uniform(idx))
            row = self._instances[r]
            for x in range(deepest):
                row[x]._update(item)
            if r == 0:
                # Substream lengths m_x are tracked on the first copy
                # (one representative draw per level suffices for the
                # 2-approximation Algorithm 2 line 4 asks for).
                for x in range(deepest):
                    self._lengths.add(self._length_rows[x])

    def _update_chunk(self, chunk: np.ndarray) -> None:
        audit = ChunkAudit(len(chunk), self.tracker.needs_cell_ids)
        routes: list[tuple[SampleAndHold, np.ndarray]] = []
        self._lengths.settle(
            *self._route_chunk(np.arange(len(chunk)), routes), audit
        )
        ChunkSettle(chunk, routes, audit).run()
        audit.commit(self.tracker, len(chunk))

    def _route_chunk(
        self,
        positions: np.ndarray,
        routes: list[tuple[SampleAndHold, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route the arrivals at chunk ``positions`` (this grid's
        substream) to its instances.

        The indexed level coins split the substream into per-level
        substreams up front; ``(instance, positions)`` pairs are
        appended in the scalar loop's (repetition, level) order for
        :class:`~repro.core.sample_and_hold.ChunkSettle`.  Returns the
        arrivals of the substream length counters (first copy only) as
        (length row, chunk position) pairs for
        :meth:`~repro.core.counters.HeldTable.settle`; those counters
        never allocate or free, so settling them ahead of the instances
        cannot move ``peak_words``.
        """
        n = len(positions)
        t0 = self._t
        self._t = t0 + n
        levels = self.num_levels
        length_positions: list[np.ndarray] = []
        for r, coins in enumerate(self._level_coins):
            # The vectorized twin of _deepest_level: for u in (0, 1),
            # 1 - exponent >= 1 already, and u == 0 survives everywhere.
            u = coins.uniform_block(t0, n)
            fraction, exponent = np.frexp(u)
            deepest = np.where(
                u > 0.0,
                np.minimum(1 - exponent + (fraction == 0.5), levels),
                levels,
            )
            for x, instance in enumerate(self._instances[r]):
                sub = positions[deepest > x]
                if len(sub) == 0:
                    break  # levels are nested: deeper ones are empty too
                routes.append((instance, sub))
                if r == 0:
                    length_positions.append(sub)
        rows = np.repeat(
            self._length_rows[: len(length_positions)],
            [len(sub) for sub in length_positions],
        )
        return rows, np.concatenate(length_positions)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _answer_point(self, q: PointQuery) -> ScalarAnswer:
        """Rescaled frequency estimate for one item (0 if never held)."""
        return ScalarAnswer(
            QueryKind.POINT, self._estimates_impl(None).get(q.item, 0.0)
        )

    def _answer_all_estimates(self, q: AllEstimates) -> MapAnswer:
        """Estimates for every held item, under the default level rule."""
        return MapAnswer(
            QueryKind.ALL_ESTIMATES, dict(self._estimates_impl(None))
        )

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[ScalarAnswer, ...]:
        """Batch point queries: the estimate map is built once and
        gathered, instead of once per item as in the scalar hook."""
        estimates = self._estimates_impl(None)
        return tuple(
            ScalarAnswer(QueryKind.POINT, estimates.get(item, 0.0))
            for item in q.items
        )

    def estimate(self, item: int) -> float:
        """Rescaled frequency estimate for one item (0 if never held)."""
        return self.query(PointQuery(item)).value

    def estimates(self, level_rule: str | None = None) -> dict[int, float]:
        """Frequency estimates for every item held at any level.

        With the default ``level_rule`` this is the all-estimates query;
        an explicit rule overrides the query-time level combination.
        """
        if level_rule is None:
            return dict(self.query(AllEstimates()).values)
        return dict(self._estimates_impl(level_rule))

    def _estimates_impl(self, level_rule: str | None) -> dict[int, float]:
        """Frequency estimates for every item held at any level.

        Each level's median estimate is rescaled by the inverse
        sampling rate ``2^{x-1}``; levels are combined per
        ``level_rule`` (a query-time choice — the sketch itself is
        rule-agnostic, so one pass can serve both point queries with
        ``"max"`` and moment sums with ``"shallowest"``).

        The map is built once per arrival clock and rule and returned
        as is: callers that hand it out copy it.
        """
        rule = self.level_rule if level_rule is None else level_rule
        if rule not in ("max", "shallowest", "min-length"):
            raise ValueError(f"unknown level_rule: {rule!r}")
        built = self._estimate_maps.get(rule)
        if built is None or built[0] != self._t:
            built = self._estimate_maps[rule] = (
                self._t,
                self._build_estimates(rule),
            )
        return built[1]

    def _build_estimates(self, rule: str) -> dict[int, float]:
        """The estimate map under ``rule``, from the held table."""
        # Read the instances' held maps and their table directly: a
        # point query per (item, level) would pay one dispatch each.
        table = self._instances[0][0]._table
        held = [[instance._held for instance in row] for row in self._instances]
        candidates: set[int] = set()
        for row in held:
            for counters in row:
                candidates.update(counters)

        # Per item, the (level, rescaled median) of every level at which
        # some copy holds it; at any other level every copy reads 0, so
        # the median is 0.  The copies are odd in number: the median is
        # the middle of their sorted estimates.
        per_item: dict[int, list[tuple[int, float]]] = {}
        for x, copies in enumerate(zip(*held), start=1):
            items = list(dict.fromkeys(itertools.chain.from_iterable(copies)))
            estimates = np.zeros((len(copies), len(items)))
            for copy, counters in enumerate(copies):
                rows = np.fromiter(
                    map(counters.get, items, itertools.repeat(-1)),
                    np.int64,
                    len(items),
                )
                present = rows >= 0
                estimates[copy, present] = table.estimates(rows[present])
            medians = np.sort(estimates, axis=0)[len(copies) // 2]
            scale = 2.0 ** (x - 1)
            for item, med in zip(items, medians.tolist()):
                if med > 0:
                    per_item.setdefault(item, []).append((x, med * scale))

        results: dict[int, float] = {}
        for item in candidates:
            per_level = per_item.get(item)
            if per_level is None:
                continue
            if rule == "max":
                results[item] = max(value for _, value in per_level)
            elif rule == "shallowest":
                results[item] = per_level[0][1]
            else:
                results[item] = self._min_length_rule(item, per_level)
        return results

    def _min_length_rule(
        self, item: int, per_level: list[tuple[int, float]]
    ) -> float:
        """The paper's line 8: first level whose length dominates
        ``(fhat^x_j)^p``; falls back to the max rule when none does."""
        for x, value in per_level:
            m_x = self.level_length(x)
            raw = value / 2.0 ** (x - 1)
            if m_x >= raw**self.p:
                return value
        return max(value for _, value in per_level)

    def level_length(self, level: int) -> float:
        """Morris-estimated substream length ``m_x`` of ``level``."""
        if not 1 <= level <= self.num_levels:
            raise ValueError(f"level {level} outside [1, {self.num_levels}]")
        return self._lengths.estimate(self._length_rows[level - 1])


def share_length_table(grids: list[FullSampleAndHold]) -> None:
    """Move the substream length rows of ``grids`` -- the grids of one
    composite, on one tracker -- into the first grid's table, with
    their cell numbers and words: the composite's chunk kernel then
    settles every grid's length arrivals in one
    :meth:`~repro.core.counters.HeldTable.settle`."""
    table = grids[0]._lengths
    for grid in grids[1:]:
        grid._length_rows = table.adopt(grid._lengths, grid._length_rows)
        grid._lengths = table
