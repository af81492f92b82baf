"""Algorithm 1: ``SampleAndHold`` — heavy hitters with few state changes.

The paper's core subroutine (Section 2.1).  A reservoir of ``k`` slots
samples stream updates with probability ``rho ~ n^{1-1/p} * polylog /
(eps^2 * m)``; when an update matches a reservoir slot, the algorithm
*holds* the item by opening an approximate (Morris) counter for it.
When the number of held counters reaches the budget, counters are
pruned **per dyadic age group**: among counters initialized between
``t - 2^{z+1}`` and ``t - 2^z`` ago, only the half with the largest
estimates survive.  The age bucketing is the paper's key fix over
[EV02, BO13, BKSV14]-style global eviction, which loses heavy hitters
whose occurrences are spread thin (Section 1.4); the counter budget is
re-randomized after every prune (Lemma 2.1's protection against
adversarial timing).

State-change accounting: reservoir writes happen at rate ``rho``
(``Õ(n^{1-1/p})`` over the stream), Morris counters contribute
``polylog`` writes each, and prunes are rare — total
``Õ(n^{1-1/p})`` state changes while a dictionary baseline would use
``Theta(m)``.

Deviation from the paper's constants: the theoretical multipliers
(``gamma = 2^{20p}``, ``kappa ~ log^{11+3p}(nm)/eps^{4+4p}``) exceed any
laptop-scale stream; :class:`SampleAndHoldParams` keeps every
*functional form* but replaces the leading constants with the module
constants below, calibrated so the asymptotic shapes are measurable at
``n in [2^10, 2^20]`` (see docs/ARCHITECTURE.md §2, deviation 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.counters import HeldTable
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
from repro.state.registers import TrackedArray
from repro.state.tracker import StateTracker

#: Leading constant of the sampling probability ``rho``.
SAMPLE_SCALE = 1.0
#: Leading constant of the reservoir/counter unit ``kappa``.
KAPPA_SCALE = 4.0
#: Leading constant of the counter budget ``k ~ p * kappa * log(nm)``.
BUDGET_SCALE = 0.5


@dataclass(frozen=True)
class SampleAndHoldParams:
    """Resolved parameters of one ``SampleAndHold`` instance.

    Produced by :meth:`SampleAndHoldParams.from_problem`, which mirrors
    Algorithm 1 lines 1–7: the sampling probability ``rho`` scales as
    ``scale^{1-1/p} * log2(nm) / (eps^2 * m)`` and the reservoir/counter
    budget ``kappa`` as ``scale^{1-2/p}`` for ``p >= 2`` (``polylog``
    for ``p < 2``), where ``scale = min(n, m)`` (lines 2–5 swap in ``m``
    when the stream is shorter than the universe).
    """

    #: Per-update sampling probability (Algorithm 1's ``rho``).
    sample_probability: float
    #: Base reservoir/counter unit (Algorithm 1's ``kappa``).
    kappa: int
    #: Lower end of the randomized budget interval for ``k``.
    budget_low: int
    #: Upper end of the randomized budget interval for ``k``.
    budget_high: int
    #: Morris counter growth parameter (accuracy/write trade-off).
    counter_a: float

    @classmethod
    def from_problem(
        cls,
        n: int,
        m: int,
        p: float,
        epsilon: float,
        counter_epsilon: float = 0.5,
        counter_delta: float = 0.25,
    ) -> "SampleAndHoldParams":
        """Derive practical parameters from the problem dimensions.

        :data:`SAMPLE_SCALE`, :data:`KAPPA_SCALE` and
        :data:`BUDGET_SCALE` replace the paper's impractically-large
        theoretical constants while preserving every exponent and
        logarithmic factor.

        The default Morris accuracy (``counter_epsilon = 0.5``,
        ``counter_delta = 0.25``, i.e. ``a = 0.125``) is deliberately
        coarse: the paper's ``eps/log(nm)`` counter accuracy only pays
        off for counts far beyond laptop-scale streams, because a
        Morris counter is effectively exact (one write per update)
        until the count passes ``1/a``.  Tighten it per use case.
        """
        if n < 1 or m < 1:
            raise ValueError(f"need n, m >= 1: n={n}, m={m}")
        if p < 1:
            raise ValueError(f"SampleAndHold requires p >= 1: {p}")
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1]: {epsilon}")

        scale = min(n, m)  # Algorithm 1 lines 2-5
        log_nm = math.log2(2 + n * m)
        rho = min(
            1.0,
            SAMPLE_SCALE
            * scale ** (1.0 - 1.0 / p)
            * log_nm
            / (epsilon**2 * m),
        )
        if p >= 2:
            kappa_base = scale ** (1.0 - 2.0 / p)
        else:
            kappa_base = 1.0
        kappa = max(4, int(round(KAPPA_SCALE * kappa_base / epsilon**2)))
        budget_low = max(
            2 * kappa, int(round(BUDGET_SCALE * p * kappa * log_nm))
        )
        budget_high = max(budget_low + 1, int(round(1.01 * budget_low)))

        counter_a = 2.0 * counter_epsilon**2 * counter_delta
        return cls(
            sample_probability=rho,
            kappa=kappa,
            budget_low=budget_low,
            budget_high=budget_high,
            counter_a=counter_a,
        )


class SampleAndHold(StreamAlgorithm):
    """Algorithm 1 of the paper, on tracked memory.

    Parameters
    ----------
    params:
        Resolved sizes/probabilities (see :class:`SampleAndHoldParams`).
    seed:
        Seed of the coin streams; runs with equal seeds are
        reproducible.  Every coin is drawn from an index-addressable
        Philox stream — arrival ``t`` owns the sampling/slot coins at
        index ``t``, prune ``j`` owns budget coin ``j``, and the
        ``i``-th held counter rides its own geometric-skip stream — so
        the chunk kernel can screen a whole chunk against the sampling
        coins at once and settle only the interesting arrivals.
    stream_label:
        Namespace prefix of the coin streams; composite algorithms
        embedding many instances (full sample-and-hold) give each a
        distinct label so their streams stay independent.
    use_morris:
        When False, hold *exact* counters instead of Morris counters —
        the ablation of experiment A1 (accuracy up, state changes up).
    eviction:
        ``"age-bucketed"`` (the paper's dyadic maintenance, default) or
        ``"global"`` (keep the globally largest half — the
        [EV02, BO13, BKSV14]-style rule the Section 1.4 counterexample
        defeats; the ablation of experiment A2).

    Held counters live in a :class:`~repro.core.counters.HeldTable`:
    ``_held`` maps each held item to its row.  A standalone instance
    owns its table; the leaves of a composite share one
    (:func:`share_held_table`).
    """

    name = "SampleAndHold"
    supports = frozenset({QueryKind.POINT, QueryKind.ALL_ESTIMATES})
    draws_coins = True

    def __init__(
        self,
        params: SampleAndHoldParams,
        use_morris: bool = True,
        eviction: str = "age-bucketed",
        seed: int | None = None,
        stream_label: str = "sh",
        tracker: StateTracker | None = None,
    ) -> None:
        if eviction not in ("age-bucketed", "global"):
            raise ValueError(f"unknown eviction policy: {eviction!r}")
        super().__init__(tracker)
        self.params = params
        self.use_morris = use_morris
        self.eviction = eviction
        self.seed = 0 if seed is None else seed
        self.stream_label = stream_label
        self._coins_sample = PhiloxCoins(self.seed, f"{stream_label}.sample")
        self._coins_slot = PhiloxCoins(self.seed, f"{stream_label}.slot")
        self._coins_budget = PhiloxCoins(self.seed, f"{stream_label}.budget")
        self._t = 0  # arrival clock (coin index of the next arrival)
        self._created = 0  # held counters ever opened (stream ordinals)
        self._budget_draws = 0
        self._budget = self._draw_budget()
        # The reservoir is provisioned for the largest possible budget so
        # that budget re-draws never outgrow the array.
        self._reservoir: TrackedArray[int | None] = TrackedArray(
            self.tracker, "q", params.budget_high, fill=None
        )
        # Shadow read-index of reservoir contents; mirrors the tracked
        # array for O(1) membership tests (reads are free in the model).
        self._reservoir_members: dict[int, int] = {}
        self._held: dict[int, int] = {}  # held item -> table row
        self._table = HeldTable(
            self.tracker, params.counter_a, exact=not use_morris
        )
        self._prunes = 0

    # ------------------------------------------------------------------
    # Algorithm 1 main loop
    # ------------------------------------------------------------------
    def _update(self, item: int) -> None:
        idx = self._t
        self._t = idx + 1
        row = self._held.get(item)
        if row is not None:
            # Line 10-11: update the (Morris) counter.
            self._table.add(row)
            return
        if item in self._reservoir_members:
            # Lines 12-13: item is in the reservoir -> hold a counter.
            row = self._open(self._t)
            self._table.add(row)  # the triggering occurrence counts
            self._hold(item, row, self._t)
            return
        # Lines 15-18: sample into the reservoir with probability rho.
        if self._coins_sample.uniform(idx) < self.params.sample_probability:
            self._sample(item, self._coins_slot.uniform(idx))

    def _sample(self, item: int, u: float) -> None:
        """Lines 17-18: write ``item`` into the slot picked by the slot
        coin ``u``."""
        slot = min(int(u * self._budget), self._budget - 1)
        evicted = self._reservoir[slot]
        if evicted is not None and self._reservoir_members.get(evicted) == slot:
            del self._reservoir_members[evicted]
        self._reservoir[slot] = item
        self._reservoir_members[item] = slot

    def _open(self, created_at: int) -> int:
        """A fresh held-counter row, counting on its own coin stream."""
        return self._table.open(self._next_key(), created_at)

    def _next_key(self) -> tuple[int, int]:
        """The level-coin stream key of the next held counter."""
        key = (
            stream_key(self.seed, f"{self.stream_label}.ctr{self._created}")
            if self.use_morris
            else (0, 0)
        )
        self._created += 1
        return key

    def _hold(self, item: int, row: int, created_at: int) -> None:
        """Hold counter ``row`` for ``item`` (lines 13, 19-21); prune
        when the held set reaches the budget."""
        # Two bookkeeping words: the held item id and its creation time.
        self.tracker.allocate(2)
        self._held[item] = row
        if len(self._held) >= self._budget:
            self._prune_counters(created_at)

    # ------------------------------------------------------------------
    # Counter maintenance (lines 19-21): dyadic age groups
    # ------------------------------------------------------------------
    def _prune_counters(
        self,
        now: int,
        audit: ChunkAudit | None = None,
        position: int = 0,
    ) -> None:
        """Halve each dyadic age group, keeping the largest estimates.

        Counters created between ``t - 2^{z+1}`` and ``t - 2^z`` ago are
        compared only with each other, so a heavy hitter whose counter
        is young (hence small) is never outvoted by long-lived pseudo-
        heavy counters — the Section 1.4 counterexample's fix.  Under
        ``eviction="global"`` all counters are compared together
        (the classical rule; kept for the A2 ablation).

        Inside a chunk kernel (``audit`` given) the evictions mark
        chunk ``position`` dirty; the kernel has absorbed every arrival
        of the held items up to ``position`` before the call.

        Estimates grow with the level (an exact row's level is its
        count), so each group is ranked by level: one stable lexsort
        by (group, level) in ``_held`` order, which breaks ties the
        way sorting each group by estimate would.
        """
        table = self._table
        items = list(self._held)
        rows = np.fromiter(self._held.values(), np.int64, len(items))
        if self.eviction == "global":
            groups = np.zeros(len(rows), dtype=np.int64)
        else:
            # The dyadic bucket floor(log2(age)), as the bit length of
            # the age: frexp's exponent, exact for any clock below 2^53.
            age = np.maximum(1, now - table.created_at[rows])
            groups = np.frexp(age.astype(np.float64))[1]
        order = np.lexsort((table.level[rows], groups))
        grouped = groups[order]
        starts = np.flatnonzero(
            np.concatenate(([True], grouped[1:] != grouped[:-1]))
        )
        sizes = np.diff(np.append(starts, len(order)))
        rank = np.arange(len(order)) - np.repeat(starts, sizes)
        # The lower half of each group by estimate.
        evicted = [
            items[i] for i in order[rank < np.repeat(sizes // 2, sizes)].tolist()
        ]
        for item in evicted:
            table.release(self._held.pop(item))
            self.tracker.free(2)
            if audit is None:
                self.tracker.mark_dirty()
            else:
                audit.mark(position)
        # Lemma 2.1: re-randomize the budget after each maintenance.
        self._budget = self._draw_budget()
        self._prunes += 1

    def _draw_budget(self) -> int:
        """Algorithm 1 line 7/20: ``k ~ Uni([budget_low, budget_high])``."""
        low, high = self.params.budget_low, self.params.budget_high
        u = self._coins_budget.uniform(self._budget_draws)
        self._budget_draws += 1
        span = high - low + 1
        return low + min(int(u * span), span - 1)

    # ------------------------------------------------------------------
    # Chunk kernel
    # ------------------------------------------------------------------
    def _update_chunk(self, chunk: np.ndarray) -> None:
        audit = ChunkAudit(len(chunk), self.tracker.needs_cell_ids)
        ChunkSettle(chunk, [(self, np.arange(len(chunk)))], audit).run()
        audit.commit(self.tracker, len(chunk))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _answer_point(self, q: PointQuery) -> ScalarAnswer:
        row = self._held.get(q.item)
        return ScalarAnswer(
            QueryKind.POINT,
            self._table.estimate(row) if row is not None else 0.0,
        )

    def _answer_point_many(
        self, q: MultiPointQuery
    ) -> tuple[ScalarAnswer, ...]:
        """Batch point queries: one bulk lookup pass over the held set
        and one gather from the table (no per-item query construction
        or dispatch)."""
        rows = np.fromiter(
            map(self._held.get, q.items, itertools.repeat(-1)),
            np.int64,
            len(q.items),
        )
        values = np.zeros(len(rows))
        held = rows >= 0
        values[held] = self._table.estimates(rows[held])
        return tuple(
            ScalarAnswer(QueryKind.POINT, value) for value in values.tolist()
        )

    def _answer_all_estimates(self, q: AllEstimates) -> MapAnswer:
        rows = np.fromiter(self._held.values(), np.int64, len(self._held))
        return MapAnswer(
            QueryKind.ALL_ESTIMATES,
            dict(zip(self._held, self._table.estimates(rows).tolist())),
        )

    def estimate(self, item: int) -> float:
        """Estimated frequency of ``item`` (one-sided: never above
        ``(1+eps_counter) * f_item``); 0 when the item is not held."""
        return self.query(PointQuery(item)).value

    def estimates(self) -> dict[int, float]:
        """Estimates of every currently held item (line 22)."""
        return dict(self.query(AllEstimates()).values)

    @property
    def num_held(self) -> int:
        """Number of currently held counters."""
        return len(self._held)

    @property
    def num_prunes(self) -> int:
        """Number of counter-maintenance rounds executed."""
        return self._prunes


class ChunkSettle:
    """One chunk of arrivals settled across a set of sample-and-hold
    leaves that share a tracker, a held table and a :class:`ChunkAudit`.

    Composite estimators (:class:`~repro.core.full_sample_and_hold.
    FullSampleAndHold`'s level grid, the universe levels of
    :class:`~repro.core.fp_estimation.FpEstimator`, the epochs of
    :class:`~repro.core.adaptive.AdaptiveFullSampleAndHold`) route every
    chunk position to the leaves whose substreams it reaches.
    ``routes`` lists ``(leaf, positions)`` in the order the scalar loop
    visits the leaves, with ascending chunk positions per leaf.  Because
    the leaves share one audit, a position is dirty iff any leaf mutated
    on it — the union of their dirty masks, exactly the scalar ``X_t``.
    The leaves share one :class:`~repro.core.counters.HeldTable`
    (:func:`share_held_table`): they come from one parameter set, so
    they hold one kind of counter -- Morris counters with one ``a``, or
    exact counters.

    At one leaf, between two prunes, an arrival of item ``x`` counts
    (``x`` is held), opens a counter (``x`` sits in the reservoir),
    writes ``x`` into the slot its slot coin picks (its sampling coin
    hits) or does nothing.  The chunk settles in **rounds** of columns:

    * **Screen.**  Membership is asked once per distinct (leaf, item)
      pair.  Arrivals of held items count; arrivals of items that are
      neither held, resident nor hit in the round are no-ops; the rest
      go to the resolution.  Sampling and slot coins come from one
      contiguous block per leaf (no sampling block where every coin
      hits).
    * **Resolution.**  The reservoir writes are a fixed point: start
      with every hit as a write, give each write its eviction time (the
      next write to the same leaf and slot), open each pair at its
      first arrival while resident, keep as writes only the hits before
      the pair's opening, and repeat until the write set stops
      shrinking (:func:`_open_times` is one pass).  Whether an arrival
      writes depends only on the writes before it, so the fixed point
      is the scalar loop's one; removing writes only delays evictions,
      so openings only move earlier and the set only shrinks.
    * **Cut.**  A leaf's round ends at the opening that fills its
      budget.  Everything up to it is final: its writes land in the
      reservoir and the audit at once, its openings and counting
      arrivals wait.

    Openings are applied in the scalar order (position, leaf) up to
    each prune, in the prunes' order, which keeps the cell numbers, the
    rows taken from the free list and the allocate/free interleaving,
    hence the cell histogram and ``peak_words``.  A prune reads
    estimates, so its leaf's counting arrivals are absorbed first (one
    :meth:`~repro.core.counters.HeldTable.settle`); the leaf's later
    arrivals then resolve again as a new round.  The final wave absorbs
    every counting arrival left.

    Arrivals are columns over all leaves in (leaf, position) order:
    position, leaf ordinal, coin index and (leaf, item) pair; a pair
    has its leaf, item, held row (-1 if not held) and reservoir slot
    (-1 if not resident), both as of its last screen.  Openings,
    counting arrivals and cuts wait as arrival indices.
    """

    __slots__ = (
        "audit",
        "_leaves",
        "_table",
        "_bounds",
        "_position",
        "_ordinal",
        "_index",
        "_pair",
        "_pair_leaf",
        "_pair_item",
        "_pair_row",
        "_pair_slot",
        "_openings",
        "_counts",
        "_cuts",
    )

    def __init__(
        self,
        chunk: np.ndarray,
        routes: list[tuple[SampleAndHold, np.ndarray]],
        audit: ChunkAudit,
    ) -> None:
        self.audit = audit
        leaves = self._leaves = [leaf for leaf, _ in routes]
        self._table = leaves[0]._table
        lengths = np.array([len(positions) for _, positions in routes])
        bounds = self._bounds = np.concatenate(([0], np.cumsum(lengths)))
        self._position = np.concatenate([positions for _, positions in routes])
        ordinal = self._ordinal = np.repeat(np.arange(len(leaves)), lengths)
        # Coin indices: leaf o's arrivals count up from its clock.
        clocks = np.array([leaf._t for leaf in leaves], dtype=np.int64)
        for leaf, length in zip(leaves, lengths.tolist()):
            leaf._t += length
        self._index = np.arange(bounds[-1]) + np.repeat(
            clocks - bounds[:-1], lengths
        )
        # (leaf, item) pairs, numbered in (leaf, item) order through a
        # dense (leaf, chunk-local item rank) table.
        distinct, ranks = np.unique(chunk, return_inverse=True)
        key = ordinal * len(distinct) + ranks[self._position]
        seen = np.zeros(len(leaves) * len(distinct), dtype=bool)
        seen[key] = True
        keys = np.flatnonzero(seen)
        numbers = np.empty(len(seen), dtype=np.int64)
        numbers[keys] = np.arange(len(keys))
        self._pair = numbers[key]
        self._pair_leaf, rank = np.divmod(keys, len(distinct))
        self._pair_item = distinct[rank]
        self._pair_row = np.full(len(keys), -1)
        self._pair_slot = np.full(len(keys), -1)
        self._openings: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._cuts: list[int] = []

    def run(self) -> None:
        """Resolve every leaf, then take the prunes in the scalar order,
        each followed by a new round of its leaf; the final wave absorbs
        every counting arrival left."""
        self._resolve(0, len(self._pair))
        cuts = self._cuts
        while cuts:
            arrival = min(cuts, key=self._order_key)
            cuts.remove(arrival)
            position, ordinal = self._order_key(arrival)
            self._open_through(arrival)
            self._flush(ordinal)
            self._leaves[ordinal]._prune_counters(
                int(self._index[arrival]) + 1, self.audit, position
            )
            self._resolve(arrival + 1, int(self._bounds[ordinal + 1]))
        self._open_through(None)
        self._wave(np.concatenate(self._counts))

    def _order_key(self, arrival: int) -> tuple[int, int]:
        """The scalar order of ``arrival``: (position, leaf)."""
        return int(self._position[arrival]), int(self._ordinal[arrival])

    def _lookup(self, pairs: np.ndarray, attribute: str) -> np.ndarray:
        """``getattr(leaf, attribute).get(item, -1)`` for each pair:
        its held row or its reservoir slot."""
        maps = [getattr(leaf, attribute) for leaf in self._leaves]
        return np.fromiter(
            map(
                dict.get,
                [maps[o] for o in self._pair_leaf[pairs].tolist()],
                self._pair_item[pairs].tolist(),
                itertools.repeat(-1),
            ),
            np.int64,
            len(pairs),
        )

    def _coins(self, arrivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sampling hits and slot coins of ``arrivals`` (ascending),
        from one contiguous block per leaf and stream; no sampling
        block where every coin hits."""
        hit = np.ones(len(arrivals), dtype=bool)
        coin = np.empty(len(arrivals))
        index = self._index[arrivals]
        edges = np.searchsorted(arrivals, self._bounds)
        present = np.flatnonzero(edges[1:] > edges[:-1])
        lows, highs = edges[present], edges[present + 1]
        firsts = index[lows]
        offsets = index - np.repeat(firsts, highs - lows)
        counts = index[highs - 1] - firsts + 1
        leaves = self._leaves
        for o, low, high, first, count in zip(
            present.tolist(),
            lows.tolist(),
            highs.tolist(),
            firsts.tolist(),
            counts.tolist(),
        ):
            leaf = leaves[o]
            at = offsets[low:high]
            coin[low:high] = leaf._coins_slot.uniform_block(first, count)[at]
            rho = leaf.params.sample_probability
            if rho < 1.0:
                hit[low:high] = leaf._coins_sample.uniform_block(first, count)[at] < rho
        return hit, coin

    def _resolve(self, low: int, high: int) -> None:
        """One round over the arrivals ``[low, high)`` -- every leaf's
        (the first round) or the rest of one leaf's (after its prune)
        -- from the leaves' current state, settled up to each leaf's
        next prune (see the class docstring)."""
        if low == high:
            return
        leaves = self._leaves
        arrivals = np.arange(low, high)
        pairs = self._pair[low:high]
        if high - low == len(self._pair):
            distinct = np.arange(len(self._pair_item))
            ordinals = list(range(len(leaves)))
        else:
            distinct = np.unique(pairs)
            ordinals = [int(self._ordinal[low])]
        rows = self._pair_row
        rows[distinct] = self._lookup(distinct, "_held")
        held = rows[pairs] >= 0
        counted = arrivals[held]
        free, free_pairs = arrivals[~held], pairs[~held]
        unheld = distinct[rows[distinct] < 0]
        resident = self._pair_slot
        resident[unheld] = self._lookup(unheld, "_reservoir_members")
        hit, coin = self._coins(free)
        # An arrival is a no-op unless its pair is resident or hit.
        touched = np.zeros(len(self._pair_item), dtype=bool)
        touched[free_pairs[hit]] = True
        flagged = touched[free_pairs] | (resident[free_pairs] >= 0)
        budget = np.zeros(len(leaves), dtype=np.int64)
        held_now = np.zeros(len(leaves), dtype=np.int64)
        budget[ordinals] = [leaves[o]._budget for o in ordinals]
        held_now[ordinals] = [len(leaves[o]._held) for o in ordinals]
        cut = self._resolve_chain(
            free[flagged],
            hit[flagged],
            coin[flagged],
            budget,
            np.maximum(1, budget - held_now),
        )
        if len(cut):
            # Held items' arrivals count up to their leaf's cut.
            limit = self._bounds[1:].copy()
            limit[self._ordinal[cut]] = cut + 1
            counted = counted[counted < limit[self._ordinal[counted]]]
            self._cuts.extend(cut.tolist())
        self._counts.append(counted)

    def _resolve_chain(
        self,
        chain: np.ndarray,
        hit: np.ndarray,
        coin: np.ndarray,
        budget: np.ndarray,
        room: np.ndarray,
    ) -> np.ndarray:
        """The resolution of the arrivals ``chain`` (arrival indices in
        (leaf, position) order, with their sampling hits and slot
        coins) up to each leaf's cut, the ``room[o]``-th opening at leaf
        ``o`` (budget ``budget[o]``): writes are applied, openings and
        counting arrivals queued.  Returns the cuts' arrival indices.

        Times are indices into ``chain``, which order each leaf's
        arrivals; ``never`` is past them all."""
        n = never = len(chain)
        if not n:
            return chain
        leaves = len(self._leaves)
        ordinal = self._ordinal[chain]
        # Pairs, renumbered locally, and each arrival's next arrival of
        # its pair: a stable sort by pair keeps each pair's arrivals in
        # time order (a radix sort while pair numbers fit 16 bits).
        pairs = self._pair[chain]
        order = np.argsort(
            pairs.astype(np.min_scalar_type(len(self._pair_item))), kind="stable"
        )
        grouped = pairs[order]
        starts = np.ones(n, dtype=bool)
        np.not_equal(grouped[1:], grouped[:-1], out=starts[1:])
        first = order[starts]
        local = np.empty(n, dtype=np.int64)
        local[order] = np.cumsum(starts) - 1
        follow = np.full(n, never)
        same = ~starts[1:]
        follow[order[:-1][same]] = order[1:][same]
        # Pairs resident when the round starts, by (slot, leaf) key.
        slot0 = self._pair_slot[grouped[starts]]
        resident = np.flatnonzero(slot0 >= 0)
        resident_first = first[resident]
        resident_key = slot0[resident] * leaves + ordinal[resident_first]
        # Hits in (slot, leaf, time) order: a stable sort by slot of
        # arrivals already in (leaf, time) order.
        hits = np.flatnonzero(hit)
        size = budget[ordinal[hits]]
        slot = np.minimum((coin[hits] * size).astype(np.int64), size - 1)
        by_slot = np.argsort(
            slot.astype(np.min_scalar_type(int(budget.max()))), kind="stable"
        )
        times = hits[by_slot]
        slot = slot[by_slot]
        keys = slot * leaves + ordinal[times]
        owners = local[times]
        follows = follow[times]
        opens = np.empty(len(first), dtype=np.int64)
        live = np.ones(len(times), dtype=bool)
        count = len(times)
        while True:
            _open_times(
                times[live],
                keys[live],
                owners[live],
                follows[live],
                resident,
                resident_first,
                resident_key,
                never,
                opens,
            )
            live = times < opens[owners]
            shrunk = int(np.count_nonzero(live))
            if shrunk == count:
                break
            count = shrunk
        # Openings in time order, hence grouped by leaf; a leaf's cut is
        # its room-th.  Everything up to the cuts is final; an
        # opening's own arrival counts.
        opened = np.sort(opens[opens < never])
        leaf_of = ordinal[opened]
        rank = np.arange(len(opened)) - np.searchsorted(leaf_of, leaf_of)
        cut = opened[rank == room[leaf_of] - 1]
        counting = np.arange(n) >= opens[local]
        if len(cut):
            limit = np.full(leaves, never)
            limit[ordinal[cut]] = cut
            live &= times <= limit[ordinal[times]]
            opened = opened[opened <= limit[leaf_of]]
            counting &= np.arange(n) <= limit[ordinal]
        self._store(chain[times[live]], slot[live], keys[live])
        self._openings.append(chain[opened])
        self._counts.append(chain[counting])
        return chain[cut]

    def _store(
        self, arrivals: np.ndarray, slots: np.ndarray, keys: np.ndarray
    ) -> None:
        """Apply the reservoir writes at ``arrivals`` (grouped by
        ``keys``, their (slot, leaf), and in time order within a
        group): every write is audited, and each slot ends up holding
        its group's last item, evicting the item it held before the
        group's first.  Every write mutates: a written item is never
        resident, and every reservoir item is."""
        if not len(arrivals):
            return
        self.audit.write_many(self._position[arrivals], slots, "q[{}]".format)
        last = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))
        ordinal = self._ordinal[arrivals[last]]
        by_leaf = np.argsort(ordinal, kind="stable")
        ordinal = ordinal[by_leaf]
        slots = slots[last][by_leaf]
        items = self._pair_item[self._pair[arrivals[last][by_leaf]]]
        edges = np.flatnonzero(np.append(True, ordinal[1:] != ordinal[:-1]))
        for o, low, high in zip(
            ordinal[edges].tolist(),
            edges.tolist(),
            np.append(edges[1:], len(ordinal)).tolist(),
        ):
            leaf = self._leaves[o]
            members = leaf._reservoir_members
            written = slots[low:high].tolist()
            stored = items[low:high].tolist()
            for evicted, slot in zip(
                leaf._reservoir.exchange_at(written, stored), written
            ):
                if evicted is not None and members.get(evicted) == slot:
                    del members[evicted]
            members.update(zip(stored, written))

    def _open_through(self, bound: int | None) -> None:
        """Apply the queued openings up to arrival ``bound`` in the
        scalar (position, leaf) order (all of them if ``bound`` is
        None): a table row on the leaf's next counter stream and the
        two bookkeeping words per counter."""
        if not self._openings:
            return
        queued = np.concatenate(self._openings)
        position, ordinal = self._position[queued], self._ordinal[queued]
        if bound is None:
            due = np.ones(len(queued), dtype=bool)
        else:
            at, leaf = self._order_key(bound)
            due = (position < at) | ((position == at) & (ordinal <= leaf))
        self._openings = [queued[~due]]
        queued = queued[due]
        if not len(queued):
            return
        queued = queued[np.lexsort((ordinal[due], position[due]))]
        leaves = self._leaves
        ordinals = self._ordinal[queued].tolist()
        pairs = self._pair[queued]
        rows = self._table.open_many(
            [leaves[o]._next_key() for o in ordinals], self._index[queued] + 1
        )
        self._pair_row[pairs] = rows
        for o, item, row in zip(
            ordinals, self._pair_item[pairs].tolist(), rows.tolist()
        ):
            leaves[o]._held[item] = row
        leaves[0].tracker.allocate(2 * len(rows))

    def _flush(self, ordinal: int) -> None:
        """Absorb leaf ``ordinal``'s queued counting arrivals."""
        queued = np.concatenate(self._counts)
        mine = (queued >= self._bounds[ordinal]) & (
            queued < self._bounds[ordinal + 1]
        )
        self._counts = [queued[~mine]]
        self._wave(queued[mine])

    def _wave(self, arrivals: np.ndarray) -> None:
        """The counting pass over ``arrivals``, settled by one
        :meth:`~repro.core.counters.HeldTable.settle`.  Each pair's
        arrivals come from one round and one source (held at the screen
        or opened in the round), each listed in time order, so each
        row's arrivals are in stream order, as the settle needs."""
        if len(arrivals):
            self._table.settle(
                self._pair_row[self._pair[arrivals]],
                self._position[arrivals],
                self.audit,
            )


def _open_times(
    times: np.ndarray,
    keys: np.ndarray,
    owners: np.ndarray,
    follows: np.ndarray,
    resident: np.ndarray,
    resident_first: np.ndarray,
    resident_key: np.ndarray,
    never: int,
    opens: np.ndarray,
) -> None:
    """One pass of the write resolution: from the writes at ``times``
    (sorted by ``keys``, their (slot, leaf), then time; ``owners`` their
    pairs, ``follows`` the next arrival of each write's pair), each
    pair's opening time into ``opens`` (``never`` if it does not open).

    A write's item stays resident until the next write to its slot, so
    it opens at its next arrival if that comes no later (a write at
    that very arrival is the item's own hit, which the opening
    replaces).  Pairs ``resident`` when the round starts (slots keyed
    ``resident_key``) open at their first arrival ``resident_first``
    unless another item's write to their slot comes first.  The
    earliest opening wins."""
    same = keys[1:] == keys[:-1]
    evicted = np.full(len(times), never)
    evicted[:-1][same] = times[1:][same]
    stays = follows <= evicted
    opens.fill(never)
    np.minimum.at(opens, owners[stays], follows[stays])
    if not len(resident):
        return
    # The first write to each (slot, leaf) evicts the slot's resident.
    first_write = np.full(len(resident), never)
    if len(times):
        head = np.flatnonzero(np.concatenate(([True], ~same)))
        found = np.minimum(np.searchsorted(keys[head], resident_key), len(head) - 1)
        match = keys[head[found]] == resident_key
        first_write[match] = times[head[found[match]]]
    kept = resident_first <= first_write
    opens[resident[kept]] = resident_first[kept]


def share_held_table(leaves: list[SampleAndHold]) -> None:
    """Give ``leaves`` -- the sample-and-hold instances of one
    composite, on one tracker and one parameter set -- the first one's
    :class:`~repro.core.counters.HeldTable`, before any holds a
    counter: a :class:`ChunkSettle` over them then steps all their
    counters with one gather (the way entropy's node sketches share
    one :class:`~repro.core.fp_pstable.VariateTable`)."""
    table = leaves[0]._table
    for leaf in leaves:
        leaf._table = table
