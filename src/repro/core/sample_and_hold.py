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
*functional form* but exposes the leading constants, with defaults
calibrated so the asymptotic shapes are measurable at
``n in [2^10, 2^20]`` (see docs/ARCHITECTURE.md §2, deviation 1).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.counters import HeldTable
from repro.hashing.coins import PhiloxCoins, lane_uniforms, stream_key
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
        sample_scale: float = 1.0,
        kappa_scale: float = 4.0,
        budget_scale: float = 0.5,
        counter_epsilon: float = 0.5,
        counter_delta: float = 0.25,
    ) -> "SampleAndHoldParams":
        """Derive practical parameters from the problem dimensions.

        ``sample_scale``, ``kappa_scale`` and ``budget_scale`` replace
        the paper's impractically-large theoretical constants while
        preserving every exponent and logarithmic factor.

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
            sample_scale
            * scale ** (1.0 - 1.0 / p)
            * log_nm
            / (epsilon**2 * m),
        )
        if p >= 2:
            kappa_base = scale ** (1.0 - 2.0 / p)
        else:
            kappa_base = 1.0
        kappa = max(4, int(round(kappa_scale * kappa_base / epsilon**2)))
        budget_low = max(
            2 * kappa, int(round(budget_scale * p * kappa * log_nm))
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

    def _sample(
        self,
        item: int,
        u: float,
        audit: ChunkAudit | None = None,
        position: int = 0,
    ) -> None:
        """Lines 17-18: write ``item`` into the slot picked by the slot
        coin ``u``.  Inside a chunk kernel (``audit`` given) the write
        lands in the chunk audit and the register is stored untracked."""
        slot = min(int(u * self._budget), self._budget - 1)
        evicted = self._reservoir[slot]
        if evicted is not None and self._reservoir_members.get(evicted) == slot:
            del self._reservoir_members[evicted]
        if audit is None:
            self._reservoir[slot] = item
        else:
            audit.write(f"q[{slot}]", item != evicted, position)
            self._reservoir.store_at(slot, item)
        self._reservoir_members[item] = slot

    def _open(self, created_at: int) -> int:
        """A fresh held-counter row, counting on its own coin stream."""
        key = (
            stream_key(self.seed, f"{self.stream_label}.ctr{self._created}")
            if self.use_morris
            else (0, 0)
        )
        self._created += 1
        return self._table.open(key, created_at)

    def _hold(
        self,
        item: int,
        row: int,
        created_at: int,
        settle: "ChunkSettle | None" = None,
        position: int = 0,
    ) -> None:
        """Hold counter ``row`` for ``item`` (lines 13, 19-21); prune
        when the held set reaches the budget."""
        # Two bookkeeping words: the held item id and its creation time.
        self.tracker.allocate(2)
        self._held[item] = row
        if len(self._held) >= self._budget:
            self._prune_counters(created_at, settle, position)

    # ------------------------------------------------------------------
    # Counter maintenance (lines 19-21): dyadic age groups
    # ------------------------------------------------------------------
    def _prune_counters(
        self,
        now: int,
        settle: "ChunkSettle | None" = None,
        position: int = 0,
    ) -> None:
        """Halve each dyadic age group, keeping the largest estimates.

        Counters created between ``t - 2^{z+1}`` and ``t - 2^z`` ago are
        compared only with each other, so a heavy hitter whose counter
        is young (hence small) is never outvoted by long-lived pseudo-
        heavy counters — the Section 1.4 counterexample's fix.  Under
        ``eviction="global"`` all counters are compared together
        (the classical rule; kept for the A2 ablation).

        Inside a chunk kernel (``settle`` given) the deferred arrivals
        of held items are absorbed up to ``position`` before any
        estimate is read, and the evicted items' later deferred
        arrivals go back into the settle's event order.

        Estimates grow with the level (an exact row's level is its
        count), so each group is ranked by level: one stable lexsort
        by (group, level) in ``_held`` order, which breaks ties the
        way sorting each group by estimate would.
        """
        if settle is not None:
            settle.flush(self, position)
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
            if settle is None:
                self.tracker.mark_dirty()
            else:
                settle.audit.mark(position)
        if settle is not None:
            settle.requeue(self, evicted, position)
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

    def _screen(
        self, ranks: np.ndarray, distinct: np.ndarray
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Screen the arrivals of items ``distinct[ranks]`` (the chunk's
        sorted distinct items) arriving at clock ``self._t`` and advance
        the clock past them.

        Returns the first arrival's coin index, the mask of arrivals
        whose sampling coin hits, the conservative settle mask, and the
        table row of each arrival's item if it is held now (-1 if not).
        An arrival needs settling iff its item could touch state: it is
        already held or reservoir-resident, its sampling coin hits, or
        it equals an item whose coin hits in this chunk (that item may
        enter the reservoir and then be held on a later occurrence).
        Everything unflagged is a provable no-op — the sampling coin
        misses and no lookup matches — so skipping it leaves state and
        audit exactly as the scalar loop would.  Membership is asked
        once per distinct item, not once per arrival.
        """
        n = len(ranks)
        t0 = self._t
        self._t = t0 + n
        uniforms = self._coins_sample.uniform_block(t0, n)
        hits = uniforms < self.params.sample_probability
        # Per distinct item (indexed by chunk rank): present here, its
        # row if held (-1 if not), flagged.  Only the entries of items
        # present here are filled in or read.
        present = np.zeros(len(distinct), dtype=bool)
        present[ranks] = True
        seen = np.flatnonzero(present)
        keys = distinct[seen].tolist()
        rows = np.empty(len(distinct), dtype=np.int64)
        rows[seen] = np.fromiter(
            map(self._held.get, keys, itertools.repeat(-1)), np.int64, len(keys)
        )
        flagged = rows >= 0
        flagged[seen] |= np.fromiter(
            map(self._reservoir_members.__contains__, keys), bool, len(keys)
        )
        flagged[ranks[hits]] = True
        return t0, hits, flagged[ranks], rows[ranks]

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
    leaves that share a tracker and a :class:`ChunkAudit`.

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

    Each leaf screens its substream (:meth:`SampleAndHold._screen`),
    and the flagged arrivals settle in two passes:

    * **Structural pass.**  Counter openings, reservoir writes and
      prunes settle one by one in the scalar order (position, leaf),
      which keeps the cell-number order and the allocate/free
      interleaving, hence the per-cell histogram and ``peak_words``.
      The slot coins of the arrivals whose sampling coin hits are read
      up front, lane-wise.
    * **Counting pass.**  Every unit arrival at a held counter only
      moves that counter, so it is *deferred*: the arrivals of items
      held at screen time never enter the structural pass, and an
      arrival the structural pass meets at an item held by then — the
      triggering occurrence of a counter it opens included — is set
      aside.  Deferred arrivals are absorbed in *waves*: one
      :meth:`~repro.core.counters.HeldTable.settle` over every row they
      reach, which charges each transition at its chunk position (a
      wave climbs in lane-wise steps that read the rows' level coins
      lane-wise, and finishes its last few climbing rows one by one).

    A prune reads estimates, so a wave first absorbs its leaf's
    deferred arrivals up to the prune's position.  The later arrivals
    that were deferred at screen time for the items it evicts go back
    into the event order (they were flagged, so the screen stays
    conservative); arrivals the structural pass set aside are never
    later than the prune, so they are all in that wave.  The final
    wave absorbs everything left.

    Arrivals live in numpy columns over all leaves — (position, leaf
    ordinal, item, coin index, sampling hit) — with the screen-deferred
    ones sorted by (leaf, position), their items' table rows in
    ``_rows`` and ``_pending`` marking those not yet absorbed or handed
    back; ``_late`` holds, per leaf, the arrivals the structural pass
    set aside, as flat ``row, position`` pairs.  A pending or late
    arrival's row is its item's row until the wave absorbs it: a prune
    absorbs its leaf's arrivals before it frees any row and hands the
    evicted items' later ones back.
    """

    __slots__ = (
        "audit",
        "_leaves",
        "_ordinals",
        "_table",
        "_events",
        "_requeued",
        "_deferred",
        "_rows",
        "_bounds",
        "_pending",
        "_late",
    )

    def __init__(
        self,
        chunk: np.ndarray,
        routes: list[tuple[SampleAndHold, np.ndarray]],
        audit: ChunkAudit,
    ) -> None:
        self.audit = audit
        # Chunk-local item ranks: the screens ask membership once per
        # distinct item.
        distinct, ranks = np.unique(chunk, return_inverse=True)
        self._leaves = [leaf for leaf, _ in routes]
        self._ordinals = {leaf: o for o, leaf in enumerate(self._leaves)}
        self._table = self._leaves[0]._table
        self._requeued: list[tuple] = []
        self._late: list[list[int]] = [[] for _ in routes]
        lengths = [len(positions) for _, positions in routes]
        position = np.concatenate([positions for _, positions in routes])
        item = chunk[position]
        bounds = np.cumsum([0] + lengths)
        rank = ranks[position]
        t0s, hits, flags, rows = zip(
            *(
                leaf._screen(rank[low:high], distinct)
                for leaf, low, high in zip(self._leaves, bounds, bounds[1:])
            )
        )
        hit, flagged, row = (
            np.concatenate(column) for column in (hits, flags, rows)
        )
        held = row >= 0
        ordinal = np.repeat(np.arange(len(routes)), lengths)
        # Coin indices: leaf o's arrivals count up from its clock t0.
        index = np.arange(len(position)) + np.repeat(
            np.array(t0s) - bounds[:-1], lengths
        )
        fields = (position, ordinal, item, index, hit)
        events = np.flatnonzero(flagged & ~held)
        events = events[np.lexsort((ordinal[events], position[events]))]
        self._events = self._event_rows([field[events] for field in fields])
        deferred = np.flatnonzero(held)  # already in (leaf, position) order
        self._deferred = [field[deferred] for field in fields]
        self._rows = row[deferred]
        self._bounds = np.searchsorted(
            self._deferred[1], np.arange(len(routes) + 1)
        ).tolist()
        self._pending = np.ones(len(deferred), dtype=bool)

    def _event_rows(self, columns: list[np.ndarray]) -> list[list]:
        """Event columns (position, ordinal, item, coin index, slot
        coin) as lists, from arrival columns (position, ordinal, item,
        coin index, sampling hit).  The slot coin is read, lane-wise,
        only where the sampling coin hits; it is -1.0 elsewhere."""
        position, ordinal, item, index, hit = columns
        hits = np.flatnonzero(hit)
        slot = np.full(len(position), -1.0)
        if len(hits):
            keys0, keys1 = np.array(
                [leaf._coins_slot.key for leaf in self._leaves], dtype=np.uint64
            ).T
            hit_ordinal = ordinal[hits]
            slot[hits] = lane_uniforms(
                keys0[hit_ordinal], keys1[hit_ordinal], index[hits]
            )
        return [
            position.tolist(),
            ordinal.tolist(),
            item.tolist(),
            index.tolist(),
            slot.tolist(),
        ]

    def run(self) -> None:
        """The structural pass over every event, then the final wave.

        An event replays the scalar :meth:`SampleAndHold._update` with
        the counting deferred: an arrival at an item held by then is
        set aside, and so is the triggering occurrence of a counter the
        event opens."""
        leaves = self._leaves
        held = [leaf._held for leaf in leaves]
        members = [leaf._reservoir_members for leaf in leaves]
        late = self._late
        audit = self.audit
        for position, ordinal, item, index, slot in self._merged_events():
            row = held[ordinal].get(item)
            if row is not None:
                late[ordinal] += (row, position)
            elif item in members[ordinal]:
                leaf = leaves[ordinal]
                row = leaf._open(index + 1)
                late[ordinal] += (row, position)
                leaf._hold(item, row, index + 1, self, position)
            elif slot >= 0.0:
                leaves[ordinal]._sample(item, slot, audit, position)
        self._wave(
            np.flatnonzero(self._pending),
            list(itertools.chain.from_iterable(late)),
        )

    def _merged_events(self):
        """The events in (position, leaf) order, with the arrivals that
        prunes hand back (:meth:`requeue`) merged in as they come."""
        requeued = self._requeued
        for event in zip(*self._events):
            while requeued and requeued[0] < event:
                yield heapq.heappop(requeued)
            yield event
        while requeued:
            yield heapq.heappop(requeued)

    def flush(self, leaf: SampleAndHold, position: int) -> None:
        """Absorb ``leaf``'s deferred arrivals up to ``position``."""
        ordinal = self._ordinals[leaf]
        low = self._bounds[ordinal]
        high = low + int(
            np.searchsorted(
                self._deferred[0][low:self._bounds[ordinal + 1]],
                position,
                side="right",
            )
        )
        late = self._late[ordinal]
        self._late[ordinal] = []
        self._wave(np.flatnonzero(self._pending[low:high]) + low, late)

    def requeue(
        self, leaf: SampleAndHold, evicted: list[int], position: int
    ) -> None:
        """Hand the pending screen-deferred arrivals of items ``leaf``
        just evicted back to the event order.  The prune flushed
        everything up to ``position``, so all of them come later."""
        ordinal = self._ordinals[leaf]
        low, high = self._bounds[ordinal], self._bounds[ordinal + 1]
        if low == high or not evicted:
            return
        take = (
            np.flatnonzero(
                self._pending[low:high]
                & np.isin(
                    self._deferred[2][low:high],
                    np.asarray(evicted, dtype=np.int64),
                )
            )
            + low
        )
        self._pending[take] = False
        rows = self._event_rows([field[take] for field in self._deferred])
        for event in zip(*rows):
            heapq.heappush(self._requeued, event)

    def _wave(self, take: np.ndarray, late: list[int]) -> None:
        """The counting pass over the screen-deferred arrivals ``take``
        (indices into the deferred columns) plus the ``late`` arrivals
        (flat row, position pairs), all settled by one
        :meth:`~repro.core.counters.HeldTable.settle`.

        A row's arrivals all come from one source -- screen-deferred
        ones exist only for items held at screen time, and a requeue
        takes all of an item's pending ones before it can arrive late
        -- and each source lists a leaf's arrivals by position, so each
        row's arrivals are in stream order, as the settle needs."""
        if len(take) == 0 and not late:
            return
        self._pending[take] = False
        position = self._deferred[0][take]
        rows = self._rows[take]
        if late:
            extra = np.array(late, dtype=np.int64).reshape(-1, 2)
            rows = np.concatenate((rows, extra[:, 0]))
            position = np.concatenate((position, extra[:, 1]))
        self._table.settle(rows, position, self.audit)


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
