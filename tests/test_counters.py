"""Tests for the Morris counter kernels and table rows (Theorem 1.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import counters as counters_module
from repro.core.counters import (
    HeldTable,
    geometric_threshold,
    skip_morris_step,
    weighted_morris_step,
)
from repro.hashing.coins import PhiloxCoins
from repro.state import StateTracker
from repro.state.algorithm import ChunkAudit
from repro.state.registers import TrackedValue
from repro.state.tracker import make_tracker


class SkipMorrisCounter:
    """Unit Morris counter on indexed coins (skip-sampling), one object
    per counter: the oracle of :class:`HeldTable` rows and
    :func:`skip_morris_step` lanes.

    The stored state is the level ``X`` (one tracked word) plus two
    untracked shadows: ``since``, the arrivals absorbed at the current
    level, and the geometric ``threshold`` at which the level is left.
    Entering level ``X`` draws the threshold by inversion from the coin
    at index ``X`` of the counter's :class:`PhiloxCoins` stream; level 0
    keeps the textbook counter's deterministic first step (threshold 1,
    no coin).
    """

    __slots__ = ("a", "cell_id", "_coins", "_level", "_since", "_threshold")

    def __init__(self, tracker, a, coins, cell_id=None):
        if a <= 0:
            raise ValueError(f"Morris parameter a must be positive: {a}")
        cell_id = cell_id or f"morris#{tracker.fresh_cell_number()}"
        self.a = a
        self.cell_id = cell_id
        self._coins = coins
        self._level = TrackedValue(tracker, cell_id, 0)
        self._since = 0
        self._threshold = 1

    def _geometric(self, level):
        """Arrivals level ``level`` survives: Geometric((1+a)^-level)."""
        if level <= 0:
            return 1
        return geometric_threshold(self.a, level, self._coins.uniform(level))

    def add(self, weight=1.0):
        if weight != 1.0:
            raise ValueError(
                f"SkipMorrisCounter only supports unit increments: {weight}"
            )
        self._since += 1
        if self._since >= self._threshold:
            level = self._level.value + 1
            if self._level.set(level):
                self._since = 0
                self._threshold = self._geometric(level)

    def absorb(self, count):
        """Bulk-apply ``count`` unit arrivals (untracked); returns the
        1-based arrival ordinals at which the level transitioned.  A
        climb needs at least one arrival, however far ``since`` is past
        the threshold."""
        transitions = []
        consumed = 0
        while True:
            need = max(self._threshold - self._since, 1)
            if count - consumed < need:
                self._since += count - consumed
                return transitions
            consumed += need
            level = self._level.value + 1
            self._level.load(level)
            transitions.append(consumed)
            self._since = 0
            self._threshold = self._geometric(level)

    @property
    def estimate(self):
        level = self._level.value
        return ((1.0 + self.a) ** level - 1.0) / self.a

    @property
    def level(self):
        return self._level.value

    @property
    def since(self):
        return self._since

    @property
    def threshold(self):
        return self._threshold

    def merge_weight(self, weight, u):
        """Absorb a merged-in estimate via one weighted climb on the
        merge coin ``u``; returns whether the level changed."""
        level = int(
            weighted_morris_step(
                self.a, [self._level.value], [float(weight)], [float(u)]
            )[0]
        )
        if level == self._level.value:
            return False
        self._level.load(level)
        self._since = 0
        self._threshold = self._geometric(level)
        return True

    def restore(self, level, since):
        """Load a checkpointed ``(level, since)`` pair (untracked)."""
        level = int(level)
        self._level.load(level)
        self._threshold = self._geometric(level)
        self._since = int(since)

    def release(self):
        self._level.release()


class TestWeightedMorrisStep:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=1, max_value=300),
        a=st.sampled_from([0.001, 0.02, 0.125, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_lanes_are_independent(self, seed, length, a):
        """The p-stable waves feed vectors of varying length: every
        lane must equal the same step taken alone, bit for bit."""
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, 400, length)
        # Zero, sub-gap, and many-level weights, on a log scale.
        weights = np.where(
            rng.random(length) < 0.1, 0.0, 10.0 ** rng.uniform(-4, 4, length)
        )
        uniforms = rng.random(length)
        stepped = weighted_morris_step(a, levels, weights, uniforms)
        alone = [
            int(weighted_morris_step(a, levels[i:i + 1], weights[i:i + 1],
                                     uniforms[i:i + 1])[0])
            for i in range(length)
        ]
        assert stepped.tolist() == alone

    @pytest.mark.parametrize(
        "a,level,weight",
        [
            (0.3, 0, 0.2),
            (0.3, 4, 1.7),
            (0.5, 2, 10.0),
            (0.125, 20, 0.05),
            (0.02, 150, 37.0),
        ],
    )
    def test_expected_estimate_rises_by_the_weight(self, a, level, weight):
        """Unbiased weighted climbs: over 8,192 lanes at one level and
        weight, the mean rise of the estimate ``((1+a)^L - 1)/a`` is
        within 4 standard errors of the weight -- for sub-gap weights
        that only flip the coin and for weights that first climb whole
        levels."""
        lanes = 8192
        uniforms = PhiloxCoins(level, "unbiased").uniform_block(0, lanes)
        levels = weighted_morris_step(
            a, np.full(lanes, level), np.full(lanes, weight), uniforms
        )
        rise = ((1 + a) ** levels.astype(np.float64) - (1 + a) ** level) / a
        assert abs(rise.mean() - weight) <= 4 * rise.std(ddof=1) / np.sqrt(lanes)

    def test_large_weight_climbs_levels_deterministically(self):
        """A 1e6 weight climbs its whole levels without a coin: any coin
        lands on that level or one above, and the two estimates bracket
        the weight."""
        a = 0.5
        uniforms = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        levels = weighted_morris_step(a, np.zeros(5), np.full(5, 1e6), uniforms)
        low = int(levels.min())
        assert low > 10
        assert levels.max() <= low + 1
        assert ((1 + a) ** low - 1) / a <= 1e6 < ((1 + a) ** (low + 1) - 1) / a

    def test_zero_weight_never_moves_a_level(self):
        levels = np.array([0, 1, 7, 40, 400])
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            stepped = weighted_morris_step(0.5, levels, np.zeros(5), np.full(5, u))
            assert stepped.tolist() == levels.tolist()


def _skip_counter(a: float, lane: int, level: int, since: int):
    """A held-counter-like SkipMorrisCounter at ``(level, since)``, with
    ``since`` reduced below the level's threshold."""
    counter = SkipMorrisCounter(
        StateTracker(), a=a, coins=PhiloxCoins(lane, f"lane{lane}.ctr")
    )
    counter.restore(level, 0)
    counter.restore(level, since % counter.threshold)
    return counter


class TestSkipMorrisCounter:
    @pytest.mark.parametrize("a", [0.05, 0.125, 0.5])
    @pytest.mark.parametrize("level", [0, 1, 7, 30])
    @pytest.mark.parametrize("count", [0, 1, 5, 300, 4000])
    def test_absorb_equals_adds(self, a, level, count):
        """``absorb(k)`` is ``k`` scalar adds: the same level, since and
        threshold, and transitions exactly at the adds that wrote."""
        bulk = _skip_counter(a, 3, level, 11)
        scalar = _skip_counter(a, 3, level, 11)
        written = []
        for ordinal in range(1, count + 1):
            before = scalar.level
            scalar.add()
            if scalar.level != before:
                written.append(ordinal)
        assert bulk.absorb(count) == written
        assert (bulk.level, bulk.since, bulk.threshold) == (
            scalar.level,
            scalar.since,
            scalar.threshold,
        )

    def test_only_unit_adds(self):
        with pytest.raises(ValueError):
            _skip_counter(0.125, 0, 0, 0).add(2.0)

    @pytest.mark.parametrize("past", [0, 1, 10**6])
    @pytest.mark.parametrize("level", [0, 5, 40])
    def test_absorb_from_since_past_threshold_equals_adds(self, level, past):
        """A restored ``since`` at or past the threshold climbs on the
        next arrival, in bulk as in scalar adds."""
        bulk = _skip_counter(0.125, 3, level, 0)
        bulk.restore(level, bulk.threshold + past)
        scalar = _skip_counter(0.125, 3, level, 0)
        scalar.restore(level, scalar.threshold + past)
        assert bulk.absorb(3) == _scalar_writes(scalar, 3)
        assert (bulk.level, bulk.since, bulk.threshold) == (
            scalar.level, scalar.since, scalar.threshold
        )


def _scalar_writes(counter, count: int) -> list[int]:
    """The 1-based ordinals of ``count`` scalar adds that wrote."""
    written = []
    for ordinal in range(1, count + 1):
        before = counter.level
        counter.add()
        if counter.level != before:
            written.append(ordinal)
    return written


class TestSkipMorrisStep:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=1, max_value=120),
        a=st.sampled_from([0.02, 0.125, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_lanes_equal_per_counter_absorb(self, seed, length, a):
        """Lane-wise climbs -- count 0, single steps and many-level
        climbs, past the few-lanes cut-off of the coin kernel -- equal
        each counter's own ``absorb``: levels, since, thresholds and
        transition ordinals."""
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, 40, length).tolist()
        since = rng.integers(0, 1000, length).tolist()
        counts = np.where(
            rng.random(length) < 0.2, 0, 10 ** rng.uniform(0, 3.5, length)
        ).astype(np.int64)
        stepped = [
            _skip_counter(a, lane, levels[lane], since[lane])
            for lane in range(length)
        ]
        alone = [
            _skip_counter(a, lane, levels[lane], since[lane])
            for lane in range(length)
        ]
        keys0, keys1 = zip(*(c._coins.key for c in stepped))
        new_levels, new_since, thresholds, lanes, at = skip_morris_step(
            a,
            list(keys0),
            list(keys1),
            [c.level for c in stepped],
            [c.since for c in stepped],
            [c.threshold for c in stepped],
            counts,
        )
        for lane, counter in enumerate(alone):
            assert at[lanes == lane].tolist() == counter.absorb(
                int(counts[lane])
            )
            assert (
                new_levels[lane], new_since[lane], thresholds[lane]
            ) == (counter.level, counter.since, counter.threshold)
        assert np.all(np.diff(lanes) >= 0)

    @staticmethod
    def _assert_step_equals_oracle(a, counters, counts):
        """One :func:`skip_morris_step` over ``counters`` equals each
        oracle counter's own ``absorb`` (the counters are advanced)."""
        keys0, keys1 = zip(*(c._coins.key for c in counters))
        new_levels, new_since, thresholds, lanes, at = skip_morris_step(
            a,
            list(keys0),
            list(keys1),
            [c.level for c in counters],
            [c.since for c in counters],
            [c.threshold for c in counters],
            counts,
        )
        assert np.all(np.diff(lanes) >= 0)
        for lane, counter in enumerate(counters):
            assert at[lanes == lane].tolist() == counter.absorb(
                int(counts[lane])
            )
            assert (
                new_levels[lane], new_since[lane], thresholds[lane]
            ) == (counter.level, counter.since, counter.threshold)

    def test_one_lane_climbs_thousands_of_levels(self):
        """Below the cut-off a lane counts down on its own: one lane
        at a = 0.001 climbs thousands of levels, across many blocks of
        read-ahead coins."""
        counter = _skip_counter(0.001, 7, 0, 0)
        self._assert_step_equals_oracle(
            0.001, [_skip_counter(0.001, 7, 0, 0)], np.array([200_000])
        )
        counter.absorb(200_000)
        assert counter.level > 4000

    def test_a_few_lanes_climb_far_past_the_rest(self):
        """A wide call climbs lane-wise until fewer than the cut-off
        still climb; those few then finish one at a time."""
        rng = np.random.default_rng(11)
        width = 200
        counts = rng.integers(0, 60, width)
        counts[[3, 77, 150]] = [40_000, 90_000, 150_000]
        levels = rng.integers(0, 30, width).tolist()
        since = rng.integers(0, 50, width).tolist()
        counters = [
            _skip_counter(0.02, lane, levels[lane], since[lane])
            for lane in range(width)
        ]
        self._assert_step_equals_oracle(0.02, counters, counts)

    @pytest.mark.parametrize("width", range(1, 2 * counters_module._FEW_LANES + 1))
    def test_every_width_around_the_cut_off(self, width):
        """Calls narrower than, at and wider than the cut-off, from
        states with ``since`` at or past the threshold included."""
        rng = np.random.default_rng(width)
        counts = np.where(
            rng.random(width) < 0.2, 0, 10 ** rng.uniform(0, 3.5, width)
        ).astype(np.int64)
        counters = []
        for lane in range(width):
            counter = _skip_counter(
                0.125, lane, int(rng.integers(0, 30)), int(rng.integers(0, 100))
            )
            if rng.random() < 0.25:
                counter.restore(counter.level, counter.threshold + 5)
            counters.append(counter)
        self._assert_step_equals_oracle(0.125, counters, counts)

    def test_since_past_threshold_climbs_on_the_next_arrival(self):
        """A climb needs at least one arrival: the lane step from a
        restored ``since`` past the threshold writes where scalar adds
        do, never before the first arrival."""
        for level in (0, 5, 40):
            stepped = _skip_counter(0.125, 3, level, 0)
            stepped.restore(level, stepped.threshold + 10**6)
            scalar = _skip_counter(0.125, 3, level, 0)
            scalar.restore(level, scalar.threshold + 10**6)
            levels, since, thresholds, lanes, at = skip_morris_step(
                0.125,
                [stepped._coins.key[0]],
                [stepped._coins.key[1]],
                [stepped.level],
                [stepped.since],
                [stepped.threshold],
                np.array([3]),
            )
            assert at.tolist() == _scalar_writes(scalar, 3)
            assert at.min() >= 1
            assert (levels[0], since[0], thresholds[0]) == (
                scalar.level, scalar.since, scalar.threshold
            )


def _table_rows(a: float, levels: list[int], since: list[int]):
    """A table whose row ``i`` stands where ``_skip_counter(a, i,
    levels[i], since[i])`` does -- same coin key, level, since and
    threshold -- plus those oracle counters."""
    oracles = [
        _skip_counter(a, lane, level, count)
        for lane, (level, count) in enumerate(zip(levels, since))
    ]
    table = HeldTable(StateTracker(), a)
    rows = []
    for oracle in oracles:
        row = table.open(oracle._coins.key, 0)
        table.level[row] = oracle.level
        table.since[row] = oracle.since
        table.threshold[row] = oracle.threshold
        rows.append(row)
    return table, np.array(rows), oracles


def _row_state(table: HeldTable, row: int) -> tuple[int, int, int]:
    return (
        int(table.level[row]),
        int(table.since[row]),
        int(table.threshold[row]),
    )


class TestHeldTable:
    """Table rows are :class:`SkipMorrisCounter` s held as columns (or
    exact counts): the oracle counters with the same coin key and
    ``(level, since)`` must agree on every level, since, threshold,
    transition and estimate."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.sampled_from([0.02, 0.125, 0.5]),
    )
    @settings(max_examples=30, deadline=None)
    def test_scalar_adds_equal_counter_adds(self, seed, a):
        rng = np.random.default_rng(seed)
        width = 6
        levels = rng.integers(0, 40, width).tolist()
        since = rng.integers(0, 1000, width).tolist()
        counts = rng.integers(0, 400, width).tolist()
        table, rows, oracles = _table_rows(a, levels, since)
        for row, oracle, count in zip(rows.tolist(), oracles, counts):
            stepped, added = [], []
            for ordinal in range(1, count + 1):
                before = int(table.level[row]), oracle.level
                table.add(row)
                oracle.add()
                if table.level[row] != before[0]:
                    stepped.append(ordinal)
                if oracle.level != before[1]:
                    added.append(ordinal)
            assert stepped == added
            assert _row_state(table, row) == (
                oracle.level, oracle.since, oracle.threshold
            )

    @pytest.mark.parametrize("wide", [False, True])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.sampled_from([0.02, 0.125, 0.5]),
    )
    @settings(max_examples=15, deadline=None)
    def test_wave_absorbs_equal_counter_absorbs(self, wide, seed, a):
        """Narrow waves (a few rows, like a chunk of a few items) and
        wide ones (hundreds of rows) climb in the same lane step."""
        rng = np.random.default_rng(seed)
        width = int(rng.integers(128, 192) if wide else rng.integers(1, 40))
        levels = rng.integers(0, 40, width).tolist()
        since = rng.integers(0, 1000, width).tolist()
        counts = np.where(
            rng.random(width) < 0.2, 0, 10 ** rng.uniform(0, 3.5, width)
        ).astype(np.int64)
        table, rows, oracles = _table_rows(a, levels, since)
        lanes, at = table.absorb(rows, counts)
        for lane, oracle in enumerate(oracles):
            assert at[lanes == lane].tolist() == oracle.absorb(int(counts[lane]))
            assert _row_state(table, rows[lane]) == (
                oracle.level, oracle.since, oracle.threshold
            )

    @pytest.mark.parametrize("width", [3, 300])
    def test_table_absorb_equals_per_counter_absorb(self, width):
        """A narrow and a wide wave leave every row where its
        counter's own ``absorb`` would and report the same
        transitions."""
        rng = np.random.default_rng(width)
        levels = rng.integers(0, 30, width).tolist()
        counts = rng.integers(0, 200, width)
        table, rows, _ = _table_rows(0.125, levels, [7] * width)
        alone = [_skip_counter(0.125, i, levels[i], 7) for i in range(width)]
        lanes, at = table.absorb(rows, counts)
        for lane, single in enumerate(alone):
            assert at[lanes == lane].tolist() == single.absorb(
                int(counts[lane])
            )
            assert _row_state(table, rows[lane]) == (
                single.level,
                single.since,
                single.threshold,
            )

    def test_exact_rows_count_every_arrival(self):
        """Exact rows write on every arrival, added or absorbed, and
        estimate their arrival count."""
        tracker = StateTracker()
        table = HeldTable(tracker, 0.125, exact=True)
        rows = np.array([table.open((0, 0), 0) for _ in range(3)])
        lanes, at = table.absorb(rows, np.array([2, 0, 3]))
        assert lanes.tolist() == [0, 0, 2, 2, 2]
        assert at.tolist() == [1, 2, 1, 2, 3]
        table.add(int(rows[1]))
        assert table.estimates(rows).tolist() == [2.0, 1.0, 3.0]
        assert tracker.total_writes == 1
        assert tracker.report().cell_writes == {table.label(1): 1}

    def test_exact_row_writes_once_per_add(self):
        """Every scalar add on an exact row is one state change on its
        cell, and the row estimates the number of adds."""
        tracker = StateTracker()
        table = HeldTable(tracker, 0.125, exact=True)
        row = table.open((0, 0), 0)
        for _ in range(50):
            table.add(row)
            tracker.tick()
        assert tracker.state_changes == 50
        assert table.estimate(row) == 50.0
        assert tracker.report().cell_writes == {table.label(0): 50}

    @pytest.mark.parametrize("exact", [False, True])
    def test_fresh_row_estimates_zero(self, exact):
        """An opened row holds one word at level 0 (threshold 1, nothing
        absorbed), estimates 0 and has written nothing."""
        tracker = StateTracker()
        table = HeldTable(tracker, 0.5, exact=exact)
        row = table.open((3, 4), 0)
        assert _row_state(table, row) == (0, 0, 1)
        assert table.estimate(row) == 0.0
        assert table.estimates(np.array([row])).tolist() == [0.0]
        assert tracker.current_words == 1
        assert tracker.total_writes == 0

    def test_first_arrival_always_climbs(self):
        """Level 0 survives one arrival whatever the coin key: the first
        arrival climbs to level 1, absorbed or added."""
        table = HeldTable(StateTracker(), 0.5)
        rows = np.array([table.open((7, key), 0) for key in range(64)])
        lanes, at = table.absorb(rows, np.ones(64, dtype=np.int64))
        assert lanes.tolist() == list(range(64))
        assert at.tolist() == [1] * 64
        assert table.level[rows].tolist() == [1] * 64
        tracker = StateTracker()
        single = HeldTable(tracker, 0.5)
        row = single.open((7, 64), 0)
        single.add(row)
        assert int(single.level[row]) == 1
        assert tracker.total_writes == 1

    @pytest.mark.parametrize("exact", [False, True])
    def test_zero_arrivals_write_nothing(self, exact):
        """Rows absorbing no arrival keep their state and report no
        transition, and an empty settle charges nothing."""
        tracker = StateTracker()
        table = HeldTable(tracker, 0.125, exact=exact)
        rows = np.array([table.open((5, i), 0) for i in range(4)])
        table.absorb(rows, np.array([0, 3, 0, 9]))
        before = [_row_state(table, row) for row in rows]
        lanes, at = table.absorb(rows, np.zeros(4, dtype=np.int64))
        assert lanes.tolist() == at.tolist() == []
        assert [_row_state(table, row) for row in rows] == before
        audit = ChunkAudit(8, tracker.needs_cell_ids)
        table.settle(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), audit)
        assert audit.attempts == audit.writes == 0
        assert not audit.dirty.any()
        assert tracker.total_writes == 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_release_frees_the_word(self, exact):
        """Released rows give their words back; the peak remembers
        them."""
        tracker = StateTracker()
        table = HeldTable(tracker, 0.125, exact=exact)
        rows = [table.open((6, i), 0) for i in range(3)]
        for row in rows:
            table.release(row)
        assert tracker.current_words == 0
        assert tracker.peak_words == 3

    def test_invalid_a_raises(self):
        """A Morris row needs ``a > 0``; an exact row reads no ``a``."""
        for a in (0.0, -0.5):
            with pytest.raises(ValueError, match="must be positive"):
                HeldTable(StateTracker(), a)
        assert HeldTable(StateTracker(), 0.0, exact=True).exact

    def test_unit_arrival_mean_over_copies(self):
        """The mean estimate over independent rows approaches the
        count."""
        n, copies = 500, 400
        table = HeldTable(StateTracker(), 0.5)
        rows = np.array([table.open((0, copy), 0) for copy in range(copies)])
        table.absorb(rows, np.full(copies, n))
        assert table.estimates(rows).mean() == pytest.approx(n, rel=0.1)

    def test_few_state_changes(self):
        """100K arrivals at a = 0.5 climb ~27 levels (log_1.5(a*n)):
        fewer than 100 state changes, charged through a settle.  The
        relative sd is sqrt(a/2) = 0.5 here, so the estimate is held to
        the band of the Chebyshev test below, not to one sd."""
        tracker = StateTracker()
        table = HeldTable(tracker, 0.5)
        row = table.open((1, 0), 0)
        n = 100_000
        audit = ChunkAudit(n, tracker.needs_cell_ids)
        table.settle(np.full(n, row), np.arange(n), audit)
        audit.commit(tracker, n)
        assert tracker.state_changes < 100
        assert n / 6 <= table.estimate(row) <= 6 * n

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=25, deadline=None)
    def test_estimate_within_chebyshev_band_mostly(self, n):
        """With a = 2*eps^2*delta (eps=0.5, delta=0.2) the estimate is
        within 50% of n with probability >= 0.8; one row on the n-th
        key must stay within a much looser 6x band."""
        table = HeldTable(StateTracker(), 2 * 0.5**2 * 0.2)
        row = table.open((n, 0), 0)
        table.absorb(np.array([row]), np.array([n]))
        assert n / 6 - 10 <= table.estimate(row) <= 6 * n + 10

    def test_estimates_use_python_power_at_every_level(self):
        a = 0.125
        table = HeldTable(StateTracker(), a)
        rows = np.array([table.open((0, 0), 0) for _ in range(401)])
        table.level[rows] = np.arange(401)
        expected = [((1 + a) ** level - 1) / a for level in range(401)]
        assert table.estimates(rows).tolist() == expected
        assert [table.estimate(row) for row in rows.tolist()] == expected
        oracle = _skip_counter(a, 0, 0, 0)
        for level in (0, 1, 37, 400):
            oracle.restore(level, 0)
            assert table.estimate(int(rows[level])) == oracle.estimate
        # A tiny ``a`` lets levels follow counts far past 400.
        tiny = HeldTable(StateTracker(), 2e-6)
        high = np.array([tiny.open((0, 0), 0) for _ in range(3)])
        tiny.level[high] = [3, 10**6, 3]
        assert tiny.estimates(high).tolist() == [
            ((1 + 2e-6) ** level - 1) / 2e-6 for level in (3, 10**6, 3)
        ]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.sampled_from([0.02, 0.125, 0.5]),
    )
    @settings(max_examples=20, deadline=None)
    def test_merge_equals_counter_merge_weight(self, seed, a):
        """One weighted climb per row, on the caller's merge coins:
        rows that climb redraw their threshold at the new level, rows
        that stay keep ``since`` and threshold."""
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 60))
        levels = rng.integers(0, 40, width).tolist()
        since = rng.integers(0, 1000, width).tolist()
        table, rows, oracles = _table_rows(a, levels, since)
        weights = np.where(
            rng.random(width) < 0.2, 0.0, 10.0 ** rng.uniform(-3, 4, width)
        )
        uniforms = rng.random(width)
        table.merge(rows, weights, uniforms)
        for row, oracle, weight, u in zip(
            rows.tolist(), oracles, weights.tolist(), uniforms.tolist()
        ):
            oracle.merge_weight(weight, u)
            assert _row_state(table, row) == (
                oracle.level, oracle.since, oracle.threshold
            )

    @pytest.mark.parametrize("a", [0.125, 0.5])
    def test_restore_equals_counter_restore(self, a):
        """Restored rows redraw each threshold from their level's coin
        and keep ``since`` as given -- past the threshold included --
        and then absorb as the restored counter does."""
        rng = np.random.default_rng(5)
        width = 40
        levels = rng.integers(0, 60, width)
        levels[::2] = 0  # level 0 keeps threshold 1 and reads no coin
        since = rng.integers(0, 10**6, width)
        since[::4] = 0
        table, rows, oracles = _table_rows(a, [0] * width, [0] * width)
        table.restore(rows, levels, since)
        for lane, oracle in enumerate(oracles):
            oracle.restore(int(levels[lane]), int(since[lane]))
            assert _row_state(table, rows[lane]) == (
                oracle.level, oracle.since, oracle.threshold
            )
        counts = rng.integers(0, 300, width)
        lanes, at = table.absorb(rows, counts)
        for lane, oracle in enumerate(oracles):
            assert at[lanes == lane].tolist() == oracle.absorb(int(counts[lane]))
            assert _row_state(table, rows[lane]) == (
                oracle.level, oracle.since, oracle.threshold
            )

    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    def test_settle_charges_what_scalar_adds_write(self, mode):
        """A chunk's (row, position) arrivals, rows interleaved: the
        settle charges every transition at the position a scalar add
        per arrival writes on, to the cell it writes."""
        rng = np.random.default_rng(9)
        width, n = 24, 3000
        levels = rng.integers(0, 12, width).tolist()
        bulk, rows, _ = _table_rows(0.125, levels, [0] * width)
        tracker = make_tracker(mode)
        scalar = HeldTable(tracker, 0.125)
        for row in rows.tolist():
            scalar.open((int(bulk.key0[row]), int(bulk.key1[row])), 0)
            scalar.level[row] = bulk.level[row]
            scalar.threshold[row] = bulk.threshold[row]
        arrivals = rng.integers(0, width, n)
        audit = ChunkAudit(n, tracker.needs_cell_ids)
        bulk.settle(rows[arrivals], np.arange(n), audit)
        written = []
        for position, row in enumerate(rows[arrivals].tolist()):
            before = tracker.total_writes
            scalar.add(row)
            if tracker.total_writes != before:
                written.append(position)
        assert np.flatnonzero(audit.dirty).tolist() == written
        assert audit.writes == audit.attempts == len(written)
        assert bulk.level[rows].tolist() == scalar.level[rows].tolist()
        assert bulk.since[rows].tolist() == scalar.since[rows].tolist()
        if mode == "trace":
            assert audit.cells == tracker.report().cell_writes

    def test_adopted_rows_keep_columns_words_and_cells(self):
        """Moving rows between tables of one tracker allocates nothing,
        reserves no cell number and keeps every column."""
        tracker = make_tracker("trace")
        first, second = HeldTable(tracker, 0.05), HeldTable(tracker, 0.05)
        mine = [first.open((1, i), 0) for i in range(3)]
        theirs = [second.open((2, i), 0) for i in range(4)]
        for row in theirs:
            for _ in range(5):
                second.add(row)
        words, cells = tracker.current_words, tracker.fresh_cell_number()
        moved = first.adopt(second, theirs)
        assert moved.tolist() == [3, 4, 5, 6]
        assert tracker.current_words == words
        assert tracker.fresh_cell_number() == cells + 1
        for name in ("level", "since", "threshold", "key0", "key1", "cell"):
            assert getattr(first, name)[moved].tolist() == getattr(
                second, name
            )[theirs].tolist()
        assert first.cell[mine + moved.tolist()].tolist() == list(range(7))

    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    def test_evicted_row_is_reused_with_a_fresh_cell(self, mode):
        """A released row comes back at level 0 for the next opening,
        under a fresh cell number, and the words balance."""
        tracker = make_tracker(mode)
        table = HeldTable(tracker, 0.125)
        first = table.open((1, 2), 5)
        table.open((3, 4), 6)
        for _ in range(3):
            table.add(first)
        assert table.level[first] > 0 and int(table.cell[first]) == 0
        table.release(first)
        assert tracker.current_words == 1
        reused = table.open((5, 6), 9)
        assert reused == first
        assert int(table.cell[reused]) == 2
        assert _row_state(table, reused) == (0, 0, 1)
        assert (int(table.key0[reused]), int(table.key1[reused])) == (5, 6)
        assert int(table.created_at[reused]) == 9
        assert tracker.current_words == 2
        table.add(reused)
        if mode == "trace":
            cells = tracker.report().cell_writes
            assert cells["morris#2"] == 1 and cells["morris#0"] >= 1
