"""Tests for the p-stable Morris-counter Fp estimator (Theorem 3.2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fp_pstable
from repro.core.counters import weighted_morris_step
from repro.core.entropy import EntropyEstimator
from repro.core.fp_pstable import (
    PStableFpEstimator,
    VariateTable,
    screen_thresholds,
)
from repro.hashing.pstable import cms_transform
from repro.streams import FrequencyVector, uniform_stream, zipf_stream


class TestConstruction:
    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            PStableFpEstimator(p=0.0)
        with pytest.raises(ValueError):
            PStableFpEstimator(p=2.0)

    def test_invalid_epsilon_raises(self):
        with pytest.raises(ValueError):
            PStableFpEstimator(p=0.5, epsilon=0)

    def test_default_rows_scale_with_epsilon(self):
        coarse = PStableFpEstimator(p=0.5, epsilon=0.5)
        fine = PStableFpEstimator(p=0.5, epsilon=0.15)
        assert fine.num_rows > coarse.num_rows

    def test_explicit_rows(self):
        algo = PStableFpEstimator(p=0.5, num_rows=33)
        assert algo.num_rows == 33


class TestAccuracy:
    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    def test_zipf_accuracy(self, p):
        n, m = 500, 8000
        stream = zipf_stream(n, m, skew=1.2, seed=10 + int(4 * p))
        truth = FrequencyVector.from_stream(stream).fp_moment(p)
        algo = PStableFpEstimator(p=p, num_rows=120, seed=1)
        algo.process_stream(stream)
        assert algo.fp_estimate() == pytest.approx(truth, rel=0.35)

    def test_uniform_f_half(self):
        n, m = 400, 6000
        stream = uniform_stream(n, m, seed=2)
        truth = FrequencyVector.from_stream(stream).fp_moment(0.5)
        algo = PStableFpEstimator(p=0.5, num_rows=120, seed=2)
        algo.process_stream(stream)
        assert algo.fp_estimate() == pytest.approx(truth, rel=0.35)

    def test_log_cosine_estimator(self):
        n, m = 300, 5000
        stream = zipf_stream(n, m, skew=1.1, seed=3)
        truth = FrequencyVector.from_stream(stream).fp_moment(0.5)
        algo = PStableFpEstimator(p=0.5, num_rows=120, seed=3)
        algo.process_stream(stream)
        estimate = algo.fp_estimate(estimator="log-cosine")
        assert estimate == pytest.approx(truth, rel=0.4)

    def test_unknown_estimator_raises(self):
        algo = PStableFpEstimator(p=0.5, num_rows=20, seed=4)
        with pytest.raises(ValueError):
            algo.lp_norm_estimate(estimator="mean")

    def test_empty_stream_estimates_zero(self):
        algo = PStableFpEstimator(p=0.5, num_rows=20, seed=5)
        assert algo.fp_estimate() == 0.0


class TestStateChanges:
    def test_state_changes_grow_sublinearly_in_m(self):
        """Doubling m should much-less-than-double the state changes
        (each Morris counter adds only log-many writes)."""
        n = 200
        runs = {}
        for m in (4000, 16000):
            algo = PStableFpEstimator(p=0.5, num_rows=40, seed=6)
            algo.process_stream(uniform_stream(n, m, seed=6))
            runs[m] = algo.state_changes
        assert runs[16000] < 2.5 * runs[4000]

    def test_far_fewer_writes_than_exact_maintenance(self):
        """Total cell writes are far below num_rows * m (the cost of
        exactly maintaining every inner product)."""
        n, m = 200, 8000
        algo = PStableFpEstimator(p=0.5, num_rows=40, seed=7)
        algo.process_stream(uniform_stream(n, m, seed=7))
        assert algo.report().total_writes < 0.2 * (2 * 40 * m)


class TestCoordinates:
    def test_coordinates_length(self):
        algo = PStableFpEstimator(p=0.5, num_rows=17, seed=8)
        algo.process_stream([1, 2, 3])
        assert len(algo.coordinates()) == 17

    def test_variates_deterministic(self):
        algo = PStableFpEstimator(p=0.5, num_rows=9, seed=9)
        first = algo._variates(42).copy()
        algo._table.reset()
        second = algo._variates(42)
        assert first.tolist() == second.tolist()


#: The entropy estimator's node orders (paper-batch geometry) plus a
#: few orders of Theorem 3.2's range, Cauchy included.
ORDERS = tuple(EntropyEstimator(m=65_536, epsilon=0.5).nodes) + (0.5, 1.0, 1.5)


def reference_column(seed: int, item: int, rows: int, p: float) -> list:
    """Column ``D[:, item]`` from its own generator and one transform."""
    gen = np.random.default_rng(hash((seed, item)) & 0x7FFFFFFF)
    theta = gen.uniform(-math.pi / 2.0, math.pi / 2.0, rows)
    r = gen.uniform(0.0, 1.0, rows)
    return cms_transform(p, theta, r).tolist()


class TestVariateTable:
    def test_columns_match_per_item_draws(self):
        rows = 20
        table = VariateTable(7, rows, ORDERS)
        items = np.random.default_rng(1).choice(10**6, 1200, replace=False)
        slots = []
        # Uneven batches: storage grows by doubling in between.
        for batch in np.split(items, [1, 9, 300, 1000]):
            slots += table.slots(batch.tolist())
        assert len(table._slots) == len(items)
        for p in ORDERS:
            columns = table.columns(p)
            for item, slot in zip(items.tolist(), slots):
                assert columns[slot].tolist() == reference_column(
                    7, item, rows, p
                )

    def test_wide_draw_in_pieces_matches_per_item_draws(self):
        """At 400 rows one draw of 1,500 new items transforms them in
        pieces of ``_DRAW_CELLS`` cells; every column still equals its
        item's own draw."""
        rows = 400
        table = VariateTable(11, rows, ORDERS)
        items = np.random.default_rng(2).choice(10**6, 1500, replace=False)
        assert len(items) * rows > 2 * fp_pstable._DRAW_CELLS
        slots = table.slots(items.tolist())
        for p in ORDERS:
            columns = table.columns(p)
            for item, slot in zip(items.tolist(), slots):
                assert columns[slot].tolist() == reference_column(
                    11, item, rows, p
                )

    def test_known_items_keep_their_slots(self):
        table = VariateTable(3, 5, (0.5,))
        first = table.slots([10, 11, 12])
        assert table.slots([12, 10, 99]) == [first[2], first[0], 3]
        assert len(table._slots) == 4

    def test_starts_over_past_capacity_with_identical_columns(self):
        rows = 4
        table = VariateTable(5, rows, (0.5, 1.0))
        for low in range(0, VariateTable.CAPACITY, 1024):
            table.slots(list(range(low, low + 1024)))
        assert len(table._slots) == VariateTable.CAPACITY
        before = {p: table.columns(p)[:3].copy() for p in (0.5, 1.0)}
        slots = table.slots([10**6, 0, 1, 2])  # one new item: full
        assert sorted(table._slots) == [0, 1, 2, 10**6]
        for p in (0.5, 1.0):
            columns = table.columns(p)
            assert columns[slots[1:]].tolist() == before[p].tolist()
            assert columns[slots[0]].tolist() == reference_column(
                5, 10**6, rows, p
            )

    def test_chunk_past_capacity_draws_in_pieces(self, monkeypatch):
        """One chunk with more distinct items than the table holds
        settles the same levels as the same items over several chunks,
        and the table never holds more than ``CAPACITY`` items."""
        capacity = VariateTable.CAPACITY
        items = np.random.default_rng(4).permutation(capacity + 1500)
        chunk = np.concatenate((items, items[:700]))  # repeats too
        held = []
        draw = VariateTable._draw

        def recording_draw(table, new):
            draw(table, new)
            held.append(len(table._slots))

        monkeypatch.setattr(VariateTable, "_draw", recording_draw)
        whole = PStableFpEstimator(p=0.5, num_rows=8, seed=6)
        whole.process_chunk(chunk)
        assert len(held) >= 2  # the one chunk drew in pieces
        split = PStableFpEstimator(p=0.5, num_rows=8, seed=6)
        for low in range(0, len(chunk), 1000):
            split.process_chunk(chunk[low:low + 1000])
        assert max(held) <= capacity
        assert whole._pos_levels.tolist() == split._pos_levels.tolist()
        assert whole._neg_levels.tolist() == split._neg_levels.tolist()
        assert whole.report().state_changes == split.report().state_changes


def _lane_weight(a: float, level: int, kind: str, value: float) -> float:
    """A weight of the given kind at ``level``'s gap: zero, a multiple
    of the gap (``value`` is the factor), a step off the first level's
    cost as the step computes it -- which can round an ulp below the
    gap -- (``value`` is the number of ulps), or a Cauchy-tailed
    magnitude independent of the gap (``value`` is its uniform)."""
    if kind == "zero":
        return 0.0
    gap = float(np.power(1.0 + a, np.array([float(level)]))[0])
    if kind == "gap":
        return gap * value
    if kind == "first":
        la = np.array([math.log1p(a)])
        cost = float(gap * np.expm1(la)[0] / a)
        return cost + value * math.ulp(cost)
    return abs(math.tan(math.pi * (value - 0.5)))


#: Uniforms at and next to the ends of [0, 1), plus any in between.
_UNIFORMS = st.one_of(
    st.sampled_from([0.0, 2.0**-53, 1e-300, 0.5, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0, exclude_max=True),
)

#: Levels up to 1,000 keep every gap (and a million times it) finite
#: at a = 0.5.
_LANES = st.lists(
    st.tuples(
        st.integers(0, 1000),
        st.one_of(
            st.tuples(st.just("zero"), st.just(0.0)),
            # Around the first level's cost, and far past it.
            st.tuples(
                st.just("gap"),
                st.one_of(
                    st.sampled_from(
                        [1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1e-300]
                    ),
                    st.floats(0.0, 2.0),
                    st.floats(2.0, 1e6),
                ),
            ),
            st.tuples(st.just("first"), st.sampled_from([-2.0, -1.0, 0.0, 1.0])),
            st.tuples(st.just("cauchy"), st.floats(0.0, 1.0)),
        ),
        _UNIFORMS,
    ),
    min_size=1,
    max_size=40,
)


class TestScreen:
    @given(
        a=st.sampled_from([0.001, 0.02, 0.125, 0.5]),
        lanes=_LANES,
        climb=st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_moving_cell_is_flagged(self, a, lanes, climb):
        """The chunk kernel's screen is conservative: every cell that
        :func:`weighted_morris_step` moves -- at the block-start level,
        or at any level the counter climbs to later in the block -- has
        its uniform at most its threshold against the block-start gap."""
        levels = np.array([level for level, _, _ in lanes], dtype=np.int64)
        weights = np.array(
            [_lane_weight(a, level, *weight) for level, weight, _ in lanes]
        )
        uniforms = np.array([u for _, _, u in lanes])
        gaps = np.power(1.0 + a, levels.astype(np.float64))
        flagged = uniforms <= screen_thresholds(weights, gaps)
        for later in (levels, levels + climb):
            moved = weighted_morris_step(a, later, weights, uniforms) != later
            assert not (moved & ~flagged).any()

    @pytest.mark.parametrize("a", [0.001, 0.02, 0.125, 0.3, 0.5])
    def test_first_level_cost_is_flagged_at_every_level(self, a):
        """Weights within two ulps of the first level's cost, which the
        step can round an ulp below the gap, at every level up to 1,000
        and the largest uniform: each one that climbs is flagged."""
        levels = np.repeat(np.arange(1001), 5)
        gaps = np.power(1.0 + a, levels.astype(np.float64))
        cost = gaps * np.expm1(np.full(len(levels), math.log1p(a))) / a
        weights = cost + np.tile(np.arange(-2.0, 3.0), 1001) * np.spacing(cost)
        uniforms = np.full(len(levels), 1.0 - 2.0**-53)
        moved = weighted_morris_step(a, levels, weights, uniforms) != levels
        assert moved.any()
        flagged = uniforms <= screen_thresholds(weights, gaps)
        assert not (moved & ~flagged).any()


def _merge_row_by_row(sketch, other):
    """The merge's climbs one row at a time: one scalar weighted climb
    per row ``other`` counted, each on the next merge coin, the
    positive half's rows before the negative's."""
    a = sketch.morris_a
    for levels, other_levels in (
        (sketch._pos_levels, other._pos_levels),
        (sketch._neg_levels, other._neg_levels),
    ):
        for i in range(sketch.num_rows):
            weight = (math.pow(1.0 + a, int(other_levels[i])) - 1.0) / a
            if weight > 0:
                u = sketch._merge_coins.uniform(sketch._merge_draws)
                sketch._merge_draws += 1
                levels[i] = int(
                    weighted_morris_step(a, [int(levels[i])], [weight], [u])[0]
                )


class TestMergeClimbs:
    @pytest.mark.parametrize("case", range(12))
    def test_one_step_per_sign_equals_row_by_row_climbs(self, case):
        """Merging climbs every counted row of a half in one lane step
        over one block of merge coins: the levels and ``merge_draws``
        equal one scalar climb per row, across two successive merges
        (the second starting past the first's coins)."""
        rng = np.random.default_rng(case)
        config = {
            "p": float(rng.choice([0.25, 0.5, 1.0])),
            "num_rows": int(rng.integers(5, 60)),
            "morris_a": float(rng.choice([0.008, 0.02, 0.3])),
            "seed": case,
        }

        def fed(seed, m):
            sketch = PStableFpEstimator(**config)
            sketch.process_stream(zipf_stream(200, m, skew=1.2, seed=seed))
            return sketch

        merged, reference = fed(100 + case, 400), fed(100 + case, 400)
        for part in range(2):
            other = fed(200 + 2 * case + part, int(rng.integers(1, 800)))
            merged.merge(other)
            _merge_row_by_row(reference, other)
            assert merged._pos_levels.tolist() == reference._pos_levels.tolist()
            assert merged._neg_levels.tolist() == reference._neg_levels.tolist()
            assert merged._merge_draws == reference._merge_draws > 0


class TestSnapshotGeometry:
    """A payload whose level vectors do not fit ``num_rows``, or hold a
    negative level, fails at restore with the field's name."""

    @staticmethod
    def _state():
        sketch = PStableFpEstimator(p=1.0, epsilon=0.3, seed=9)
        sketch.process_many(zipf_stream(64, 300, skew=1.1, seed=2).materialize())
        return sketch.to_state()

    def test_short_level_vector_raises(self):
        state = self._state()
        assert len(state["payload"]["positive"]) == 45
        state["payload"]["positive"] = state["payload"]["positive"][:3]
        with pytest.raises(ValueError, match="'positive'"):
            PStableFpEstimator.from_state(state)

    def test_negative_level_raises(self):
        state = self._state()
        state["payload"]["negative"][7] = -2
        with pytest.raises(ValueError, match="'negative'.*negative"):
            PStableFpEstimator.from_state(state)

    @pytest.mark.parametrize("field", ["updates", "merge_draws"])
    def test_negative_coin_index_raises(self, field):
        """A negative coin index would fail only at the next update or
        merge."""
        state = self._state()
        state["payload"][field] = -3
        with pytest.raises(ValueError, match=f"{field!r}.*negative"):
            PStableFpEstimator.from_state(state)
