"""Tests for the p-stable Morris-counter Fp estimator (Theorem 3.2)."""

import math

import numpy as np
import pytest

from repro.core.counters import weighted_morris_step
from repro.core.entropy import EntropyEstimator
from repro.core.fp_pstable import PStableFpEstimator, VariateTable
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
