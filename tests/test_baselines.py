"""Tests for the classical baselines (Table 1 competitors)."""

import random

import pytest

from repro.baselines import (
    AMSSketch,
    CountMin,
    CountSketch,
    ExactFrequencyCounter,
    MisraGries,
    ReservoirSampler,
    SpaceSaving,
)
from repro.streams import FrequencyVector, uniform_stream, zipf_stream


class TestExactCounter:
    def test_exact_frequencies(self):
        algo = ExactFrequencyCounter()
        algo.process_stream([1, 2, 2, 3, 3, 3])
        assert algo.estimate(3) == 3
        assert algo.estimate(99) == 0
        assert algo.estimates() == {1: 1.0, 2: 2.0, 3: 3.0}

    def test_state_changes_equal_stream_length(self):
        algo = ExactFrequencyCounter()
        algo.process_stream([5] * 100)
        assert algo.state_changes == 100


class TestMisraGries:
    def test_underestimates_within_bound(self):
        stream = zipf_stream(200, 5000, skew=1.3, seed=0)
        f = FrequencyVector.from_stream(stream)
        algo = MisraGries(k=20)
        algo.process_stream(stream)
        for item, count in f.items():
            est = algo.estimate(item)
            assert est <= count
            assert est >= count - algo.additive_error_bound()

    def test_tracks_dominant_item(self):
        stream = [7] * 900 + list(range(100))
        random.Random(1).shuffle(stream)
        algo = MisraGries(k=10)
        algo.process_stream(stream)
        assert algo.estimate(7) >= 900 - len(stream) / 10

    def test_at_most_k_minus_one_counters(self):
        algo = MisraGries(k=5)
        algo.process_stream(uniform_stream(100, 2000, seed=2))
        assert len(algo.estimates()) <= 4

    def test_theta_m_state_changes(self):
        stream = zipf_stream(50, 2000, seed=3)
        algo = MisraGries(k=10)
        algo.process_stream(stream)
        assert algo.state_changes > 0.5 * len(stream)

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            MisraGries(k=1)


class TestSpaceSaving:
    def test_overestimates_within_bound(self):
        stream = zipf_stream(200, 5000, skew=1.3, seed=4)
        f = FrequencyVector.from_stream(stream)
        algo = SpaceSaving(k=30)
        algo.process_stream(stream)
        for item in algo.estimates():
            assert algo.estimate(item) >= f[item] - 1e-9
            assert algo.estimate(item) <= f[item] + algo.additive_error_bound()

    def test_exactly_k_counters_when_saturated(self):
        algo = SpaceSaving(k=8)
        algo.process_stream(uniform_stream(1000, 3000, seed=5))
        assert len(algo.estimates()) == 8

    def test_every_update_writes(self):
        algo = SpaceSaving(k=4)
        stream = uniform_stream(100, 500, seed=6)
        algo.process_stream(stream)
        assert algo.state_changes == len(stream)

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            SpaceSaving(k=0)


class TestCountMin:
    def test_overestimates(self):
        stream = zipf_stream(500, 3000, seed=7)
        f = FrequencyVector.from_stream(stream)
        algo = CountMin(width=200, depth=4, seed=7)
        algo.process_stream(stream)
        for item in f.support:
            assert algo.estimate(item) >= f[item]

    def test_error_bound_mostly_holds(self):
        stream = zipf_stream(500, 3000, seed=8)
        f = FrequencyVector.from_stream(stream)
        algo = CountMin.for_accuracy(epsilon=0.01, delta=0.01, seed=8)
        algo.process_stream(stream)
        errors = [algo.estimate(i) - f[i] for i in f.support]
        violating = sum(e > 0.01 * len(stream) for e in errors)
        assert violating <= 0.05 * len(f.support)

    def test_one_state_change_per_update(self):
        algo = CountMin(width=64, depth=3, seed=9)
        stream = uniform_stream(100, 400, seed=9)
        algo.process_stream(stream)
        assert algo.state_changes == len(stream)

    def test_estimates_takes_candidate_set(self):
        algo = CountMin(width=64, depth=3, seed=10)
        algo.process_stream([1, 1, 2])
        result = algo.estimates({1, 2, 3})
        assert result[1] >= 2 and result[2] >= 1

    def test_estimates_for_is_gone(self):
        # Removed after a four-PR deprecation cycle; the replacement is
        # estimates(items).
        assert not hasattr(CountMin(width=64, depth=3), "estimates_for")

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            CountMin(width=0, depth=1)

    def test_for_accuracy_dims(self):
        algo = CountMin.for_accuracy(epsilon=0.1, delta=0.05)
        assert algo.width >= 27
        assert algo.depth >= 3


class TestCountSketch:
    def test_unbiased_point_queries(self):
        stream = zipf_stream(300, 4000, skew=1.5, seed=11)
        f = FrequencyVector.from_stream(stream)
        algo = CountSketch(width=512, depth=5, seed=11)
        algo.process_stream(stream)
        l2 = f.lp_norm(2)
        for item in list(f.support)[:50]:
            assert abs(algo.estimate(item) - f[item]) <= l2 / 2

    def test_f2_estimate(self):
        stream = zipf_stream(300, 4000, seed=12)
        f2 = FrequencyVector.from_stream(stream).fp_moment(2)
        algo = CountSketch(width=1024, depth=7, seed=12)
        algo.process_stream(stream)
        assert algo.f2_estimate() == pytest.approx(f2, rel=0.3)

    def test_theta_m_state_changes(self):
        algo = CountSketch(width=64, depth=3, seed=13)
        stream = uniform_stream(100, 400, seed=13)
        algo.process_stream(stream)
        assert algo.state_changes >= 0.95 * len(stream)

    def test_for_accuracy_odd_depth(self):
        algo = CountSketch.for_accuracy(epsilon=0.5, delta=0.1)
        assert algo.depth % 2 == 1

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            CountSketch(width=4, depth=0)


@pytest.mark.parametrize("family", [CountMin, CountSketch])
class TestRowsSnapshotGeometry:
    """A ``rows`` payload that is not ``depth x width`` integer cells
    fails at restore with the field's name; a snapshot cut to fewer
    rows would otherwise answer from rows left at zero."""

    @staticmethod
    def _state(family):
        sketch = family(width=16, depth=3, seed=4)
        sketch.process_many([1, 1, 2, 3, 5, 8, 13, 21])
        return sketch.to_state()

    def test_fitting_rows_restore(self, family):
        state = self._state(family)
        if family is CountSketch:  # signed cells: no sign rule here
            assert min(min(row) for row in state["payload"]["rows"]) < 0
        assert family.from_state(state).to_state() == state

    def test_fewer_rows_raise(self, family):
        state = self._state(family)
        state["payload"]["rows"] = state["payload"]["rows"][:1]
        with pytest.raises(ValueError, match="'rows'"):
            family.from_state(state)

    def test_short_row_raises(self, family):
        state = self._state(family)
        state["payload"]["rows"][2] = state["payload"]["rows"][2][:-1]
        with pytest.raises(ValueError, match="'rows'"):
            family.from_state(state)

    def test_non_integer_entry_raises(self, family):
        state = self._state(family)
        state["payload"]["rows"][1][0] = 1.5
        with pytest.raises(ValueError, match="'rows'"):
            family.from_state(state)


#: The dict summaries and their payload fields.
DICT_FIELDS = {ExactFrequencyCounter: "counts", MisraGries: "counters", SpaceSaving: "counters"}


@pytest.mark.parametrize("family", list(DICT_FIELDS))
class TestDictSnapshotGeometry:
    """A dict summary's ``[item, count]`` pairs restore only as the
    summary could hold them: integer pairs, distinct items, counts of
    at least 1, and no more counters than ``k - 1`` (Misra-Gries) or
    ``k`` (SpaceSaving); anything else fails at restore, naming the
    field."""

    @staticmethod
    def _state(family):
        sketch = family() if family is ExactFrequencyCounter else family(k=4)
        sketch.process_many([1, 1, 2, 3, 5, 8, 13, 21, 1, 2])
        return sketch.to_state()

    def test_fitting_pairs_restore(self, family):
        state = self._state(family)
        assert family.from_state(state).to_state() == state

    @pytest.mark.parametrize("count", [-7, 0])
    def test_count_below_one_raises(self, family, count):
        state = self._state(family)
        state["payload"][DICT_FIELDS[family]][0][1] = count
        with pytest.raises(ValueError, match=repr(DICT_FIELDS[family])):
            family.from_state(state)

    @pytest.mark.parametrize(
        "pair", [[1], [1, 2, 3], [1, 2.5], [1.5, 2], ["1", 2]], ids=repr
    )
    def test_malformed_pair_raises(self, family, pair):
        state = self._state(family)
        state["payload"][DICT_FIELDS[family]][0] = pair
        with pytest.raises(ValueError, match=repr(DICT_FIELDS[family])):
            family.from_state(state)

    def test_repeated_item_raises(self, family):
        state = self._state(family)
        pairs = state["payload"][DICT_FIELDS[family]]
        pairs[1][0] = pairs[0][0]
        with pytest.raises(ValueError, match=repr(DICT_FIELDS[family])):
            family.from_state(state)


class TestDictSnapshotCapacity:
    def test_space_saving_holds_at_most_k(self):
        # k = 4 plus three more pairs, one of them negative: restored
        # unchecked, this summary held 7 counters and answered -7.0.
        sketch = SpaceSaving(k=4)
        sketch.process_many([1, 1, 2, 3, 5, 8, 13, 21, 1, 2])
        state = sketch.to_state()
        state["payload"]["counters"] += [[40, 2], [41, -7], [42, 1]]
        with pytest.raises(ValueError, match="'counters'"):
            SpaceSaving.from_state(state)

    def test_misra_gries_holds_at_most_k_minus_one(self):
        sketch = MisraGries(k=4)
        state = sketch.to_state()
        state["payload"]["counters"] = [[item, 1] for item in range(4)]
        with pytest.raises(ValueError, match="'counters'"):
            MisraGries.from_state(state)
        state["payload"]["counters"] = [[item, 1] for item in range(3)]
        assert MisraGries.from_state(state).to_state() == state


class TestAMSSnapshotGeometry:
    """AMS ``sums`` restore as ``num_groups * group_size`` integers."""

    @staticmethod
    def _state():
        sketch = AMSSketch(num_groups=2, group_size=3, seed=4)
        sketch.process_many([1, 1, 2, 3, 5, 8])
        return sketch.to_state()

    def test_fitting_sums_restore(self):
        state = self._state()
        assert AMSSketch.from_state(state).to_state() == state

    def test_non_integer_sum_raises(self):
        # Restored unchecked, a sum of 2.7 became 2.
        state = self._state()
        state["payload"]["sums"][0] = 2.7
        with pytest.raises(ValueError, match="'sums'"):
            AMSSketch.from_state(state)

    def test_short_sums_raise(self):
        state = self._state()
        state["payload"]["sums"] = state["payload"]["sums"][:-1]
        with pytest.raises(ValueError, match="'sums'"):
            AMSSketch.from_state(state)

    def test_long_sums_raise(self):
        state = self._state()
        state["payload"]["sums"] += [0]
        with pytest.raises(ValueError, match="'sums'"):
            AMSSketch.from_state(state)


class TestAMS:
    def test_f2_accuracy(self):
        stream = zipf_stream(200, 3000, seed=14)
        f2 = FrequencyVector.from_stream(stream).fp_moment(2)
        algo = AMSSketch.for_accuracy(epsilon=0.2, delta=0.05, seed=14)
        algo.process_stream(stream)
        assert algo.f2_estimate() == pytest.approx(f2, rel=0.35)

    def test_every_update_writes(self):
        algo = AMSSketch(num_groups=2, group_size=4, seed=15)
        stream = uniform_stream(50, 300, seed=15)
        algo.process_stream(stream)
        assert algo.state_changes == len(stream)

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            AMSSketch(num_groups=0, group_size=4)


class TestReservoir:
    def test_sample_size(self):
        algo = ReservoirSampler(k=32, seed=16)
        algo.process_stream(uniform_stream(1000, 5000, seed=16))
        assert len(algo.sample) == 32

    def test_partial_fill(self):
        algo = ReservoirSampler(k=100, seed=17)
        algo.process_stream([1, 2, 3])
        assert sorted(algo.sample) == [1, 2, 3]

    def test_uniformity(self):
        hits = 0
        trials = 400
        for t in range(trials):
            algo = ReservoirSampler(k=1, seed=t)
            algo.process_stream(list(range(10)))
            hits += algo.sample[0] == 0
        # P[keep first item] = 1/10.
        assert 0.04 * trials / 10 < hits < 3 * trials / 10 + 10

    def test_slot_changes_sublinear(self):
        """Slot replacements are O(k log m) even though the seen-counter
        makes total state changes Theta(m)."""
        algo = ReservoirSampler(k=8, seed=18)
        m = 20000
        algo.process_stream(uniform_stream(1000, m, seed=18))
        report = algo.report()
        slot_writes = sum(
            count
            for cell, count in report.cell_writes.items()
            if cell.startswith("reservoir[")
        )
        assert slot_writes < 8 * 20  # ~ k * ln(m) = 8 * 9.9

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            ReservoirSampler(k=0)
