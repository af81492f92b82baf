"""Tests for the KMV distinct-elements estimator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distinct import KMVDistinctElements
from repro.streams import uniform_stream, zipf_stream


class TestExactRegime:
    def test_small_support_exact(self):
        algo = KMVDistinctElements(k=64, seed=0)
        algo.process_stream([1, 2, 3, 2, 1, 4] * 10)
        assert algo.f0_estimate() == 4.0

    def test_empty_stream(self):
        algo = KMVDistinctElements(k=8, seed=0)
        assert algo.f0_estimate() == 0.0

    @given(st.sets(st.integers(0, 10_000), max_size=30))
    @settings(max_examples=60)
    def test_exact_below_k(self, items):
        algo = KMVDistinctElements(k=32, seed=7)
        algo.process_stream(list(items) * 2)
        assert algo.f0_estimate() == len(items)


class TestEstimation:
    def test_large_support_accuracy(self):
        n, m = 20_000, 60_000
        algo = KMVDistinctElements(k=256, seed=1)
        stream = uniform_stream(n, m, seed=1)
        algo.process_stream(stream)
        true_f0 = len(set(stream))
        assert algo.f0_estimate() == pytest.approx(true_f0, rel=0.2)

    def test_for_accuracy_sizing(self):
        algo = KMVDistinctElements.for_accuracy(0.1, seed=2)
        assert algo.k == 100
        with pytest.raises(ValueError):
            KMVDistinctElements.for_accuracy(0)

    def test_skewed_stream(self):
        stream = zipf_stream(5000, 40_000, skew=1.2, seed=3)
        algo = KMVDistinctElements(k=256, seed=3)
        algo.process_stream(stream)
        assert algo.f0_estimate() == pytest.approx(len(set(stream)), rel=0.25)


class TestStateChanges:
    def test_duplicates_are_free(self):
        algo = KMVDistinctElements(k=16, seed=4)
        algo.process_stream([9] * 100_000)
        assert algo.state_changes == 1

    def test_sublinear_in_stream_length(self):
        """State changes ~ k log F0, independent of m."""
        n = 50_000
        counts = {}
        for m in (20_000, 80_000):
            algo = KMVDistinctElements(k=64, seed=5)
            algo.process_stream(uniform_stream(n, m, seed=5))
            counts[m] = algo.state_changes
        # Quadrupling m (F0 grows by < 2.7x) adds few record events.
        assert counts[80_000] < 1.6 * counts[20_000]

    def test_record_events_match_theory(self):
        """Expected records ~ k * (1 + ln(F0/k)) for a one-pass scan."""
        f0, k = 30_000, 64
        algo = KMVDistinctElements(k=k, seed=6)
        algo.process_stream(list(range(f0)))
        expected = k * (1 + math.log(f0 / k))
        assert algo.state_changes < 3 * expected

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            KMVDistinctElements(k=1)


class TestInvariants:
    def test_minima_stay_sorted(self):
        algo = KMVDistinctElements(k=32, seed=8)
        stream = uniform_stream(10_000, 5_000, seed=8)
        for item in stream:
            algo.process(item)
        values = list(algo._minima)
        assert values == sorted(values)

    def test_deterministic_given_seed(self):
        stream = uniform_stream(5000, 10_000, seed=9)
        a = KMVDistinctElements(k=64, seed=10)
        b = KMVDistinctElements(k=64, seed=10)
        a.process_stream(stream)
        b.process_stream(stream)
        assert a.f0_estimate() == b.f0_estimate()
        assert a.state_changes == b.state_changes

class TestSnapshotMinima:
    """Minima restore only as the sketch writes them: at most ``k``
    floats in [0, 1), strictly increasing."""

    @staticmethod
    def _state():
        sketch = KMVDistinctElements.for_accuracy(0.125, seed=1)
        sketch.process_many(range(40))
        return sketch.to_state()

    def test_fitting_minima_restore(self):
        state = self._state()
        restored = KMVDistinctElements.from_state(state)
        assert restored.to_state() == state
        assert restored.f0_estimate() == 40.0

    @pytest.mark.parametrize(
        "corrupt",
        [
            # Restored unchecked, this sketch answered 8.0 for 40 items.
            lambda minima: [0.5, 0.5, -3.0, 7.0] + minima[:5],
            lambda minima: minima[::-1],
            lambda minima: minima + [0.999] * 64,
            lambda minima: minima[:-1] + [float("nan")],
            lambda minima: [0] + minima[1:],
        ],
        ids=["duplicates-out-of-range", "decreasing", "more-than-k", "nan", "int"],
    )
    def test_corrupt_minima_raise(self, corrupt):
        state = self._state()
        state["payload"]["minima"] = corrupt(state["payload"]["minima"])
        with pytest.raises(ValueError, match="'minima'"):
            KMVDistinctElements.from_state(state)
