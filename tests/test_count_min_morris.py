"""Tests for the Morris-celled CountMin hybrid."""

import json

import numpy as np
import pytest

from repro.baselines.count_min_morris import CountMinMorris
from repro.state.tracker import make_tracker
from repro.streams import FrequencyVector, uniform_stream, zipf_stream


class TestAccuracy:
    def test_heavy_item_estimated_within_noise(self):
        n, m = 500, 20000
        stream = zipf_stream(n, m, skew=1.5, seed=0)
        f = FrequencyVector.from_stream(stream)
        algo = CountMinMorris(width=256, depth=3, a=0.03, seed=0)
        algo.process_stream(stream)
        top = max(f.support, key=lambda i: f[i])
        assert algo.estimate(top) == pytest.approx(f[top], rel=0.4)

    def test_overestimates_in_expectation(self):
        """Cells aggregate colliding items, so estimates sit at or
        above the true count up to Morris noise."""
        n, m = 2000, 10000
        stream = uniform_stream(n, m, seed=1)
        f = FrequencyVector.from_stream(stream)
        algo = CountMinMorris(width=64, depth=3, a=0.03, seed=1)
        algo.process_stream(stream)
        sampled = list(f.support)[:100]
        below = sum(algo.estimate(i) < 0.5 * f[i] for i in sampled)
        assert below <= 10

    def test_for_accuracy_sizing(self):
        algo = CountMinMorris.for_accuracy(epsilon=0.1, delta=0.05)
        assert algo.width >= 27
        assert algo.depth >= 3

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            CountMinMorris(width=0, depth=2)


class TestStateChanges:
    def test_sublinear_on_skewed_streams(self):
        """Hot cells stop changing as their Morris level climbs."""
        n, m = 64, 50000
        stream = zipf_stream(n, m, skew=2.0, seed=2)
        algo = CountMinMorris(width=32, depth=2, a=0.25, seed=2)
        algo.process_stream(stream)
        assert algo.state_changes < 0.25 * m

    def test_still_linear_on_uniform_streams(self):
        """With many cold cells, most updates still mutate something —
        the separation from sample-and-hold the A4 ablation shows."""
        n, m = 50_000, 20_000
        stream = uniform_stream(n, m, seed=3)
        algo = CountMinMorris(width=4096, depth=2, a=0.25, seed=3)
        algo.process_stream(stream)
        assert algo.state_changes > 0.5 * m


def _snapshot(width=10, depth=3, m=400, seed=9):
    """A trace-backed sketch after ``m`` Zipf items, and its snapshot
    as JSON would carry it."""
    sketch = CountMinMorris(
        width=width, depth=depth, seed=seed, tracker=make_tracker("trace")
    )
    sketch.process_chunk(zipf_stream(64, m, skew=1.1, seed=seed).materialize())
    return sketch, json.loads(json.dumps(sketch.to_state()))


class TestCellsOnTheTable:
    def test_since_past_threshold_restores_and_resumes(self):
        """A cell whose ``since`` is far past its threshold climbs on
        its next arrival, in the chunk kernel as in the scalar loop."""
        _, state = _snapshot()
        state["payload"]["since"][0][0] = 10**6
        stream = zipf_stream(64, 3000, skew=1.1, seed=4).materialize()
        chunked = CountMinMorris.from_state(state)
        scalar = CountMinMorris.from_state(state)
        chunked.process_chunk(np.asarray(stream))
        scalar.process_many(stream)
        assert chunked.to_state() == scalar.to_state()
        assert chunked.report() == scalar.report()

    def test_cell_ids_survive_a_restore_onto_a_numbered_tracker(self):
        """Cells are numbered by position, not by the tracker: restored
        onto a tracker that already numbered other cells, they still
        write as ``cmm[r][c]``."""
        original, state = _snapshot(width=8, depth=2)
        tracker = make_tracker("trace")
        for _ in range(5):
            tracker.fresh_cell_number()
        restored = CountMinMorris.from_state(state, tracker=tracker)
        more = zipf_stream(64, 2000, skew=1.1, seed=6).materialize()
        restored.process_chunk(np.asarray(more))
        original.process_chunk(np.asarray(more))
        written = tracker.report().cell_writes
        assert written and set(written) <= {
            f"cmm[{r}][{c}]" for r in range(2) for c in range(8)
        }
        assert restored.to_state()["payload"] == original.to_state()["payload"]
        assert tracker.fresh_cell_number() == 5


class TestSnapshotGeometry:
    """A payload that does not fit the configured geometry, or holds a
    negative level or ``since``, fails at restore with the field's
    name."""

    def test_missing_row_raises(self):
        _, state = _snapshot()
        state["payload"]["levels"] = state["payload"]["levels"][:2]
        with pytest.raises(ValueError, match="'levels'"):
            CountMinMorris.from_state(state)

    def test_short_row_raises(self):
        _, state = _snapshot()
        state["payload"]["since"][1] = state["payload"]["since"][1][:-1]
        with pytest.raises(ValueError, match="'since'"):
            CountMinMorris.from_state(state)

    @pytest.mark.parametrize("field", ["levels", "since"])
    def test_negative_entry_raises(self, field):
        _, state = _snapshot()
        state["payload"][field][2][3] = -1
        with pytest.raises(ValueError, match=f"{field!r}.*negative"):
            CountMinMorris.from_state(state)

    def test_negative_merge_draws_raise(self):
        """A negative merge-coin index would fail only at the next
        merge."""
        _, state = _snapshot()
        state["payload"]["merge_draws"] = -5
        with pytest.raises(ValueError, match="'merge_draws'.*negative"):
            CountMinMorris.from_state(state)
