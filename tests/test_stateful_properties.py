"""Hypothesis stateful/model-based tests for the tracking substrate and
core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core import SampleAndHold, SampleAndHoldParams
from repro.core.counters import HeldTable
from repro.state import StateTracker, TrackedDict


class TrackedDictModel(RuleBasedStateMachine):
    """TrackedDict must behave exactly like a plain dict, while its
    space accounting matches the live entry count."""

    def __init__(self):
        super().__init__()
        self.tracker = StateTracker()
        self.tracked = TrackedDict(self.tracker, "model", entry_words=2)
        self.model = {}

    keys = st.integers(0, 20)
    values = st.integers(-5, 5)

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.tracked[key] = value
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        if key in self.model:
            del self.tracked[key]
            del self.model[key]

    @rule(key=keys)
    def pop_existing(self, key):
        if key in self.model:
            assert self.tracked.pop(key) == self.model.pop(key)

    @rule()
    def clear(self):
        self.tracked.clear()
        self.model.clear()

    @invariant()
    def contents_match(self):
        assert dict(self.tracked.items()) == self.model
        assert len(self.tracked) == len(self.model)

    @invariant()
    def space_matches_entries(self):
        assert self.tracker.current_words == 2 * len(self.model)

    @invariant()
    def peak_dominates_current(self):
        assert self.tracker.peak_words >= self.tracker.current_words


TestTrackedDictModel = TrackedDictModel.TestCase


class SampleAndHoldMachine(RuleBasedStateMachine):
    """SampleAndHold structural invariants under arbitrary updates."""

    def __init__(self):
        super().__init__()
        params = SampleAndHoldParams(
            sample_probability=0.3,
            kappa=4,
            budget_low=12,
            budget_high=14,
            counter_a=0.25,
        )
        self.algo = SampleAndHold(params, seed=0)
        self.exact = {}

    @rule(item=st.integers(0, 40))
    def feed(self, item):
        self.algo.process(item)
        self.exact[item] = self.exact.get(item, 0) + 1

    @rule(items=st.lists(st.integers(0, 40), min_size=1, max_size=30))
    def feed_burst(self, items):
        for item in items:
            self.feed.__wrapped__(self, item)  # reuse logic without rule

    @invariant()
    def held_within_budget(self):
        assert self.algo.num_held <= self.algo.params.budget_high

    @invariant()
    def estimates_never_exceed_truth_by_much(self):
        # Morris noise can overshoot individual counts, but never by a
        # huge factor at these scales.
        for item, estimate in self.algo.estimates().items():
            assert estimate <= 6 * self.exact.get(item, 0) + 8

    @invariant()
    def audit_is_consistent(self):
        report = self.algo.report()
        assert report.state_changes <= report.stream_length
        assert report.state_changes <= report.total_writes


TestSampleAndHoldMachine = SampleAndHoldMachine.TestCase
TestSampleAndHoldMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class TestStatisticalProperties:
    @given(st.integers(10, 400))
    @settings(max_examples=20, deadline=None)
    def test_morris_mean_over_copies_near_truth(self, n):
        """Average over independent Morris table rows concentrates."""
        copies = 150
        table = HeldTable(StateTracker(), a=0.25)
        rows = np.array([table.open((n, copy), 0) for copy in range(copies)])
        table.absorb(rows, np.full(copies, n))
        mean = table.estimates(rows).mean()
        assert abs(mean - n) < 0.35 * n + 6
