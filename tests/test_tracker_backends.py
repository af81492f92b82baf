"""Backend architecture tests: aggregate/trace/budget equivalence,
budget policy enforcement, and snapshot round trips.

The compatibility contract under test: all three tracker backends
report identical :class:`StateChangeReport` aggregate fields and
bit-identical query answers on identical seeded runs (an unlimited
budget denies nothing), including across the process-executor
serialization round trip.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.query import (
    AllEstimates,
    Distinct,
    Entropy,
    HeavyHitters,
    Moment,
    PointQuery,
    QueryKind,
)
from repro.runtime.sharded import ShardedRunner
from repro.state import (
    AggregateBackend,
    BudgetBackend,
    Sketch,
    StateTracker,
    TraceBackend,
    TrackedDict,
    TrackedValue,
    WriteBudget,
    WriteBudgetExceededError,
    make_tracker,
    tracker_from_state,
)
from repro.state.tracker import resolve_tracking

#: Aggregate audit fields every backend must agree on exactly.
AUDIT_FIELDS = (
    "stream_length",
    "state_changes",
    "total_writes",
    "total_write_attempts",
    "peak_words",
    "current_words",
)

#: One parameter-free query per kind (points get item 1).
QUERY_FOR_KIND = {
    QueryKind.POINT: lambda: PointQuery(1),
    QueryKind.ALL_ESTIMATES: AllEstimates,
    QueryKind.HEAVY_HITTERS: HeavyHitters,
    QueryKind.MOMENT: Moment,
    QueryKind.DISTINCT: Distinct,
    QueryKind.ENTROPY: Entropy,
}


def aggregate_fields(sketch: Sketch) -> tuple:
    report = sketch.report()
    return tuple(getattr(report, field) for field in AUDIT_FIELDS)


def all_answers(sketch: Sketch) -> list:
    return [
        sketch.query(QUERY_FOR_KIND[kind]())
        for kind in sorted(sketch.supports, key=str)
    ]


class WriteScript(Sketch):
    """Minimal sketch: one tracked word plus a small tracked table.

    ``_update(item)`` writes ``item`` to the word and bumps the
    table entry ``item % 4``, so every distinct consecutive item is a
    state change and the budget policies have something to deny.
    """

    def __init__(self, tracker=None):
        super().__init__(tracker)
        self._word = TrackedValue(self.tracker, "word", 0)
        self._table = TrackedDict(self.tracker, "table")

    def _update(self, item: int) -> None:
        self._word.set(item)
        key = item % 4
        self._table[key] = self._table.get(key, 0) + 1


class TestBackendBasics:
    def test_aggregate_has_no_listener_machinery(self):
        tracker = AggregateBackend()
        assert not hasattr(tracker, "add_listener")
        assert tracker.needs_cell_ids is False

    def test_aggregate_report_has_no_cells(self):
        sketch = WriteScript(AggregateBackend())
        sketch.process_many([1, 2, 3])
        report = sketch.report()
        assert report.cell_writes == {}
        assert report.total_writes > 0

    def test_state_tracker_is_the_trace_backend(self):
        assert StateTracker is TraceBackend
        assert StateTracker().needs_cell_ids is True

    def test_trace_and_aggregate_same_scripted_counts(self):
        trace, agg = WriteScript(TraceBackend()), WriteScript(
            AggregateBackend()
        )
        for sketch in (trace, agg):
            sketch.process_many([5, 5, 7, 5, 7, 7])
        assert aggregate_fields(trace) == aggregate_fields(agg)
        assert trace.report().cell_writes != {}

    def test_make_tracker_modes(self):
        assert isinstance(make_tracker("aggregate"), AggregateBackend)
        assert isinstance(make_tracker("trace"), TraceBackend)
        assert isinstance(make_tracker("budget"), BudgetBackend)
        assert isinstance(
            make_tracker(budget=WriteBudget(5)), BudgetBackend
        )
        with pytest.raises(ValueError):
            make_tracker("nope")
        with pytest.raises(ValueError):
            make_tracker("trace", budget=WriteBudget(5))

    def test_resolve_tracking_is_the_one_rule(self):
        # The rule Engine.run, LiveEngine and make_tracker all apply.
        for mode in ("aggregate", "trace", "budget"):
            assert resolve_tracking(mode) == mode
        assert resolve_tracking("aggregate", WriteBudget(5)) == "budget"
        assert resolve_tracking("budget", 5) == "budget"
        with pytest.raises(ValueError, match="unknown tracking mode"):
            resolve_tracking("nope")
        with pytest.raises(ValueError, match="budget"):
            resolve_tracking("trace", WriteBudget(5))


class TestWriteBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            WriteBudget(5, policy="nope")
        with pytest.raises(ValueError):
            WriteBudget(-1)
        with pytest.raises(ValueError):
            WriteBudget(2.5)
        assert WriteBudget(math.inf).unlimited

    def test_even_split_sums_to_global_limit(self):
        parts = WriteBudget(10, "freeze").split(3)
        assert [int(p.limit) for p in parts] == [4, 3, 3]
        assert all(p.policy == "freeze" for p in parts)

    def test_replicate_split_keeps_full_limit(self):
        parts = WriteBudget(10).split(3, how="replicate")
        assert [int(p.limit) for p in parts] == [10, 10, 10]

    def test_unlimited_split(self):
        assert all(p.unlimited for p in WriteBudget(math.inf).split(4))


class TestBudgetPolicies:
    def test_raise_aborts_at_limit_plus_one(self):
        sketch = WriteScript(BudgetBackend(WriteBudget(3, "raise")))
        sketch.process_many([1, 2, 3])  # exactly the budget
        with pytest.raises(WriteBudgetExceededError):
            sketch.process(4)

    def test_freeze_stops_mutations_and_counts_denials(self):
        tracker = BudgetBackend(WriteBudget(3, "freeze"))
        sketch = WriteScript(tracker)
        sketch.process_many(range(10))
        report = sketch.report()
        assert report.state_changes == 3
        assert report.stream_length == 10  # the clock kept ticking
        assert sketch.items_processed == 10
        budget = tracker.budget_report()
        assert budget.exhausted and budget.denied == 7
        assert budget.remaining == 0
        # frozen state: the word still holds the last admitted value
        assert sketch._word.value == 2

    def test_degrade_admits_thinning_trickle(self):
        tracker = BudgetBackend(WriteBudget(3, "degrade"))
        sketch = WriteScript(tracker)
        sketch.process_many(range(20))
        report = sketch.report()
        # 3 budgeted + admissions after 1, 2, 4, ... denials
        assert 3 < report.state_changes < 10
        assert tracker.budget_report().denied > 0

    def test_unlimited_budget_denies_nothing(self):
        tracker = BudgetBackend()
        sketch = WriteScript(tracker)
        sketch.process_many(range(50))
        budget = tracker.budget_report()
        assert not budget.exhausted and budget.denied == 0
        assert budget.remaining == math.inf


class TestBackendSnapshots:
    def test_budget_remainder_survives_round_trip(self):
        tracker = BudgetBackend(WriteBudget(30, "freeze"))
        sketch = registry.create("exact", tracker=tracker)
        sketch.process_many(range(20))
        state = json.loads(json.dumps(sketch.to_state()))
        restored = type(sketch).from_state(state)
        assert isinstance(restored.tracker, BudgetBackend)
        assert restored.tracker.budget_report() == tracker.budget_report()
        # the restored run resumes enforcement where the original left off
        restored.process_many(range(100, 200))
        original = registry.create(
            "exact", tracker=BudgetBackend(WriteBudget(30, "freeze"))
        )
        original.process_many(list(range(20)) + list(range(100, 200)))
        assert aggregate_fields(restored) == aggregate_fields(original)
        assert (
            restored.tracker.budget_report()
            == original.tracker.budget_report()
        )

    def test_aggregate_round_trip_keeps_backend(self):
        sketch = registry.create(
            "count-min", tracker=make_tracker("aggregate")
        )
        sketch.process_many([1, 2, 3, 1])
        restored = type(sketch).from_state(sketch.to_state())
        assert isinstance(restored.tracker, AggregateBackend)
        assert aggregate_fields(restored) == aggregate_fields(sketch)

    def test_legacy_snapshot_defaults_to_trace(self):
        state = StateTracker().to_state()
        del state["backend"]  # pre-backend-architecture snapshot
        assert isinstance(tracker_from_state(state), TraceBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            tracker_from_state({"backend": "nope"})


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(registry.names()),
    stream=st.lists(st.integers(min_value=0, max_value=63), max_size=120),
    seed=st.integers(min_value=0, max_value=5),
)
def test_backend_equivalence_sweep(name, stream, seed):
    """Aggregate, trace, and unlimited-budget backends agree exactly —
    on every aggregate audit field and every query answer — for every
    registered family, including across the process-executor
    serialization round trip (the worker's ``from_state`` → chunk
    ingest → ``to_state`` path)."""
    sketches = {}
    for mode in ("aggregate", "trace", "budget"):
        sketch = registry.create(
            name, n=64, m=max(1, len(stream)), epsilon=0.5, seed=seed,
            tracker=make_tracker(mode),
        )
        sketch.process_many(stream)
        sketches[mode] = sketch

    audits = {mode: aggregate_fields(s) for mode, s in sketches.items()}
    assert audits["aggregate"] == audits["trace"] == audits["budget"]
    answers = {mode: all_answers(s) for mode, s in sketches.items()}
    assert answers["aggregate"] == answers["trace"] == answers["budget"]

    # Process-executor round trip: rebuild from an *empty* snapshot,
    # ingest the items as one chunk, snapshot again — the steps a pool
    # worker takes, without the pool.
    if registry.spec(name).cls._config_state is not Sketch._config_state:
        for mode in ("aggregate", "trace", "budget"):
            empty = registry.create(
                name, n=64, m=max(1, len(stream)), epsilon=0.5, seed=seed,
                tracker=make_tracker(mode),
            )
            shard = type(empty).from_state(empty.to_state())
            shard.process_chunk(np.asarray(stream, dtype=np.int64))
            worker = type(empty).from_state(shard.to_state())
            assert type(worker.tracker) is type(sketches[mode].tracker)
            assert aggregate_fields(worker) == audits[mode]
            assert all_answers(worker) == answers[mode]


@pytest.mark.parametrize("tracking", ["aggregate", "trace", "budget"])
@pytest.mark.parametrize("name", ["count-min", "misra-gries", "kmv"])
def test_process_executor_identity_per_backend(name, tracking):
    """Serial and process-pool sharded runs stay bit-identical under
    every tracking mode (the pool really forks here)."""
    from repro.streams import zipf_stream

    stream = zipf_stream(64, 2_000, skew=1.2, seed=5)

    def run(executor):
        runner = ShardedRunner.from_registry(
            name, 2, n=64, m=2_000, epsilon=0.3, seed=5,
            executor=executor, tracking=tracking,
        )
        return runner.run(stream)

    serial, process = run("serial"), run("process")
    assert json.dumps(serial.merged.to_state(), sort_keys=True) == (
        json.dumps(process.merged.to_state(), sort_keys=True)
    )
    assert serial.shard_reports == process.shard_reports
    assert serial.budget_reports == process.budget_reports


def test_sharded_budget_enforced_per_shard():
    """A global freeze budget split over shards caps each shard."""
    from repro.streams import zipf_stream

    stream = zipf_stream(64, 3_000, skew=1.1, seed=2)
    runner = ShardedRunner.from_registry(
        "count-min", 4, n=64, m=3_000, epsilon=0.3, seed=2,
        budget=WriteBudget(101, "freeze"),
    )
    result = runner.run(stream)
    budgets = [b for b in result.budget_reports if b is not None]
    assert len(budgets) == 4
    assert sum(int(b.limit) for b in budgets) == 101
    for budget in budgets:
        assert budget.state_changes <= budget.limit
    assert result.merged_report.state_changes <= 101


class TestReviewRegressions:
    def test_budget_error_pickles_round_trip(self):
        """A raise-policy abort inside a pool worker must unpickle in
        the parent, or the pool's result handler dies and the run
        hangs."""
        import pickle

        error = WriteBudgetExceededError(10, 25)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, WriteBudgetExceededError)
        assert clone.limit == 10 and clone.timestep == 25
        assert str(clone) == str(error)

    def test_budget_raise_propagates_from_real_pool(self):
        """Run an actual multiprocessing pool (two shards) and check
        the abort surfaces as the typed error."""
        runner = ShardedRunner.from_registry(
            "exact", 2, n=64, m=2_000, seed=2,
            executor="process",
            budget=WriteBudget(50, "raise"),
        )
        from repro.streams import zipf_stream

        with pytest.raises(WriteBudgetExceededError):
            runner.run(zipf_stream(64, 2_000, seed=2))

    def test_engine_rejects_trace_tracking_with_budget(self):
        from repro.api import Engine

        engine = Engine("count-min", n=64, m=256, epsilon=0.3, seed=1)
        with pytest.raises(ValueError, match="budget"):
            engine.run(
                [1, 2, 3], queries=(), tracking="trace",
                budget=WriteBudget(5, "freeze"),
            )

    def test_record_cells_false_survives_round_trip(self):
        tracker = make_tracker("trace", record_cells=False)
        tracker.record_write("hot", mutated=True)
        tracker.tick()
        restored = tracker_from_state(tracker.to_state())
        restored.load_state(tracker.to_state())
        restored.record_write("hot", mutated=True)
        assert restored.report().cell_writes == {}
        assert restored.report().state_changes == 1

    def test_merged_budget_value_matches_folded_limit(self):
        left = BudgetBackend(WriteBudget(10, "freeze"))
        right = BudgetBackend(WriteBudget(10, "freeze"))
        left.merge_child(right)
        assert left.budget == WriteBudget(20, "freeze")
        assert left.budget_report().limit == 20
