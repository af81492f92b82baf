"""Mergeable sketch protocol: merge equivalence, audits, serialization.

The acceptance property under test: for every mergeable sketch, merging
K hash-partitioned shards yields estimates within the sketch's error
bound of the single-instance run on the same stream, and the merged
``StateChangeReport`` equals the elementwise sum of the shard reports.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro import registry
from repro.baselines import CountMin, MisraGries
from repro.core import FullSampleAndHold, SampleAndHold
from repro.core.sample_and_hold import SampleAndHoldParams
from repro.state import (
    NotMergeableError,
    NotSerializableError,
    StateChangeReport,
    StateTracker,
)
from repro.state.algorithm import Sketch
from repro.streams import FrequencyVector, zipf_stream

N = 1024
#: Per-family (stream length, epsilon) sized so every family's sketch
#: stays small enough for fast property tests.
CASES = {
    "ams": (2048, 1.0),
    "count-min": (8192, 0.1),
    "count-min-morris": (4096, 0.3),
    "count-sketch": (4096, 0.5),
    "exact": (8192, 0.5),
    "kmv": (8192, 0.2),
    "misra-gries": (8192, 0.1),
    "space-saving": (8192, 0.1),
    "pstable-fp": (2048, 0.5),
}
MERGEABLE = sorted(registry.mergeable_names())
#: Families whose merge is lossless (linear sketches + KMV + exact).
EXACT_MERGE = ["ams", "count-min", "count-sketch", "exact", "kmv"]


def make(name, seed):
    m, epsilon = CASES[name]
    return registry.create(name, n=N, m=m, epsilon=epsilon, seed=seed)


def case_stream(name, seed):
    m, _ = CASES[name]
    return zipf_stream(N, m, skew=1.2, seed=seed)


def partitioned_shards(name, stream, num_shards, seed):
    """Hash-partition ``stream`` into identically-seeded shards."""
    shards = [make(name, seed) for _ in range(num_shards)]
    for shard_index in range(num_shards):
        shards[shard_index].process_many(
            item for item in stream if item % num_shards == shard_index
        )
    return shards


def merge_all(shards):
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    return merged


def sum_reports(reports) -> StateChangeReport:
    cells: Counter[str] = Counter()
    for report in reports:
        cells.update(report.cell_writes)
    return StateChangeReport(
        stream_length=sum(r.stream_length for r in reports),
        state_changes=sum(r.state_changes for r in reports),
        total_writes=sum(r.total_writes for r in reports),
        total_write_attempts=sum(r.total_write_attempts for r in reports),
        peak_words=sum(r.peak_words for r in reports),
        current_words=sum(r.current_words for r in reports),
        cell_writes=dict(cells),
    )


def query(sketch, item):
    """Point/aggregate query that works across the registry families."""
    if hasattr(sketch, "estimate"):
        return sketch.estimate(item)
    if hasattr(sketch, "f2_estimate"):
        return sketch.f2_estimate()
    if hasattr(sketch, "fp_estimate"):
        return sketch.fp_estimate()
    return sketch.f0_estimate()


class TestMergeEquivalence:
    @pytest.mark.parametrize("name", EXACT_MERGE)
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_lossless_families_match_single_instance(self, name, num_shards):
        stream = case_stream(name, seed=3)
        single = make(name, seed=5)
        single.process_many(stream)
        merged = merge_all(
            partitioned_shards(name, stream, num_shards, seed=5)
        )
        for item in range(64):
            assert query(merged, item) == query(single, item)

    @pytest.mark.parametrize("name", ["misra-gries", "space-saving"])
    def test_summary_families_within_additive_bound(self, name):
        stream = case_stream(name, seed=4)
        truth = FrequencyVector.from_stream(stream)
        merged = merge_all(partitioned_shards(name, stream, 4, seed=6))
        # The shards' additive bounds sum to the single-instance bound
        # m/k, since the shard stream lengths sum to m.
        bound = len(stream) / merged.k + 1e-9
        for item, frequency in sorted(
            truth.items(), key=lambda kv: -kv[1]
        )[:10]:
            assert abs(merged.estimate(item) - frequency) <= bound

    @pytest.mark.parametrize("name", ["count-min-morris", "pstable-fp"])
    def test_morris_backed_families_stay_close(self, name):
        stream = case_stream(name, seed=8)
        single = make(name, seed=9)
        single.process_many(stream)
        merged = merge_all(partitioned_shards(name, stream, 4, seed=9))
        if name == "pstable-fp":
            single_value = single.fp_estimate()
            merged_value = merged.fp_estimate()
        else:
            top = max(
                FrequencyVector.from_stream(stream).items(),
                key=lambda kv: kv[1],
            )[0]
            single_value = single.estimate(top)
            merged_value = merged.estimate(top)
        assert merged_value == pytest.approx(single_value, rel=0.5)

    @pytest.mark.parametrize("name", MERGEABLE)
    def test_merged_report_is_sum_of_shard_reports(self, name):
        stream = case_stream(name, seed=10)[:2048]
        shards = partitioned_shards(name, stream, 4, seed=11)
        expected = sum_reports([shard.report() for shard in shards])
        merged = merge_all(shards)
        assert merged.report() == expected
        assert merged.items_processed == len(stream)


class TestMergeErrors:
    def test_sample_and_hold_family_raises_not_mergeable(self):
        params = SampleAndHoldParams.from_problem(n=256, m=1024, p=2,
                                                  epsilon=0.5)
        first = SampleAndHold(params, seed=0)
        second = SampleAndHold(params, seed=1)
        with pytest.raises(NotMergeableError):
            first.merge(second)
        full_first = FullSampleAndHold(n=256, m=1024, p=2, epsilon=0.5,
                                       seed=0, repetitions=1)
        full_second = FullSampleAndHold(n=256, m=1024, p=2, epsilon=0.5,
                                        seed=1, repetitions=1)
        with pytest.raises(NotMergeableError):
            full_first.merge(full_second)

    def test_type_mismatch_raises_not_mergeable(self):
        with pytest.raises(NotMergeableError):
            CountMin(16, 2, seed=0).merge(MisraGries(k=4))

    def test_incompatible_config_raises_value_error(self):
        with pytest.raises(ValueError):
            CountMin(16, 2, seed=0).merge(CountMin(32, 2, seed=0))
        with pytest.raises(ValueError):
            CountMin(16, 2, seed=0).merge(CountMin(16, 2, seed=1))

    def test_self_merge_rejected(self):
        sketch = CountMin(16, 2, seed=0)
        with pytest.raises(ValueError):
            sketch.merge(sketch)

    def test_shared_tracker_rejected(self):
        tracker = StateTracker()
        first = CountMin(16, 2, seed=0, tracker=tracker)
        second = CountMin(16, 2, seed=0, tracker=tracker)
        with pytest.raises(ValueError):
            first.merge(second)


class TestProcessMany:
    @pytest.mark.parametrize("name", ["count-min", "misra-gries", "kmv"])
    def test_matches_single_item_ingestion(self, name):
        stream = case_stream(name, seed=12)[:4096]
        one_by_one = make(name, seed=13)
        for item in stream:
            one_by_one.process(item)
        batched = make(name, seed=13)
        consumed = batched.process_many(stream)
        assert consumed == len(stream)
        assert batched.items_processed == one_by_one.items_processed
        assert batched.report() == one_by_one.report()
        for item in range(32):
            assert query(batched, item) == query(one_by_one, item)


class TestSerialization:
    @pytest.mark.parametrize("name", MERGEABLE)
    def test_json_round_trip_preserves_estimates_and_audit(self, name):
        stream = case_stream(name, seed=14)[:2048]
        sketch = make(name, seed=15)
        sketch.process_many(stream)
        state = json.loads(json.dumps(sketch.to_state()))
        # Tag rule: only the classes that draw coins tag their snapshots.
        assert ("coin_protocol" in state["config"]) == type(sketch).draws_coins
        restored = registry.sketch_class(state["algorithm"]).from_state(state)
        assert restored.report() == sketch.report()
        assert restored.items_processed == sketch.items_processed
        for item in range(32):
            assert query(restored, item) == query(sketch, item)

    def test_restored_sketch_resumes_ingestion(self):
        stream = zipf_stream(N, 4096, skew=1.2, seed=16)
        half = len(stream) // 2
        continuous = CountMin(64, 3, seed=17)
        continuous.process_many(stream)
        checkpointed = CountMin(64, 3, seed=17)
        checkpointed.process_many(stream[:half])
        restored = CountMin.from_state(checkpointed.to_state())
        restored.process_many(stream[half:])
        assert restored.report() == continuous.report()
        for item in range(64):
            assert restored.estimate(item) == continuous.estimate(item)

    def test_state_names_algorithm_and_mismatch_rejected(self):
        sketch = CountMin(16, 2, seed=0)
        state = sketch.to_state()
        assert state["algorithm"] == "CountMin"
        with pytest.raises(ValueError):
            MisraGries.from_state(state)

    def test_unserializable_family_raises(self):
        algo = FullSampleAndHold(n=64, m=256, p=2, epsilon=0.5, seed=0,
                                 repetitions=1)
        with pytest.raises(NotSerializableError):
            algo.to_state()


#: The registry families with snapshot hooks.
SERIALIZABLE = [
    name for name in registry.names()
    if registry.spec(name).cls._config_state is not Sketch._config_state
]


class TestPayloadChecks:
    """Every list field of every serializable family's payload restores
    only in the shape and range the family writes it: nested in an
    extra list, or with its first entry out of type (1.5 in an integer
    field) or out of range (-3.0 in a float field), it raises a
    ``ValueError`` naming the field."""

    def test_every_serializable_family_is_swept(self):
        assert SERIALIZABLE == MERGEABLE

    @pytest.mark.parametrize("name", SERIALIZABLE)
    def test_corrupt_list_fields_raise(self, name):
        sketch = make(name, seed=18)
        sketch.process_many(case_stream(name, seed=18)[:512])
        state = json.loads(json.dumps(sketch.to_state()))
        cls = registry.sketch_class(state["algorithm"])
        fields = [
            field for field, value in state["payload"].items()
            if isinstance(value, list)
        ]
        assert fields
        for field in fields:
            nested = json.loads(json.dumps(state))
            nested["payload"][field] = [nested["payload"][field]]
            with pytest.raises(ValueError, match=repr(field)):
                cls.from_state(nested)
            corrupt = json.loads(json.dumps(state))
            entries = corrupt["payload"][field]
            while isinstance(entries[0], list):
                entries = entries[0]
            entries[0] = -3.0 if isinstance(entries[0], float) else 1.5
            with pytest.raises(ValueError, match=repr(field)):
                cls.from_state(corrupt)


class TestExternalTrackerRestore:
    def test_dict_backed_sketch_evicts_after_restore(self):
        # Regression: from_state(tracker=external) bypassed the audit
        # overwrite, leaving restored dict entries unaccounted so the
        # first eviction's free() underflowed the tracker.
        from repro.state.tracker import StateTracker

        sketch = registry.create("misra-gries", epsilon=1.0)
        sketch.process_many([1, 2, 3, 4])
        restored = type(sketch).from_state(
            sketch.to_state(), tracker=StateTracker()
        )
        for item in range(10, 40):  # distinct items force evictions
            restored.process(item)
        assert restored.tracker.current_words >= 0


class TestSpaceSavingMerge:
    def test_evicted_heavy_item_keeps_its_mass(self):
        # Regression: an item evicted from one full shard used to
        # contribute zero to the merge, dropping its mass and breaking
        # the overestimate invariant.  With the minimum-floor rule its
        # merged estimate stays an overestimate of the true count.
        from repro.baselines import SpaceSaving

        a = SpaceSaving(k=2)
        a.process_many([0] * 5)
        b = SpaceSaving(k=2)
        b.process_many([0] * 4 + [1] * 10 + [2] * 10)  # 0 evicted from b
        a.merge(b)
        assert a.estimate(0) >= 9  # true combined count

    def test_partial_summaries_merge_without_floor(self):
        from repro.baselines import SpaceSaving

        a = SpaceSaving(k=4)
        a.process_many([1, 1, 2])
        b = SpaceSaving(k=4)
        b.process_many([2, 3])
        a.merge(b)
        # Neither summary was full: plain addition, exact counts.
        assert a.estimate(1) == 2
        assert a.estimate(2) == 2
        assert a.estimate(3) == 1
