"""Chunked data plane tests: the bit-identity contract.

The invariant under test everywhere: for every registered family,
accounting backend, and chunking of a stream,
``process_chunk`` produces exactly the payload, audit (including the
per-cell wear histogram on the trace backend), answers, and budget
outcome of the scalar ``process_many`` reference — and the sharded
runtime's columnar routing preserves the same guarantee end to end —
against the per-item routing reference, for every input type, under
every executor — while pulling plain iterables lazily.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.api import Engine
from repro.core import fp_pstable
from repro.core import sample_and_hold
from repro.core.sample_and_hold import ChunkSettle, SampleAndHold, SampleAndHoldParams
from repro.query import (
    AllEstimates,
    Distinct,
    Entropy,
    HeavyHitters,
    Moment,
    MultiPointQuery,
    PointQuery,
    QueryKind,
)
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.sharded import EXECUTORS, ShardedRunner
from repro.state.algorithm import Sketch
from repro.state.budget import WriteBudget, WriteBudgetExceededError
from repro.state.tracker import make_tracker
from repro.streams import ChunkedStream, zipf_stream
from repro.streams.chunked import DEFAULT_CHUNK_SIZE
from repro.streams.generators import _zipf_draws

#: Aggregate audit fields every arm must agree on exactly.
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

N, M = 64, 240
ARR = _zipf_draws(N, M, 1.1, 5)
ITEMS = ARR.tolist()

#: AMS writes every counter on every update, so its scalar reference
#: dominates the sweeps: ~0.3 s per 1-item chunk at ε=0.3 (10,680
#: words) against ~0.03 s at ε=1.0 (960 words).  Every other family
#: runs at ε=0.3.
EPSILON = {"ams": 1.0}

#: The randomized families: their kernels replay indexed coins.
RANDOMIZED = (
    "adaptive-sample-and-hold",
    "count-min-morris",
    "entropy",
    "heavy-hitters",
    "pstable-fp",
    "reservoir",
    "sample-and-hold",
)


def build(name: str, mode: str):
    return registry.create(
        name, n=N, m=M, epsilon=EPSILON.get(name, 0.3), seed=9,
        tracker=make_tracker(mode),
    )


def fingerprint(sketch) -> tuple:
    """Everything observable about an ingested sketch, exactly."""
    report = sketch.report()
    audit = tuple(getattr(report, field) for field in AUDIT_FIELDS)
    cells = tuple(sorted(report.cell_writes.items()))
    answers = tuple(
        repr(sketch.query(QUERY_FOR_KIND[kind]()))
        for kind in sorted(sketch.supports, key=str)
    )
    try:
        payload = json.dumps(sketch.to_state(), sort_keys=True)
    except TypeError:  # family without serialization hooks
        payload = None
    return (sketch.items_processed, audit, cells, answers, payload)


_SCALAR_REFERENCE: dict = {}


def scalar_reference(name: str, mode: str) -> tuple:
    key = (name, mode)
    if key not in _SCALAR_REFERENCE:
        sketch = build(name, mode)
        sketch.process_many(ITEMS)
        _SCALAR_REFERENCE[key] = fingerprint(sketch)
    return _SCALAR_REFERENCE[key]


def ingest_chunked(sketch, sizes) -> None:
    position = 0
    index = 0
    while position < M:
        size = sizes[index % len(sizes)]
        index += 1
        assert sketch.process_chunk(ARR[position:position + size]) == len(
            ARR[position:position + size]
        )
        position += size


class TestChunkScalarEquivalence:
    """The Hypothesis sweep: process_chunk ≡ process_many."""

    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    @pytest.mark.parametrize("name", registry.names())
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_random_chunkings(self, name, mode, data):
        sizes = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=M + 40),
                min_size=1,
                max_size=12,
            )
        )
        sketch = build(name, mode)
        ingest_chunked(sketch, sizes)
        assert fingerprint(sketch) == scalar_reference(name, mode)

    @pytest.mark.parametrize("size", [1, 3, M, M + 17, 10_000])
    @pytest.mark.parametrize("name", registry.names())
    def test_boundary_chunk_sizes(self, name, size):
        sketch = build(name, "aggregate")
        ingest_chunked(sketch, [size])
        assert fingerprint(sketch) == scalar_reference(name, "aggregate")

    @pytest.mark.parametrize("name", registry.names())
    def test_process_stream_routes_chunked_sources(self, name):
        chunked = build(name, "aggregate")
        chunked.process_stream(ChunkedStream(ARR, chunk_size=37))
        assert fingerprint(chunked) == scalar_reference(name, "aggregate")
        as_array = build(name, "aggregate")
        as_array.process_stream(ARR)
        assert fingerprint(as_array) == scalar_reference(name, "aggregate")

    def test_empty_chunk_is_a_noop(self):
        sketch = build("count-min", "aggregate")
        assert sketch.process_chunk(np.empty(0, dtype=np.int64)) == 0
        assert sketch.items_processed == 0
        assert sketch.report().stream_length == 0

    def test_chunk_must_be_one_dimensional(self):
        sketch = build("count-min", "aggregate")
        with pytest.raises(ValueError, match="one-dimensional"):
            sketch.process_chunk(np.zeros((2, 2), dtype=np.int64))

    def test_chunked_answers_use_python_ints(self):
        # np.int64 must never leak into summary keys / payloads.
        sketch = build("misra-gries", "aggregate")
        sketch.process_chunk(ARR)
        estimates = sketch.query(AllEstimates()).values
        assert all(type(item) is int for item in estimates)
        json.dumps(sketch.to_state())  # JSON-safe payload

    def test_listeners_force_the_scalar_path(self):
        # A write listener needs one callback per write in stream
        # order; chunked ingest must fall back and still deliver them.
        events = []
        scalar_events = []
        chunked = build("count-min", "trace")
        chunked.tracker.add_listener(
            lambda t, cell, mutated: events.append((t, cell, mutated))
        )
        chunked.process_chunk(ARR[:50])
        scalar = build("count-min", "trace")
        scalar.tracker.add_listener(
            lambda t, cell, mutated: scalar_events.append((t, cell, mutated))
        )
        scalar.process_many(ITEMS[:50])
        assert events and events == scalar_events

    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    def test_no_instance_opts_out_of_its_kernel(self, monkeypatch, mode):
        """Without listeners or a budget, every family with a kernel
        ingests a chunk without the scalar loop: whether a kernel runs
        is a property of the class, never of one configuration."""
        kernels = [
            name for name in registry.names()
            if registry.spec(name).cls._update_chunk is not Sketch._update_chunk
        ]
        assert set(registry.names()) - set(kernels) == {"support-recovery"}
        sketches = [build(name, mode) for name in kernels]

        def scalar_loop(self, items):
            raise AssertionError(f"{type(self).__name__} took the scalar loop")

        monkeypatch.setattr(Sketch, "process_many", scalar_loop)
        for sketch in sketches:
            assert sketch.process_chunk(ARR) == M


class TestRandomizedFamiliesV2:
    """Every coin is a pure function of its global update index, so the
    vectorized chunk kernels must reproduce the scalar run bit for bit
    — payloads, audits, per-cell wear, answers."""

    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    @pytest.mark.parametrize("name", RANDOMIZED)
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_chunked_equals_scalar_bit_for_bit(self, name, mode, data):
        sizes = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=M + 40),
                min_size=1,
                max_size=12,
            )
        )
        sketch = build(name, mode)
        ingest_chunked(sketch, sizes)
        assert fingerprint(sketch) == scalar_reference(name, mode)


def sample_and_hold_leaves(sketch) -> list[SampleAndHold]:
    """The SampleAndHold instances of a bare SampleAndHold, a
    sample-and-hold (one grid), adaptive-sample-and-hold (a grid per
    epoch) or heavy-hitters (a grid per universe level and copy)
    sketch."""
    if isinstance(sketch, SampleAndHold):
        return [sketch]
    if hasattr(sketch, "_instances"):
        grids = [sketch]
    elif hasattr(sketch, "_epochs"):
        grids = sketch._epochs
    else:
        grids = [grid for row in sketch._backends for grid in row]
    return [leaf for grid in grids for leaf in grid.leaves()]


PRUNE_N, PRUNE_M = 512, 20_000
PRUNE_ARR = _zipf_draws(PRUNE_N, PRUNE_M, 1.1, 3)
_PRUNE_REFERENCE: dict = {}


#: The leaves of ablations A1 and A2: bare SampleAndHold instances
#: holding exact counters, under the paper's dyadic eviction and under
#: global eviction.
ABLATION_LEAVES = {
    "a1-exact-counters": {"use_morris": False},
    "a2-global-eviction": {"use_morris": False, "eviction": "global"},
}

#: (sketch, chunk size) pairs of the prune sweep.
PRUNE_CASES = (
    [
        (name, size)
        for name in ("heavy-hitters", "sample-and-hold")
        for size in (1, 37, 4096, PRUNE_M)
    ]
    + [(name, size) for name in ABLATION_LEAVES for size in (37, 4096)]
    + [("adaptive-sample-and-hold", size) for size in (37, 4096)]
)


def build_pruning(name: str, mode: str):
    # At n=512 only epsilon=1.0 budgets (a few dozen held counters)
    # are small enough for the held sets to fill up and prune.
    if name in ABLATION_LEAVES:
        params = SampleAndHoldParams.from_problem(
            n=PRUNE_N, m=PRUNE_M, p=2, epsilon=1.0
        )
        return SampleAndHold(
            params, seed=3, tracker=make_tracker(mode), **ABLATION_LEAVES[name]
        )
    return registry.create(
        name, n=PRUNE_N, m=PRUNE_M, epsilon=1.0, seed=3,
        tracker=make_tracker(mode),
    )


class TestSampleAndHoldPrunes:
    """The shared settle of the sample-and-hold stack on a stream that
    prunes: held counters count their arrivals in waves, so a prune
    inside the chunk must first absorb its leaf's counting arrivals up
    to its position, and the evicted items' later arrivals must resolve
    again from the pruned state -- both for items held when the chunk
    began and for items opened inside it.  The A1 and A2 ablation
    leaves -- exact counters, dyadic and global eviction -- and the
    adaptive epochs take the same prunes."""

    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    @pytest.mark.parametrize("name,size", PRUNE_CASES)
    def test_chunked_equals_scalar_through_prunes(
        self, monkeypatch, name, size, mode
    ):
        key = (name, mode)
        if key not in _PRUNE_REFERENCE:
            scalar = build_pruning(name, mode)
            scalar.process_many(PRUNE_ARR.tolist())
            _PRUNE_REFERENCE[key] = fingerprint(scalar)

        # A held counter was opened before the chunk iff its creation
        # clock is at most the leaf's clock when the chunk began.
        screened_at: dict[int, int] = {}
        evicted_inside = 0  # held before the chunk, evicted inside it
        opened_inside = 0  # opened and evicted inside one chunk
        settle_init = ChunkSettle.__init__
        prune = SampleAndHold._prune_counters

        def recording_init(self, chunk, routes, audit):
            for leaf, _ in routes:
                screened_at[id(leaf)] = leaf._t
            settle_init(self, chunk, routes, audit)

        def recording_prune(self, now, audit=None, position=0):
            nonlocal evicted_inside, opened_inside
            before = {
                item: int(self._table.created_at[row])
                for item, row in self._held.items()
            }
            prune(self, now, audit, position)
            if audit is not None:
                for item, created in before.items():
                    if item not in self._held:
                        if created <= screened_at[id(self)]:
                            evicted_inside += 1
                        else:
                            opened_inside += 1

        monkeypatch.setattr(ChunkSettle, "__init__", recording_init)
        monkeypatch.setattr(SampleAndHold, "_prune_counters", recording_prune)
        sketch = build_pruning(name, mode)
        for low in range(0, PRUNE_M, size):
            sketch.process_chunk(PRUNE_ARR[low:low + size])

        assert fingerprint(sketch) == _PRUNE_REFERENCE[key]
        assert sum(leaf.num_prunes for leaf in sample_and_hold_leaves(sketch)) > 0
        if size < PRUNE_M:  # nothing is held when the first chunk starts
            assert evicted_inside > 0
        if size >= 4096:  # long enough to open and evict inside a chunk
            assert opened_inside > 0


#: A bare leaf whose every coin hits and whose budget is a few dozen
#: slots, on a stream of five times as many distinct items: reservoir
#: writes evict each other in chains long enough that a resolution
#: stopped after two passes keeps writes the scalar loop never makes,
#: and prunes follow the chains inside one chunk.
DEPTH_M = 3_000
DEPTH_ARR = np.random.default_rng(11).integers(0, 100, DEPTH_M)
DEPTH_PARAMS = SampleAndHoldParams(
    sample_probability=1.0, kappa=4, budget_low=20, budget_high=22, counter_a=0.125
)
_DEPTH_REFERENCE: dict = {}


class TestResolutionDepth:
    """The settle's write resolution is a fixed point found in passes;
    on eviction chains it needs several, and stopping early would keep
    writes the scalar loop never makes."""

    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    @pytest.mark.parametrize("size", [1, 37, 4096])
    def test_chains_resolve_as_the_scalar_loop(self, monkeypatch, size, mode):
        if mode not in _DEPTH_REFERENCE:
            scalar = SampleAndHold(DEPTH_PARAMS, seed=5, tracker=make_tracker(mode))
            scalar.process_many(DEPTH_ARR.tolist())
            _DEPTH_REFERENCE[mode] = fingerprint(scalar)

        # Passes per resolution: one _open_times call each.
        passes: list[int] = []
        resolve = ChunkSettle._resolve_chain
        open_times = sample_and_hold._open_times

        def counting_resolve(self, *args):
            passes.append(0)
            return resolve(self, *args)

        def counting_open_times(*args):
            passes[-1] += 1
            return open_times(*args)

        monkeypatch.setattr(ChunkSettle, "_resolve_chain", counting_resolve)
        monkeypatch.setattr(sample_and_hold, "_open_times", counting_open_times)
        sketch = SampleAndHold(DEPTH_PARAMS, seed=5, tracker=make_tracker(mode))
        for low in range(0, DEPTH_M, size):
            sketch.process_chunk(DEPTH_ARR[low:low + size])

        assert fingerprint(sketch) == _DEPTH_REFERENCE[mode]
        assert sketch.num_prunes > 0
        if size > 1:  # a one-item chunk needs at most two passes
            assert max(passes) >= 3


WAVE_N, WAVE_M = 512, 20_000
WAVE_ARR = _zipf_draws(WAVE_N, WAVE_M, 1.1, 3)
_WAVE_REFERENCE: dict = {}


def build_waves(name: str, mode: str):
    return registry.create(
        name, n=WAVE_N, m=WAVE_M, epsilon=1.0, seed=3,
        tracker=make_tracker(mode),
    )


def wave_fingerprint(sketch) -> tuple:
    """:func:`fingerprint` plus the p-stable levels and update counts
    (the entropy estimator itself has no serialization hooks)."""
    nodes = getattr(sketch, "_sketches", [sketch])
    return fingerprint(sketch) + (
        [json.dumps(node._payload_state()) for node in nodes],
    )


def wave_reference(name: str, mode: str) -> tuple:
    """The scalar loop's fingerprint over the whole wave stream."""
    key = (name, mode)
    if key not in _WAVE_REFERENCE:
        scalar = build_waves(name, mode)
        scalar.process_many(WAVE_ARR.tolist())
        _WAVE_REFERENCE[key] = wave_fingerprint(scalar)
    return _WAVE_REFERENCE[key]


class TestPStableWavesAtScale:
    """The p-stable wave settle on a stream long enough for blocks to
    settle several waves (the 240-item sweeps above rarely get past
    one): entropy's node sketches settle as one set, pstable-fp alone,
    and both match the scalar loop bit for bit at every chunk size --
    sizes 15 to 48 and 1023 to 1025 straddle the short head blocks
    (16, 16, 32, ...) and the 1024-position blocks after them."""

    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    @pytest.mark.parametrize(
        "size", [1, 15, 17, 37, 48, 1023, 1024, 1025, 4096, WAVE_M]
    )
    @pytest.mark.parametrize("name", ["entropy", "pstable-fp"])
    def test_chunked_equals_scalar(self, monkeypatch, name, size, mode):
        reference = wave_reference(name, mode)

        # Waves settled per screening block.
        waves: list[int] = []
        absorb_block = fp_pstable._absorb_block
        step = fp_pstable.weighted_morris_step

        def counting_block(*args):
            waves.append(0)
            absorb_block(*args)

        def counting_step(*args):
            waves[-1] += 1
            return step(*args)

        monkeypatch.setattr(fp_pstable, "_absorb_block", counting_block)
        monkeypatch.setattr(fp_pstable, "weighted_morris_step", counting_step)
        sketch = build_waves(name, mode)
        for low in range(0, WAVE_M, size):
            sketch.process_chunk(WAVE_ARR[low:low + size])

        assert wave_fingerprint(sketch) == reference
        if size > 1:  # a one-item block settles at most one wave
            assert max(waves) >= 2

    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    @pytest.mark.parametrize("size", [15, 1024])
    def test_restored_sketch_resumes_chunked(self, mode, size):
        """A pstable-fp sketch restored through ``to_state`` /
        ``from_state`` after 37 items -- a fresh variate table, and head
        blocks sized from the restored update count -- then chunk-fed
        the rest equals the uninterrupted scalar run."""
        head = build_waves("pstable-fp", mode)
        head.process_chunk(WAVE_ARR[:37])
        sketch = type(head).from_state(head.to_state())
        for low in range(37, WAVE_M, size):
            sketch.process_chunk(WAVE_ARR[low:low + size])
        assert wave_fingerprint(sketch) == wave_reference("pstable-fp", mode)


class TestBudgetChunkBoundaries:
    """Freeze/degrade/raise cut over at the exact update index."""

    @pytest.mark.parametrize("policy", ["freeze", "degrade"])
    @pytest.mark.parametrize(
        "name",
        ["count-min", "kmv", "misra-gries",
         "count-min-morris", "pstable-fp", "reservoir",
         "sample-and-hold", "heavy-hitters", "adaptive-sample-and-hold"],
    )
    @pytest.mark.parametrize("limit", [0, 1, 103, 10_000])
    def test_policy_identical_to_scalar(self, name, policy, limit):
        def run(chunked: bool):
            sketch = registry.create(
                name, n=N, m=M, epsilon=0.3, seed=9,
                tracker=make_tracker(budget=WriteBudget(limit, policy)),
            )
            if chunked:
                ingest_chunked(sketch, [40])  # limit=103 cuts mid-chunk
            else:
                sketch.process_many(ITEMS)
            return fingerprint(sketch), sketch.tracker.budget_report()

        assert run(chunked=True) == run(chunked=False)

    def test_freeze_cuts_at_the_exact_update_index(self):
        limit = 103  # not a multiple of the chunk size
        sketch = registry.create(
            "count-min", n=N, m=M, epsilon=0.3, seed=9,
            tracker=make_tracker(budget=WriteBudget(limit, "freeze")),
        )
        ingest_chunked(sketch, [40])
        report = sketch.tracker.budget_report()
        # CountMin mutates on every update, so exactly `limit` updates
        # landed and every later one was denied.
        assert report.state_changes == limit
        assert report.denied == M - limit
        assert sketch.report().stream_length == M

    def test_raise_aborts_at_the_same_write(self):
        def run(chunked: bool):
            sketch = registry.create(
                "count-min", n=N, m=M, epsilon=0.3, seed=9,
                tracker=make_tracker(budget=WriteBudget(57, "raise")),
            )
            with pytest.raises(WriteBudgetExceededError) as excinfo:
                if chunked:
                    ingest_chunked(sketch, [40])
                else:
                    sketch.process_many(ITEMS)
            return str(excinfo.value), fingerprint(sketch)

        assert run(chunked=True) == run(chunked=False)

    def test_record_chunk_refuses_budget_overrun(self):
        tracker = make_tracker(budget=WriteBudget(5, "freeze"))
        with pytest.raises(ValueError, match="bulk_admit"):
            tracker.record_chunk(10, 6, 6, 6)

    def test_bulk_admit_bounds(self):
        tracker = make_tracker(budget=WriteBudget(5, "freeze"))
        assert tracker.bulk_admit(3) == 3
        assert tracker.bulk_admit(100) == 5
        tracker.record_chunk(5, 5, 5, 5)
        assert tracker.bulk_admit(100) == 0
        unlimited = make_tracker("aggregate")
        assert unlimited.bulk_admit(7) == 7


class PullCounter:
    """A generator source that records how many items were pulled."""

    def __init__(self, items):
        self.items = items
        self.pulled = 0

    def __iter__(self):
        for item in self.items:
            self.pulled += 1
            yield item


def max_lead(monkeypatch, source: PullCounter, run) -> int:
    """Run ``run()`` and return the most items ``source`` was ever
    pulled ahead of shard ingest, seen at each ``process_chunk``."""
    original = Sketch.process_chunk
    ingested = 0
    lead = 0

    def process_chunk(self, chunk):
        nonlocal ingested, lead
        lead = max(lead, source.pulled - ingested)
        ingested += len(chunk)
        return original(self, chunk)

    monkeypatch.setattr(Sketch, "process_chunk", process_chunk)
    run()
    assert ingested == len(source.items)
    return lead


class TestChunkedSharding:
    """Columnar routing matches per-item routing bit for bit."""

    @pytest.mark.parametrize("name", ["count-min", "misra-gries", "kmv"])
    def test_serial_chunked_equals_serial_scalar(self, name):
        """The runner's chunk routing against the per-item reference
        ``shard_of``, each shard fed by the scalar ``process_many``
        loop."""
        stream = zipf_stream(256, 4096, skew=1.2, seed=3)

        def runner():
            return ShardedRunner.from_registry(
                name, 4, n=256, m=4096, epsilon=0.3, seed=1,
            )

        items = stream.materialize()
        reference = runner()
        routes = [reference.shard_of(item) for item in items]
        shards = reference.shards
        for index, shard in enumerate(shards):
            shard.process_many(
                [item for item, to in zip(items, routes) if to == index]
            )
        expected_items = tuple(routes.count(index) for index in range(4))
        expected_reports = tuple(shard.report() for shard in shards)
        merged = reference.merge()

        chunked = runner().run(stream)
        assert chunked.shard_items == expected_items
        assert chunked.shard_reports == expected_reports
        assert json.dumps(
            chunked.merged.to_state(), sort_keys=True
        ) == json.dumps(merged.to_state(), sort_keys=True)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_every_input_type_matches_under_every_executor(self, executor):
        """List, ndarray, ``ChunkedStream`` and generator inputs give
        the serial ``ChunkedStream`` run's exact result on every
        executor."""
        stream = zipf_stream(256, 4096, skew=1.2, seed=3)
        array = stream.to_array()

        def run(source, on=executor):
            result = ShardedRunner.from_registry(
                "misra-gries", 4, n=256, m=4096, epsilon=0.3, seed=1,
                executor=on, chunk_size=1000,
            ).run(source)
            return (
                json.dumps(result.merged.to_state(), sort_keys=True),
                result.shard_reports,
                result.shard_items,
            )

        expected = run(stream, on="serial")
        sources = {
            "list": array.tolist(),
            "ndarray": array,
            "chunked": stream,
            "generator": (int(item) for item in array),
        }
        for kind, source in sources.items():
            assert run(source) == expected, kind

    def test_process_executor_ships_ndarray_chunks(self):
        stream = zipf_stream(256, 4096, skew=1.2, seed=3)

        def run(executor):
            runner = ShardedRunner.from_registry(
                "count-min", 2, n=256, m=4096, epsilon=0.3, seed=1,
                executor=executor,
            )
            result = runner.run(stream)
            return (
                json.dumps(result.merged.to_state(), sort_keys=True),
                result.shard_reports,
            )

        assert run("process") == run("serial")

    def test_routing_matches_shard_of(self):
        runner = ShardedRunner.from_registry(
            "count-min", 8, n=256, m=1024, epsilon=0.3, seed=4
        )
        chunk = _zipf_draws(256, 1024, 1.2, 8)
        vectorized = runner._route.bucket_many(chunk, 8).tolist()
        assert vectorized == [
            runner.shard_of(int(item)) for item in chunk
        ]

    def test_chunk_size_rechunks_without_changing_results(self):
        stream = zipf_stream(128, 2000, seed=6)
        baseline = ShardedRunner.from_registry(
            "count-min", 2, n=128, m=2000, seed=2
        ).run(stream)
        rechunked = ShardedRunner.from_registry(
            "count-min", 2, n=128, m=2000, seed=2, chunk_size=111
        ).run(stream)
        assert json.dumps(
            baseline.merged.to_state(), sort_keys=True
        ) == json.dumps(rechunked.merged.to_state(), sort_keys=True)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_generator_ingest_stays_one_chunk_ahead(
        self, shards, monkeypatch
    ):
        source = PullCounter(ITEMS * 10)
        runner = ShardedRunner.from_registry(
            "count-min", shards, n=N, m=len(source.items), seed=2,
            chunk_size=64,
        )
        lead = max_lead(monkeypatch, source, lambda: runner.ingest(source))
        assert 0 < lead <= 64

    def test_negative_items_route_and_answer_consistently(self):
        """Negative ids hash into [0, P) on the chunk path, so routing,
        the count-min kernel and both query paths agree."""
        engine = Engine("count-min", shards=2)
        engine.run([-5] * 300)
        point = engine.query(PointQuery(-5)).value
        batch = engine.query_many(MultiPointQuery([-5]))[0].value
        assert point == batch >= 300


class TestEngineChunked:
    def test_workload_runs_are_chunked_and_identical_to_scalar(self):
        engine = Engine("count-min", n=128, m=3000, epsilon=0.3, seed=5)
        chunked = engine.run(workload="zipf", chunk_size=256)
        assert chunked.chunk_size == 256
        workload_stream = engine.run(workload="zipf")
        from repro.workloads import Workload

        scalar = engine.run(
            Workload("zipf", n=128, m=3000, seed=5).materialize()
            .materialize(),  # plain list[int], pulled chunk by chunk
        )
        for report in (workload_stream, scalar):
            assert [
                (repr(q), repr(a)) for q, a in chunked.answers
            ] == [(repr(q), repr(a)) for q, a in report.answers]
            assert chunked.audit == report.audit

    def test_chunk_size_validation(self):
        engine = Engine("count-min", n=64, m=100, seed=0)
        with pytest.raises(ValueError, match="chunk_size"):
            engine.run([1, 2, 3], queries=(), chunk_size=0)

    def test_plain_iterable_with_chunk_size_is_wrapped(self):
        engine = Engine("count-min", n=64, m=100, seed=0)
        report = engine.run(
            iter([1, 2, 3] * 30), queries=(), chunk_size=7
        )
        assert report.items_processed == 90
        assert report.chunk_size == 7

    def test_generator_run_without_chunk_size_stays_lazy(
        self, monkeypatch
    ):
        """Without ``chunk_size`` a generator is pulled one default
        chunk at a time, never materialized."""
        source = PullCounter(list(range(3 * DEFAULT_CHUNK_SIZE + 5)))
        engine = Engine(
            "count-min", n=64, m=len(source.items), seed=0, shards=2
        )
        lead = max_lead(
            monkeypatch, source, lambda: engine.run(source, queries=())
        )
        assert 0 < lead <= DEFAULT_CHUNK_SIZE


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "name",
        ["count-min", "kmv", "count-min-morris", "misra-gries",
         "pstable-fp"],
    )
    def test_resume_matches_uninterrupted_run(self, name, tmp_path):
        # count-min-morris and pstable-fp exercise the index-addressable
        # coin resume through chunk kernels.
        stream = ChunkedStream(ARR, chunk_size=64)
        uninterrupted = build(name, "aggregate")
        uninterrupted.process_stream(stream)

        interrupted = build(name, "aggregate")
        consumed = 0
        for chunk in stream.chunks():
            interrupted.process_chunk(chunk)
            consumed += len(chunk)
            if consumed >= 137:  # stop mid-stream, off the chunk grid
                break
        path = tmp_path / "ckpt.json"
        Checkpoint.save(path, interrupted)
        assert Checkpoint.offset(path.read_text()) == consumed

        resumed = Checkpoint.resume(path, stream)
        assert resumed.items_processed == M
        assert json.dumps(
            resumed.to_state(), sort_keys=True
        ) == json.dumps(uninterrupted.to_state(), sort_keys=True)

    def test_resume_accepts_plain_iterables(self, tmp_path):
        sketch = build("count-min", "aggregate")
        sketch.process_many(ITEMS[:100])
        path = tmp_path / "ckpt.json"
        Checkpoint.save(path, sketch)
        resumed = Checkpoint.resume(path, ITEMS)
        reference = build("count-min", "aggregate")
        reference.process_many(ITEMS)
        assert json.dumps(
            resumed.to_state(), sort_keys=True
        ) == json.dumps(reference.to_state(), sort_keys=True)

    def test_legacy_checkpoints_still_resume(self, tmp_path):
        # Pre-offset checkpoints carry no stream_offset field; the
        # recorded items_processed doubles as the offset.
        sketch = build("count-min", "aggregate")
        sketch.process_many(ITEMS[:50])
        state = sketch.to_state()
        assert "stream_offset" not in state
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(state) + "\n")
        assert Checkpoint.offset(path.read_text()) == 50
        resumed = Checkpoint.resume(path, ChunkedStream(ARR))
        assert resumed.items_processed == M
