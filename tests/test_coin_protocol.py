"""Coin-protocol contract tests: golden fixtures, snapshots, one path.

Every coin family draws its coins from indexed Philox streams (the
protocol snapshots tag ``"v2"``; the sequential-RNG protocol v1 was
retired).  Two things are frozen against committed JSON
(``tests/data/golden_coins.json``):

* **Run fingerprints** for all seven coin families (the composites
  heavy-hitters and adaptive-sample-and-hold included).
* **Raw Philox draws.**  Every coin is a pure function of
  ``(seed, stream label, index)``; the sampled values must never
  change, or snapshots (which store no RNG state at all) break.

Regenerate — only after an *intentional* protocol change — with::

    PYTHONPATH=src python -c \
        "import tests.test_coin_protocol as t; t.regenerate()"

``tests/data/v2_snapshots.json`` holds snapshots written by the code
before v1 was retired; it is a compatibility artifact and is never
regenerated.  The rest of the module covers snapshot tagging, the
retirement errors, and the absence of any second coin path.
"""

import hashlib
import inspect
import json
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.api import Engine
from repro.baselines import ReservoirSampler
from repro.core import SampleAndHold
from repro.experiments.sharding import shard_scaling
from repro.hashing import coins as coins_module
from repro.hashing.coins import (
    PhiloxCoins,
    _words,
    lane_block_uniforms,
    lane_uniforms,
    lane_words,
    seeded_uniforms,
    stream_key,
)
from repro.query import (
    AllEstimates,
    Distinct,
    Entropy,
    HeavyHitters,
    Moment,
    PointQuery,
    QueryKind,
)
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.sharded import ShardedRunner
from repro.serve.engine import LiveEngine
from repro.state.tracker import make_tracker
from repro.streams.generators import _zipf_draws

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_coins.json"
SNAPSHOT_PATH = Path(__file__).parent / "data" / "v2_snapshots.json"

N, M = 64, 240
ARR = _zipf_draws(N, M, 1.1, 5)

#: Every family that draws coins, composites included.
COIN_FAMILIES = (
    "adaptive-sample-and-hold",
    "count-min-morris",
    "entropy",
    "heavy-hitters",
    "pstable-fp",
    "reservoir",
    "sample-and-hold",
)

#: The coin families with serialization hooks.
SERIALIZABLE = ("count-min-morris", "pstable-fp")

_QUERY_FOR_KIND = {
    QueryKind.POINT: lambda: PointQuery(1),
    QueryKind.ALL_ESTIMATES: AllEstimates,
    QueryKind.HEAVY_HITTERS: HeavyHitters,
    QueryKind.MOMENT: Moment,
    QueryKind.DISTINCT: Distinct,
    QueryKind.ENTROPY: Entropy,
}


def _family_fingerprint(name: str) -> dict:
    """JSON-stable observables of one run on the pinned stream."""
    sketch = registry.create(
        name, n=N, m=M, epsilon=0.3, seed=9, tracker=make_tracker("trace")
    )
    sketch.process_many(ARR.tolist())
    report = sketch.report()
    answers = {
        str(kind): repr(sketch.query(_QUERY_FOR_KIND[kind]()))
        for kind in sorted(sketch.supports, key=str)
    }
    try:
        payload = json.dumps(sketch.to_state(), sort_keys=True)
        payload_sha = hashlib.sha256(payload.encode()).hexdigest()
    except TypeError:  # family without serialization hooks
        payload_sha = None
    return {
        "state_changes": report.state_changes,
        "total_writes": report.total_writes,
        "total_write_attempts": report.total_write_attempts,
        "peak_words": report.peak_words,
        "cell_writes_sha": hashlib.sha256(
            json.dumps(
                sorted(report.cell_writes.items()), sort_keys=True
            ).encode()
        ).hexdigest(),
        "answers": answers,
        "payload_sha": payload_sha,
    }


def _philox_samples() -> dict:
    """Raw coin draws: pure functions of (seed, label, index)."""
    coins = PhiloxCoins(9, "golden")
    other = PhiloxCoins(9, "golden.other")
    return {
        "block_0_8": [repr(u) for u in coins.uniform_block(0, 8)],
        "index_1000": repr(coins.uniform(1000)),
        "index_2**40": repr(coins.uniform(2**40)),
        "other_label_0_4": [repr(u) for u in other.uniform_block(0, 4)],
    }


def _compute_golden() -> dict:
    return {
        "philox": _philox_samples(),
        "v2": {name: _family_fingerprint(name) for name in COIN_FAMILIES},
    }


def regenerate() -> None:  # pragma: no cover - manual tool
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(_compute_golden(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenFixtures:
    @pytest.mark.parametrize("name", COIN_FAMILIES)
    def test_v2_runs_are_frozen(self, golden, name):
        assert _family_fingerprint(name) == golden["v2"][name]

    def test_philox_draws_are_frozen(self, golden):
        assert _philox_samples() == golden["philox"]

    def test_philox_block_matches_single_draws(self):
        coins = PhiloxCoins(9, "golden")
        block = coins.uniform_block(123, 40)
        assert [coins.uniform(123 + i) for i in range(40)] == list(block)


def _reference_uniforms(start: int, count: int) -> list[float]:
    """One ``_words`` block of the stream: no read-ahead involved."""
    words = _words(stream_key(9, "golden"), start, count)
    return ((words >> np.uint64(11)) * 2.0**-53).tolist()


class TestReadAhead:
    """The read-ahead cache grows with its consumer; values never move."""

    def test_sequential_reads_match_one_block(self):
        coins = PhiloxCoins(9, "golden")
        assert [coins.uniform(i) for i in range(1000)] == _reference_uniforms(
            0, 1000
        )

    def test_scattered_reads_match_one_block(self):
        rng = np.random.default_rng(5)
        coins = PhiloxCoins(9, "golden")
        reference = _reference_uniforms(0, 5000)
        for _ in range(300):
            start = int(rng.integers(0, 4900))
            count = int(rng.integers(1, 100))
            assert (
                coins.uniform_block(start, count).tolist()
                == reference[start:start + count]
            )
            index = int(rng.integers(0, 5000))
            assert coins.uniform(index) == reference[index]

    def test_a_few_low_indices_keep_a_small_cache(self):
        # A held Morris counter reads its level coins 1, 2, 3, ...
        coins = PhiloxCoins(9, "golden")
        for level in range(1, 6):
            coins.uniform(level)
        assert len(coins._cache[1]) <= 16


def _fresh_words(seed: int, label: str, start: int, count: int):
    """Raw words at ``[start, start+count)`` from a freshly built Philox."""
    block, offset = divmod(start, 4)
    return np.random.Philox(
        key=np.array(stream_key(seed, label), dtype=np.uint64),
        counter=[block, 0, 0, 0],
    ).random_raw(offset + count)[offset:]


def _fresh_uniforms(seed: int, label: str, start: int, count: int):
    words = _fresh_words(seed, label, start, count)
    return ((words >> np.uint64(11)) * 2.0**-53).tolist()


class TestOneGeneratorPerThread:
    """Streams re-point one per-thread generator instead of building
    one per read; the words are those of a freshly built Philox."""

    @pytest.mark.parametrize(
        "start",
        [0, 1, 2, 3, 4, 7, 1001, 2**40 + 1, 2**40 + 2, 2**40 + 7, 2**50 + 3],
    )
    def test_raw_matches_a_freshly_built_philox(self, start):
        assert _words(stream_key(9, "golden"), start, 11).tolist() == (
            _fresh_words(9, "golden", start, 11).tolist()
        )

    def test_first_reads_build_one_generator_per_thread(self, monkeypatch):
        built = Counter()
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built[threading.get_ident()] += 1
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monkeypatch.setattr(coins_module, "_local", threading.local())

        def first_reads():
            for i in range(1000):
                PhiloxCoins(i, f"fresh.{i}").uniform(i % 9)

        first_reads()
        worker = threading.Thread(target=first_reads)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert sorted(built.values()) == [1, 1]

    def test_concurrent_reads_match_a_serial_run(self):
        """More threads than cores, switching often, draw scattered
        blocks from their own streams and from one shared stream.  The
        indices stay within a few read-aheads of each other, so reads
        hit caches that other threads keep refilling."""
        threads, reads = 6, 400
        shared = PhiloxCoins(9, "shared")
        own = [PhiloxCoins(9, f"own.{t}") for t in range(threads)]
        plans = [
            [
                (bool(rng.integers(2)), int(rng.integers(0, 2048)),
                 int(rng.integers(1, 64)))
                for _ in range(reads)
            ]
            for rng in (np.random.default_rng(t) for t in range(threads))
        ]
        seen: list[list] = [[] for _ in range(threads)]

        def draw(t: int) -> None:
            for use_shared, start, count in plans[t]:
                coins = shared if use_shared else own[t]
                seen[t].append(coins.uniform_block(start, count).tolist())
                seen[t].append(coins.uniform(start + count // 2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=draw, args=(t,))
                for t in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for t in range(threads):
            expected = []
            for use_shared, start, count in plans[t]:
                label = "shared" if use_shared else f"own.{t}"
                expected.append(_fresh_uniforms(9, label, start, count))
                expected.append(
                    _fresh_uniforms(9, label, start + count // 2, 1)[0]
                )
            assert seen[t] == expected


class TestLanePhilox:
    """The pure-numpy Philox-4x64-10 of the lane-wise reads returns the
    words ``np.random.Philox`` returns, counter pre-increment included,
    for many streams in one call and for a few (which re-point the
    thread's generator instead)."""

    INDICES = (
        list(range(8)) + [2**40 + k for k in range(1, 8)] + [2**50 + 3]
    )

    @pytest.mark.parametrize("lanes", [1, 5, 95, 96, 200])
    def test_words_match_a_freshly_built_philox(self, lanes):
        rng = np.random.default_rng(lanes)
        keys0 = rng.integers(0, 2**64, lanes, dtype=np.uint64, endpoint=False)
        keys1 = rng.integers(0, 2**64, lanes, dtype=np.uint64, endpoint=False)
        index = np.array(
            [self.INDICES[i % len(self.INDICES)] for i in range(lanes)],
            dtype=np.uint64,
        )
        expected = []
        for key0, key1, at in zip(keys0, keys1, index.tolist()):
            block, offset = divmod(at, 4)
            expected.append(
                int(
                    np.random.Philox(
                        key=np.array([key0, key1], dtype=np.uint64),
                        counter=[block, 0, 0, 0],
                    ).random_raw(offset + 1)[offset]
                )
            )
        assert lane_words(keys0, keys1, index).tolist() == expected

    @pytest.mark.parametrize("lanes", [3, 64])
    def test_blocks_hold_four_consecutive_draws(self, lanes):
        key = stream_key(9, "golden")
        blocks = np.arange(lanes, dtype=np.uint64) * 7
        rows = lane_block_uniforms(
            np.full(lanes, key[0], dtype=np.uint64),
            np.full(lanes, key[1], dtype=np.uint64),
            blocks,
        )
        coins = PhiloxCoins(9, "golden")
        for lane, block in enumerate(blocks.tolist()):
            assert rows[:, lane].tolist() == [
                coins.uniform(4 * block + j) for j in range(4)
            ]

    def test_reproduces_the_golden_draws(self, golden):
        def lanes(label: str, indices: list[int]) -> np.ndarray:
            key = stream_key(9, label)
            return lane_uniforms(
                np.full(len(indices), key[0], dtype=np.uint64),
                np.full(len(indices), key[1], dtype=np.uint64),
                np.array(indices, dtype=np.uint64),
            )

        assert {
            "block_0_8": [repr(u) for u in lanes("golden", list(range(8)))],
            "index_1000": repr(float(lanes("golden", [1000])[0])),
            "index_2**40": repr(float(lanes("golden", [2**40])[0])),
            "other_label_0_4": [
                repr(u) for u in lanes("golden.other", list(range(4)))
            ],
        } == golden["philox"]


def _default_rng_words(seeds, count: int) -> list:
    """The uniforms' bit patterns, from one freshly seeded
    ``default_rng`` per seed."""
    return [
        np.random.default_rng(seed).random(count).view(np.uint64).tolist()
        for seed in seeds
    ]


class TestSeededUniforms:
    """The lane-wise SeedSequence + PCG64 behind the p-stable variate
    table returns the words of one ``default_rng`` per seed."""

    EDGES = [0, 1, 2**31 - 1, 2**32 - 1]

    @pytest.mark.parametrize("count", [1, 2, 40, 800])
    def test_edge_seeds_match_default_rng(self, count):
        expected = _default_rng_words(self.EDGES, count)
        got = seeded_uniforms(self.EDGES, count)
        assert got.shape == (len(self.EDGES), count)
        assert got.view(np.uint64).tolist() == expected
        # One lane per call: the scalar path's batch.
        assert [
            seeded_uniforms([seed], count).view(np.uint64).tolist()[0]
            for seed in self.EDGES
        ] == expected

    @pytest.mark.parametrize("count", [1, 2, 40, 800])
    def test_wide_batches_match_default_rng(self, count):
        seeds = np.random.default_rng(count).integers(
            0, 2**32, 600, dtype=np.uint64
        )
        seeds[:4] = self.EDGES
        got = seeded_uniforms(seeds, count)
        assert got.view(np.uint64).tolist() == _default_rng_words(
            seeds.tolist(), count
        )

    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12),
        st.sampled_from([1, 2, 40, 800]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_seeds_match_default_rng(self, seeds, count):
        assert seeded_uniforms(seeds, count).view(
            np.uint64
        ).tolist() == _default_rng_words(seeds, count)

    def test_no_seeds_no_rows(self):
        assert seeded_uniforms([], 40).shape == (0, 40)

    @pytest.mark.parametrize("bad", [-1, -(2**40), 2**32, 2**63, 2**64])
    def test_seeds_outside_32_bits_raise(self, bad):
        # SeedSequence rejects negative seeds and hashes larger ones as
        # two or more words.
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            seeded_uniforms([5, bad, 7], 40)


class TestProtocolPlumbing:
    """One coin path: nothing forwards a protocol any more."""

    def test_one_declaration_names_the_coin_families(self):
        drawing = {
            name for name in registry.names()
            if registry.spec(name).cls.draws_coins
        }
        assert drawing == set(COIN_FAMILIES)

    @pytest.mark.parametrize(
        "callable_",
        [
            registry.create,
            ShardedRunner.from_registry,
            LiveEngine,
            shard_scaling,
            *(registry.spec(name).cls for name in COIN_FAMILIES),
        ],
        ids=lambda callable_: callable_.__qualname__,
    )
    def test_nothing_takes_a_coin_protocol(self, callable_):
        assert "coin_protocol" not in inspect.signature(callable_).parameters

    @pytest.mark.parametrize("cls", [SampleAndHold, ReservoirSampler])
    def test_no_caller_supplied_rng(self, cls):
        assert "rng" not in inspect.signature(cls).parameters

    @pytest.mark.parametrize("name", ["heavy-hitters", "pstable-fp", "entropy"])
    def test_engine_accepts_v2(self, name):
        def run(**coin):
            engine = Engine(name, n=N, m=M, epsilon=0.5, seed=4, **coin)
            report = engine.run(ARR.copy())
            return report.audit, repr(report.answers)

        assert run(coin_protocol="v2") == run()

    @pytest.mark.parametrize("name", COIN_FAMILIES)
    def test_engine_rejects_v1(self, name):
        with pytest.raises(ValueError, match="v1 was retired"):
            Engine(name, coin_protocol="v1")

    def test_engine_rejects_coin_free_families(self):
        with pytest.raises(ValueError, match="no coin protocol"):
            Engine("count-min", coin_protocol="v2")


class TestLegacySnapshots:
    """The snapshot tag and the retirement of untagged / v1 snapshots."""

    @pytest.mark.parametrize("tag", [None, "v1"])
    @pytest.mark.parametrize("name", SERIALIZABLE)
    def test_untagged_and_v1_snapshots_raise(self, name, tag):
        # A snapshot without the tag predates it, so it ran on v1.
        sketch = registry.create(name, n=N, m=M, epsilon=0.3, seed=9)
        sketch.process_many(ARR[:100].tolist())
        legacy = json.loads(json.dumps(sketch.to_state()))
        if tag is None:
            del legacy["config"]["coin_protocol"]
        else:
            legacy["config"]["coin_protocol"] = tag
        with pytest.raises(ValueError, match="v1 was retired"):
            type(sketch).from_state(legacy)

    def test_untagged_checkpoint_raises_on_load(self, tmp_path):
        sketch = registry.create("pstable-fp", n=N, m=M, seed=9)
        sketch.process_many(ARR[:100].tolist())
        path = tmp_path / "legacy.json"
        Checkpoint.save(path, sketch)
        state = json.loads(path.read_text())
        del state["config"]["coin_protocol"]
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="v1 was retired"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("name", SERIALIZABLE)
    def test_committed_v2_snapshot_restores_and_resumes(self, name):
        committed = json.loads(SNAPSHOT_PATH.read_text())[name]
        sketch = registry.create(name, n=N, m=M, epsilon=0.3, seed=9)
        sketch.process_many(ARR[:100].tolist())
        # A snapshot written today is byte-identical to the committed one.
        assert json.dumps(sketch.to_state()) == json.dumps(committed)
        restored = type(sketch).from_state(committed)
        restored.process_chunk(ARR[100:])
        sketch.process_many(ARR[100:].tolist())
        assert json.dumps(restored.to_state()) == json.dumps(
            sketch.to_state()
        )

    @pytest.mark.parametrize("name", ["count-min-morris", "pstable-fp"])
    def test_v2_snapshots_round_trip(self, name):
        sketch = registry.create(name, n=N, m=M, epsilon=0.3, seed=9)
        sketch.process_many(ARR[:100].tolist())
        restored = type(sketch).from_state(
            json.loads(json.dumps(sketch.to_state()))
        )
        restored.process_many(ARR[100:].tolist())
        sketch.process_many(ARR[100:].tolist())
        assert json.dumps(
            restored.to_state(), sort_keys=True
        ) == json.dumps(sketch.to_state(), sort_keys=True)
