"""Coin-protocol contract tests: golden fixtures and plumbing.

Two things are frozen against committed JSON (``tests/data/golden_v1.json``):

* **v1 run fingerprints** for the five randomized families.  v1 draws
  its coins from a shared sequential ``random.Random``, so any change
  to construction order, draw order, or seeding silently corrupts
  every pre-v2 snapshot on restore.  These fingerprints pin the exact
  sequences.
* **Raw v2 Philox draws.**  Under v2 every coin is a pure function of
  ``(seed, stream label, index)``; the sampled values must never
  change, or v2 snapshots (which store no RNG state at all) break.

Regenerate — only after an *intentional* protocol change — with::

    PYTHONPATH=src python -c \
        "import tests.test_coin_protocol as t; t.regenerate()"

The rest of the module covers the ``coin_protocol`` plumbing through
the registry, the sharded runtime, the Engine, and legacy-snapshot
restore.
"""

import hashlib
import json
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import registry
from repro.api import Engine
from repro.hashing import coins as coins_module
from repro.hashing.coins import PhiloxCoins, stream_key
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
from repro.state.tracker import make_tracker
from repro.streams.generators import _zipf_draws

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_v1.json"

N, M = 64, 240
ARR = _zipf_draws(N, M, 1.1, 5)

#: The five randomized families (the coin-protocol-aware composites —
#: heavy-hitters, adaptive — ride on these).
FAMILIES = (
    "count-min-morris",
    "entropy",
    "pstable-fp",
    "reservoir",
    "sample-and-hold",
)

_QUERY_FOR_KIND = {
    QueryKind.POINT: lambda: PointQuery(1),
    QueryKind.ALL_ESTIMATES: AllEstimates,
    QueryKind.HEAVY_HITTERS: HeavyHitters,
    QueryKind.MOMENT: Moment,
    QueryKind.DISTINCT: Distinct,
    QueryKind.ENTROPY: Entropy,
}


def _family_fingerprint(name: str) -> dict:
    """JSON-stable observables of one v1 run on the pinned stream."""
    sketch = registry.create(
        name, n=N, m=M, epsilon=0.3, seed=9,
        tracker=make_tracker("trace"), coin_protocol="v1",
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
    """Raw v2 coin draws: pure functions of (seed, label, index)."""
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
        "v1": {name: _family_fingerprint(name) for name in FAMILIES},
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
    @pytest.mark.parametrize("name", FAMILIES)
    def test_v1_sequences_are_frozen(self, golden, name):
        assert _family_fingerprint(name) == golden["v1"][name]

    def test_philox_draws_are_frozen(self, golden):
        assert _philox_samples() == golden["philox"]

    def test_philox_block_matches_single_draws(self):
        coins = PhiloxCoins(9, "golden")
        block = coins.uniform_block(123, 40)
        assert [coins.uniform(123 + i) for i in range(40)] == list(block)


def _reference_uniforms(start: int, count: int) -> list[float]:
    """One ``_raw`` block from a fresh stream: no read-ahead involved."""
    words = PhiloxCoins(9, "golden")._raw(start, count)
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
        assert PhiloxCoins(9, "golden")._raw(start, 11).tolist() == (
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


class TestProtocolPlumbing:
    def test_registry_rejects_coin_free_families(self):
        with pytest.raises(ValueError, match="no coin protocol"):
            registry.create("count-min", coin_protocol="v2")

    def test_registry_aware_set_matches_class_capability(self):
        for name in registry.COIN_PROTOCOL_AWARE:
            sketch = registry.create(
                name, n=N, m=M, epsilon=0.5, seed=1, coin_protocol="v1"
            )
            assert sketch.coin_protocol == "v1"

    def test_engine_rejects_coin_free_families(self):
        with pytest.raises(ValueError, match="no coin protocol"):
            Engine("count-min", coin_protocol="v2")

    def test_engine_forwards_protocol_to_shards(self):
        def run(proto):
            engine = Engine(
                "pstable-fp", n=N, m=M, epsilon=0.5, seed=4,
                shards=2, coin_protocol=proto,
            )
            report = engine.run(ARR.copy(), queries=[Moment()])
            return report.audit, repr(report.answers)

        assert run("v1") != run("v2")
        assert run("v2") == run("v2")  # deterministic end to end

    def test_sharded_runner_forwards_protocol(self):
        runner = ShardedRunner.from_registry(
            "pstable-fp", 2, n=N, m=M, seed=3, coin_protocol="v1"
        )
        assert all(s.coin_protocol == "v1" for s in runner.shards)

    def test_composites_forward_protocol(self):
        for name in ("heavy-hitters", "adaptive-sample-and-hold"):
            sketch = registry.create(
                name, n=N, m=M, epsilon=0.8, seed=2, coin_protocol="v1"
            )
            assert sketch.coin_protocol == "v1"


class TestLegacySnapshots:
    # reservoir is coin-protocol aware but has no serialization
    # hooks, so only the two serializable families restore snapshots.
    @pytest.mark.parametrize("name", ["count-min-morris", "pstable-fp"])
    def test_pre_v2_snapshots_restore_as_v1(self, name):
        # Snapshots written before the protocol switch carry no
        # "coin_protocol" config key; splicing their sequential-RNG
        # history onto v2 coins would corrupt the run, so restore
        # must pin them to v1.
        sketch = registry.create(
            name, n=N, m=M, epsilon=0.3, seed=9, coin_protocol="v1"
        )
        sketch.process_many(ARR[:100].tolist())
        state = sketch.to_state()
        assert state["config"]["coin_protocol"] == "v1"
        legacy = json.loads(json.dumps(state))
        del legacy["config"]["coin_protocol"]
        restored = type(sketch).from_state(legacy)
        assert restored.coin_protocol == "v1"
        restored.process_many(ARR[100:].tolist())
        sketch.process_many(ARR[100:].tolist())
        assert json.dumps(
            restored.to_state()["payload"], sort_keys=True
        ) == json.dumps(sketch.to_state()["payload"], sort_keys=True)

    @pytest.mark.parametrize("name", ["count-min-morris", "pstable-fp"])
    def test_v2_snapshots_round_trip(self, name):
        sketch = registry.create(
            name, n=N, m=M, epsilon=0.3, seed=9, coin_protocol="v2"
        )
        sketch.process_many(ARR[:100].tolist())
        restored = type(sketch).from_state(
            json.loads(json.dumps(sketch.to_state()))
        )
        assert restored.coin_protocol == "v2"
        restored.process_many(ARR[100:].tolist())
        sketch.process_many(ARR[100:].tolist())
        assert json.dumps(
            restored.to_state(), sort_keys=True
        ) == json.dumps(sketch.to_state(), sort_keys=True)
