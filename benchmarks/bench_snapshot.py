"""Snapshot refresh: memoized incremental merge tree vs a reference
rebuild.

The incremental snapshot plane's promise is that a refresh costs what
*changed*, not what *exists*: with ``k`` of ``S`` shards dirty since
the last cut, the memoized merge tree re-clones ``k`` leaves and
re-merges ``O(k log S)`` nodes instead of copying and reducing all
``S`` shards.  This benchmark measures that promise in its sweet spot
— a heavy pre-ingested state, then repeated refreshes with exactly
one dirty shard — against :func:`reference_rebuild`, the same oracle
the snapshot tests use (a ``from_state(to_state())`` round trip of
every shard, reduced from scratch).  It records the refresh latency
distribution (p50 / p99) of both arms plus their speedup, **gated at
>= 3x**.  Bit-identity between the two arms is asserted on every
single refresh; a fast wrong snapshot counts for nothing.

Setting ``REPRO_BENCH_QUICK=1`` shrinks the stream (used by the CI
benchmark job); the ``BENCH_snapshot_refresh.json`` trend file is
committed to the repo so the trajectory is visible in-tree.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro.runtime.sharded import ShardedRunner
from repro.state.algorithm import Sketch
from repro.streams import zipf_stream


def _quick(m: int, floor: int = 40_000) -> int:
    """Shrink a stream length when REPRO_BENCH_QUICK is set."""
    if os.environ.get("REPRO_BENCH_QUICK"):
        return max(floor, m // 10)
    return m


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def _timing_row(samples_s: list[float]) -> dict:
    """p50/p99/mean/max of a latency sample list, in milliseconds."""
    ms = [s * 1000.0 for s in samples_s]
    return {
        "p50_ms": _percentile(ms, 50),
        "p99_ms": _percentile(ms, 99),
        "mean_ms": float(np.mean(ms)),
        "max_ms": max(ms),
        "samples": len(ms),
    }


def reference_rebuild(runner: ShardedRunner) -> Sketch:
    """Copy every shard through ``from_state(to_state())`` and reduce
    the copies with the pairwise merge tree (odd node carried up
    unmerged) — no clones, no caches; mirrors the oracle in
    ``tests/test_snapshot_plane.py``."""
    level = [
        type(shard).from_state(shard.to_state()) for shard in runner.shards
    ]
    while len(level) > 1:
        paired = [
            level[i].merge(level[i + 1]) for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def run_refresh_speedup(
    m: int = 400_000,
    n: int = 4096,
    epsilon: float = 0.05,
    skew: float = 1.2,
    seed: int = 0,
    shards: int = 8,
    rounds: int = 25,
    sketch: str = "count-min",
) -> dict:
    """Refresh latency with 1-of-``shards`` dirty, both arms.

    One runner pre-ingests the stream and takes a warm-up snapshot.
    Each round then appends a small batch routed entirely to **one**
    shard (items filtered by the runner's own partition hash) and
    times ``merged_snapshot()`` (incremental) and
    :func:`reference_rebuild` (reference) over the same shards; the
    two snapshots' serialized states are compared bit for bit every
    round.
    """
    stream = zipf_stream(n, m, skew=skew, seed=seed)
    runner = ShardedRunner.from_registry(
        sketch, shards, n=n, m=m, epsilon=epsilon, seed=seed
    )
    runner.ingest(stream)
    runner.merged_snapshot()  # warm the caches
    reference_rebuild(runner)  # and the reference's code paths

    # Items that all route to one shard: the per-round dirty set.
    target = runner.shard_of(0)
    dirty_pool = np.asarray(
        [item for item in range(n) if runner.shard_of(item) == target],
        dtype=np.int64,
    )[:64]

    arms = {"incremental": runner.merged_snapshot,
            "reference": lambda: reference_rebuild(runner)}
    times: dict[str, list[float]] = {arm: [] for arm in arms}
    identical = True
    for _ in range(rounds):
        runner.ingest(dirty_pool)
        states = {}
        for arm, snapshot in arms.items():
            started = time.perf_counter()
            merged = snapshot()
            times[arm].append(time.perf_counter() - started)
            states[arm] = json.dumps(merged.to_state(), sort_keys=True)
        identical = identical and (
            states["incremental"] == states["reference"]
        )

    speedup_p50 = _percentile(times["reference"], 50) / max(
        _percentile(times["incremental"], 50), 1e-9
    )
    speedup_mean = float(
        np.mean(times["reference"])
        / max(np.mean(times["incremental"]), 1e-9)
    )
    return {
        "benchmark": "snapshot-refresh",
        "sketch": sketch,
        "stream": {"n": n, "m": m, "skew": skew, "seed": seed},
        "shards": shards,
        "rounds": rounds,
        "dirty_shards_per_round": 1,
        "refresh": {
            arm: _timing_row(samples) for arm, samples in times.items()
        },
        "snapshot_stats": runner.snapshot_stats(),
        "speedup_p50": speedup_p50,
        "speedup_mean": speedup_mean,
        "bit_identical": identical,
    }


def format_snapshot_refresh(payload: dict) -> str:
    """Render the refresh measurements as an aligned text table."""
    lines = [
        f"Snapshot refresh — memoized incremental vs reference rebuild "
        f"({payload['sketch']}, {payload['shards']} shards, "
        f"{payload['dirty_shards_per_round']} dirty per round)",
        f"{'arm':>14}{'p50 ms':>10}{'p99 ms':>10}{'mean ms':>10}"
        f"{'max ms':>10}",
    ]
    for arm, row in payload["refresh"].items():
        lines.append(
            f"{arm:>14}{row['p50_ms']:>10.3f}{row['p99_ms']:>10.3f}"
            f"{row['mean_ms']:>10.3f}{row['max_ms']:>10.3f}"
        )
    lines.append(
        f"speedup: p50 {payload['speedup_p50']:.1f}x, "
        f"mean {payload['speedup_mean']:.1f}x "
        f"(bit-identical: {payload['bit_identical']})"
    )
    return "\n".join(lines)


def test_snapshot_refresh(save_result):
    payload = run_refresh_speedup(m=_quick(400_000))
    save_result(
        "BENCH_snapshot_refresh_table", format_snapshot_refresh(payload)
    )
    results_path = (
        pathlib.Path(__file__).parent
        / "results"
        / "BENCH_snapshot_refresh.json"
    )
    results_path.write_text(json.dumps(payload, indent=2) + "\n")
    # Bit-identity is unconditional: the incremental plane must match
    # the reference rebuild on every refresh, in quick mode too.
    assert payload["bit_identical"], payload
    # With 1 of S shards dirty the memoized tree re-merges one root
    # path instead of rebuilding everything — the refresh must be at
    # least 3x faster at the median.
    assert payload["speedup_p50"] >= 3.0, payload["refresh"]
    # The memoization must actually be memoizing: per round, one leaf
    # cloned and log2(shards) nodes rebuilt, the rest served cached.
    stats = payload["snapshot_stats"]
    assert stats["leaves_reused"] > 0 and stats["nodes_reused"] > 0, stats


if __name__ == "__main__":
    print(format_snapshot_refresh(run_refresh_speedup()))
