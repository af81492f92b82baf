"""Ingestion throughput: single-item ``process`` vs batched
``process_many``, the aggregate vs trace accounting backends, and
serial vs process-pool sharded execution.

The batched path keeps the paper's clock discipline (one tracker tick
per item) but hoists the per-item attribute lookups out of the hot
loop; this benchmark measures the resulting items/sec on both paths and
writes a ``BENCH_throughput.json``-compatible dict to
``benchmarks/results/``.

The backend section ingests the identical Zipf stream on the
``TraceBackend`` (per-cell histogram + listener dispatch, the
historical default) and the ``AggregateBackend`` (scalar counters
only, the runtime's fast-path default), asserting that every backend —
including an unlimited ``BudgetBackend`` — reports the identical
state-change audit while the aggregate path clears a >= 1.5x geometric-
mean ingest speedup across the representative families.

The randomized section times the vectorized kernels (index-addressable
Philox coins + geometric skip-sampling) against the scalar per-coin
loop for the randomized families, asserting the
protocol's bit-identity contract and a >= 3x geometric-mean speedup;
its ``BENCH_randomized_throughput.json`` trend file is committed to
the repo so the trajectory is visible in-tree.

The sharded section runs the same 1M-update Zipf stream through
``ShardedRunner`` with ``executor="serial"`` and ``executor="process"``
and verifies the executor contract while timing it: byte-identical
merged state, identical per-shard audits, and shard state-change
totals summing to the serial audit.  The wall-clock speedup scales
with the machine — the >= 2x assertion applies on hosts with at least
as many cores as shards (a single-core container cannot parallelize
CPU-bound work, so there the bench asserts only bounded overhead).

The parallel-pipeline section runs the same chunked stream through both
executors — serial and the pipelined shared-memory process pool —
asserts their bit-identity (merged state, per-shard audits,
point-query answers) unconditionally, bounds the pipelined pool's
overhead against serial, and records pipelined ÷ serial throughput.
The results are committed as
``benchmarks/results/BENCH_parallel_pipeline.json``.

Setting ``REPRO_BENCH_QUICK=1`` shrinks the stream sizes (used by the
scheduled CI benchmark job, which uploads the ``BENCH_*.json`` results
as artifacts so the perf trajectory accumulates).
"""

from __future__ import annotations

import json
import math
import os
import time

from repro import registry
from repro.runtime.sharded import ShardedRunner
from repro.state import make_tracker
from repro.streams import zipf_stream

#: Representative sketch families (array-, dict-, and counter-backed).
SKETCHES = ("count-min", "misra-gries", "space-saving", "kmv", "exact")

#: Families with fully/mostly vectorized chunk kernels — the ones the
#: chunked-vs-scalar speedup gate applies to.
VECTORIZED_SKETCHES = ("count-min", "count-sketch", "kmv", "exact")

#: Families whose chunk kernel is a candidate-filter pre-pass (bulk
#: only over tracked-item segments) — reported, not gated: their gain
#: depends on how often the tracked set churns under the workload.
PREPASS_SKETCHES = ("misra-gries", "space-saving")

#: The randomized families with vectorized kernels (index-addressable
#: Philox coins + geometric skip-sampling).  The
#: >= 3x geomean gate applies across the set.  The sample-and-hold
#: stack (sample-and-hold, heavy-hitters, adaptive-sample-and-hold)
#: gains least: every admission and prune still settles one by one,
#: and only the arrivals of items already held absorb in bulk.
RANDOMIZED_SKETCHES = (
    "count-min-morris",
    "pstable-fp",
    "reservoir",
    "sample-and-hold",
    "adaptive-sample-and-hold",
    "heavy-hitters",
    "entropy",
)

#: Aggregate audit fields every backend must agree on exactly.
_AUDIT_FIELDS = (
    "stream_length",
    "state_changes",
    "total_writes",
    "total_write_attempts",
    "peak_words",
    "current_words",
)


def _quick(m: int, floor: int = 10_000) -> int:
    """Shrink a stream length when REPRO_BENCH_QUICK is set."""
    if os.environ.get("REPRO_BENCH_QUICK"):
        return max(floor, m // 10)
    return m


def run_throughput(
    m: int = 50_000,
    n: int = 4096,
    epsilon: float = 0.1,
    skew: float = 1.2,
    seed: int = 0,
    repeats: int = 3,
    sketches: tuple[str, ...] = SKETCHES,
) -> dict:
    """Measure items/sec for both ingestion paths on each sketch.

    Both paths ingest the identical stream into identically-seeded
    fresh instances, so the work per item is the same and the delta is
    pure Python dispatch overhead.  Each arm takes the best of
    ``repeats`` timing passes, so a background-load hiccup on one pass
    cannot masquerade as a dispatch regression.
    """
    stream = zipf_stream(n, m, skew=skew, seed=seed)
    results: dict[str, dict[str, float]] = {}
    for name in sketches:
        single_seconds = float("inf")
        batched_seconds = float("inf")
        for _ in range(repeats):
            single = registry.create(
                name, n=n, m=m, epsilon=epsilon, seed=seed
            )
            start = time.perf_counter()
            for item in stream:
                single.process(item)
            single_seconds = min(
                single_seconds, time.perf_counter() - start
            )

            batched = registry.create(
                name, n=n, m=m, epsilon=epsilon, seed=seed
            )
            start = time.perf_counter()
            batched.process_many(stream)
            batched_seconds = min(
                batched_seconds, time.perf_counter() - start
            )
            assert batched.items_processed == single.items_processed == m
        results[name] = {
            "items": m,
            "single_items_per_sec": m / single_seconds,
            "batched_items_per_sec": m / batched_seconds,
            "batched_speedup": single_seconds / batched_seconds,
        }
    return {
        "benchmark": "throughput",
        "stream": {"n": n, "m": m, "skew": skew, "seed": seed},
        "results": results,
    }


def format_throughput(payload: dict) -> str:
    """Render the throughput dict as an aligned text table."""
    lines = [
        "Ingestion throughput — process() vs process_many()",
        f"{'sketch':>16}{'single it/s':>14}{'batched it/s':>14}"
        f"{'speedup':>9}",
    ]
    for name, row in payload["results"].items():
        lines.append(
            f"{name:>16}{row['single_items_per_sec']:>14.0f}"
            f"{row['batched_items_per_sec']:>14.0f}"
            f"{row['batched_speedup']:>9.2f}"
        )
    return "\n".join(lines)


def run_backend_throughput(
    m: int = 50_000,
    n: int = 4096,
    epsilon: float = 0.1,
    skew: float = 1.2,
    seed: int = 0,
    repeats: int = 3,
    sketches: tuple[str, ...] = SKETCHES,
) -> dict:
    """Trace vs aggregate (vs unlimited-budget) backend ingest.

    Every backend ingests the identical Zipf stream into identically-
    seeded fresh instances through ``process_many``; the per-item work
    is the same, so the delta is pure accounting overhead.  Alongside
    the timings the run cross-checks the compatibility contract: all
    three backends must report the identical state-change audit.
    """
    stream = zipf_stream(n, m, skew=skew, seed=seed)
    results: dict[str, dict[str, float]] = {}
    audits_identical = True
    for name in sketches:
        seconds: dict[str, float] = {}
        audits: dict[str, tuple] = {}
        for mode in ("trace", "aggregate", "budget"):
            best = float("inf")
            for _ in range(repeats):
                sketch = registry.create(
                    name,
                    n=n,
                    m=m,
                    epsilon=epsilon,
                    seed=seed,
                    tracker=make_tracker(mode),
                )
                start = time.perf_counter()
                sketch.process_many(stream)
                best = min(best, time.perf_counter() - start)
            seconds[mode] = best
            report = sketch.report()
            audits[mode] = tuple(
                getattr(report, field) for field in _AUDIT_FIELDS
            )
        if len(set(audits.values())) != 1:
            audits_identical = False
        results[name] = {
            "trace_items_per_sec": m / seconds["trace"],
            "aggregate_items_per_sec": m / seconds["aggregate"],
            "budget_items_per_sec": m / seconds["budget"],
            "aggregate_speedup": seconds["trace"] / seconds["aggregate"],
        }
    speedups = [row["aggregate_speedup"] for row in results.values()]
    return {
        "benchmark": "backend-throughput",
        "stream": {"n": n, "m": m, "skew": skew, "seed": seed},
        "results": results,
        "geomean_aggregate_speedup": math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        ),
        "identical_audits": audits_identical,
    }


def format_backend_throughput(payload: dict) -> str:
    """Render the backend comparison as an aligned text table."""
    lines = [
        "Accounting backends — TraceBackend vs AggregateBackend "
        "ingest (zipf)",
        f"{'sketch':>16}{'trace it/s':>13}{'aggregate it/s':>16}"
        f"{'budget it/s':>13}{'speedup':>9}",
    ]
    for name, row in payload["results"].items():
        lines.append(
            f"{name:>16}{row['trace_items_per_sec']:>13.0f}"
            f"{row['aggregate_items_per_sec']:>16.0f}"
            f"{row['budget_items_per_sec']:>13.0f}"
            f"{row['aggregate_speedup']:>9.2f}"
        )
    lines.append(
        f"geometric-mean aggregate speedup: "
        f"{payload['geomean_aggregate_speedup']:.2f}x "
        f"(identical audits: {payload['identical_audits']})"
    )
    return "\n".join(lines)


def run_chunked_throughput(
    m: int = 100_000,
    n: int = 4096,
    epsilon: float = 0.1,
    skew: float = 1.2,
    seed: int = 0,
    repeats: int = 3,
    chunk_size: int = 8192,
    sketches: tuple[str, ...] = VECTORIZED_SKETCHES + PREPASS_SKETCHES,
) -> dict:
    """Columnar ``process_chunk`` vs scalar ``process_many`` ingest.

    Both arms ingest the identical Zipf stream into identically-seeded
    fresh instances on the aggregate backend; the scalar arm consumes
    the ``list[int]`` materialization, the chunked arm the ``int64``
    chunks.  Alongside the timings the run cross-checks the data-plane
    contract: both arms must produce bit-identical serialized states
    (payload *and* audit).  The geometric-mean speedup over the
    vectorized deterministic families is the tentpole's perf gate.
    """
    stream = zipf_stream(n, m, skew=skew, seed=seed)
    items = stream.materialize()
    results: dict[str, dict[str, float]] = {}
    states_identical = True
    for name in sketches:
        scalar_seconds = float("inf")
        chunked_seconds = float("inf")
        for _ in range(repeats):
            scalar = registry.create(
                name, n=n, m=m, epsilon=epsilon, seed=seed,
                tracker=make_tracker("aggregate"),
            )
            start = time.perf_counter()
            scalar.process_many(items)
            scalar_seconds = min(
                scalar_seconds, time.perf_counter() - start
            )

            chunked = registry.create(
                name, n=n, m=m, epsilon=epsilon, seed=seed,
                tracker=make_tracker("aggregate"),
            )
            start = time.perf_counter()
            for chunk in stream.chunks(chunk_size):
                chunked.process_chunk(chunk)
            chunked_seconds = min(
                chunked_seconds, time.perf_counter() - start
            )
            assert chunked.items_processed == scalar.items_processed == m
        if json.dumps(scalar.to_state(), sort_keys=True) != json.dumps(
            chunked.to_state(), sort_keys=True
        ):
            states_identical = False
        results[name] = {
            "items": m,
            "vectorized": name in VECTORIZED_SKETCHES,
            "scalar_items_per_sec": m / scalar_seconds,
            "chunked_items_per_sec": m / chunked_seconds,
            "chunked_speedup": scalar_seconds / chunked_seconds,
        }
    gated = [
        row["chunked_speedup"]
        for name, row in results.items()
        if name in VECTORIZED_SKETCHES
    ]
    return {
        "benchmark": "chunked-throughput",
        "stream": {"n": n, "m": m, "skew": skew, "seed": seed},
        "chunk_size": chunk_size,
        "results": results,
        "geomean_vectorized_speedup": math.exp(
            sum(math.log(s) for s in gated) / len(gated)
        ),
        "identical_states": states_identical,
    }


def format_chunked_throughput(payload: dict) -> str:
    """Render the chunked comparison as an aligned text table."""
    lines = [
        f"Columnar ingest — process_chunk vs process_many "
        f"(zipf, chunk_size={payload['chunk_size']})",
        f"{'sketch':>16}{'scalar it/s':>14}{'chunked it/s':>15}"
        f"{'speedup':>9}{'kernel':>10}",
    ]
    for name, row in payload["results"].items():
        kernel = "vector" if row["vectorized"] else "pre-pass"
        lines.append(
            f"{name:>16}{row['scalar_items_per_sec']:>14.0f}"
            f"{row['chunked_items_per_sec']:>15.0f}"
            f"{row['chunked_speedup']:>9.2f}{kernel:>10}"
        )
    lines.append(
        f"geometric-mean vectorized speedup: "
        f"{payload['geomean_vectorized_speedup']:.2f}x "
        f"(identical states: {payload['identical_states']})"
    )
    return "\n".join(lines)


def _run_fingerprint(sketch) -> tuple:
    """Bit-identity observables of one finished run.

    The audit fields cover every family; the serialized state rides
    along for the families that define serialization hooks.
    """
    report = sketch.report()
    fields = tuple(getattr(report, field) for field in _AUDIT_FIELDS)
    try:
        payload = json.dumps(sketch.to_state(), sort_keys=True)
    except TypeError:  # family without serialization hooks
        payload = None
    return fields + (payload,)


def run_randomized_throughput(
    m: int = 50_000,
    n: int = 4096,
    epsilon: float = 0.5,
    skew: float = 1.2,
    seed: int = 0,
    repeats: int = 2,
    chunk_size: int = 8192,
    sketches: tuple[str, ...] = RANDOMIZED_SKETCHES,
) -> dict:
    """Chunked vs scalar ingest for the randomized families.

    Both arms run on the aggregate backend: the scalar arm draws each coin one index at a time
    through ``process_many``, the chunked arm runs the vectorized
    kernels (Philox block draws + geometric skip-sampling) through
    ``process_chunk``.  Alongside the timings the run cross-checks the
    protocol's core promise — chunked ≡ scalar bit for bit (audit
    fields, plus serialized state where the family defines it).
    """
    stream = zipf_stream(n, m, skew=skew, seed=seed)
    items = stream.materialize()
    results: dict[str, dict[str, float]] = {}
    identical = True
    for name in sketches:
        scalar_seconds = float("inf")
        chunked_seconds = float("inf")
        for _ in range(repeats):
            scalar = registry.create(
                name, n=n, m=m, epsilon=epsilon, seed=seed,
                tracker=make_tracker("aggregate"),
            )
            start = time.perf_counter()
            scalar.process_many(items)
            scalar_seconds = min(
                scalar_seconds, time.perf_counter() - start
            )

            chunked = registry.create(
                name, n=n, m=m, epsilon=epsilon, seed=seed,
                tracker=make_tracker("aggregate"),
            )
            start = time.perf_counter()
            for chunk in stream.chunks(chunk_size):
                chunked.process_chunk(chunk)
            chunked_seconds = min(
                chunked_seconds, time.perf_counter() - start
            )
            assert chunked.items_processed == scalar.items_processed == m
        family_identical = _run_fingerprint(scalar) == _run_fingerprint(
            chunked
        )
        identical = identical and family_identical
        results[name] = {
            "items": m,
            "scalar_items_per_sec": m / scalar_seconds,
            "chunked_items_per_sec": m / chunked_seconds,
            "chunked_speedup": scalar_seconds / chunked_seconds,
            "identical": family_identical,
        }
    speedups = [row["chunked_speedup"] for row in results.values()]
    return {
        "benchmark": "randomized-throughput",
        "coin_protocol": "v2",
        "stream": {"n": n, "m": m, "skew": skew, "seed": seed},
        "chunk_size": chunk_size,
        "results": results,
        "geomean_chunked_speedup": math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        ),
        "identical_runs": identical,
    }


def format_randomized_throughput(payload: dict) -> str:
    """Render the randomized-family comparison as aligned text."""
    lines = [
        f"Randomized families — v2 chunked vs scalar ingest "
        f"(zipf, chunk_size={payload['chunk_size']})",
        f"{'sketch':>18}{'scalar it/s':>14}{'chunked it/s':>15}"
        f"{'speedup':>9}{'identical':>11}",
    ]
    for name, row in payload["results"].items():
        lines.append(
            f"{name:>18}{row['scalar_items_per_sec']:>14.0f}"
            f"{row['chunked_items_per_sec']:>15.0f}"
            f"{row['chunked_speedup']:>9.2f}"
            f"{str(row['identical']):>11}"
        )
    lines.append(
        f"geometric-mean chunked speedup: "
        f"{payload['geomean_chunked_speedup']:.2f}x "
        f"(identical runs: {payload['identical_runs']})"
    )
    return "\n".join(lines)


def run_sharded_throughput(
    m: int = 1_000_000,
    n: int = 4096,
    shards: int = 4,
    epsilon: float = 0.1,
    skew: float = 1.1,
    seed: int = 0,
    sketch: str = "count-min",
) -> dict:
    """Serial vs process-pool sharded ingestion on one Zipf stream.

    Both runners see the identical stream, routing seed, and sketch
    seeds, so the merged results must agree bit for bit; the dict
    records the throughput of each mode plus the equivalence checks.
    """
    stream = zipf_stream(n, m, skew=skew, seed=seed)

    def run(executor: str):
        runner = ShardedRunner.from_registry(
            sketch, shards, n=n, m=m, epsilon=epsilon, seed=seed,
            executor=executor,
        )
        start = time.perf_counter()
        result = runner.run(stream)
        return result, time.perf_counter() - start

    serial, serial_seconds = run("serial")
    process, process_seconds = run("process")

    identical_state = json.dumps(
        serial.merged.to_state(), sort_keys=True
    ) == json.dumps(process.merged.to_state(), sort_keys=True)
    identical_reports = serial.shard_reports == process.shard_reports
    shard_sum_matches = (
        sum(r.state_changes for r in process.shard_reports)
        == serial.merged_report.state_changes
    )
    return {
        "benchmark": "sharded-throughput",
        "stream": {"n": n, "m": m, "skew": skew, "seed": seed},
        "sketch": sketch,
        "shards": shards,
        "cpu_count": os.cpu_count() or 1,
        "serial_items_per_sec": m / serial_seconds,
        "process_items_per_sec": m / process_seconds,
        "process_speedup": serial_seconds / process_seconds,
        "identical_merged_state": identical_state,
        "identical_shard_reports": identical_reports,
        "shard_sum_matches_serial_audit": shard_sum_matches,
    }


def format_sharded_throughput(payload: dict) -> str:
    """Render the sharded-executor comparison as aligned text."""
    return "\n".join([
        f"Sharded ingestion — serial vs process executor "
        f"({payload['sketch']}, {payload['shards']} shards, "
        f"{payload['cpu_count']} cores)",
        f"{'serial it/s':>14}{'process it/s':>14}{'speedup':>9}"
        f"{'identical':>11}",
        f"{payload['serial_items_per_sec']:>14.0f}"
        f"{payload['process_items_per_sec']:>14.0f}"
        f"{payload['process_speedup']:>9.2f}"
        f"{str(payload['identical_merged_state']):>11}",
    ])


def run_parallel_pipeline(
    m: int = 1_000_000,
    n: int = 4096,
    shards: int = 4,
    epsilon: float = 0.1,
    skew: float = 1.1,
    seed: int = 0,
    sketch: str = "count-min",
    chunk_size: int = 8192,
) -> dict:
    """Pipelined vs serial on one chunked stream.

    Both executors route the identical ``int64`` stream with the
    identical routing hash, so merged states, per-shard audits, and
    query answers must agree bit for bit — that equivalence is recorded
    (and asserted unconditionally by the test).  The timing side
    records each executor's end-to-end throughput (ingest + merge) and
    the pipelined pool's speedup over serial.
    """
    import numpy as np

    from repro.query import PointQuery
    from repro.runtime.parallel import available_cpus
    from repro.streams.chunked import ChunkedStream

    arr = np.asarray(zipf_stream(n, m, skew=skew, seed=seed),
                     dtype=np.int64)
    top_items = [int(v) for v in np.bincount(arr).argsort()[-20:]]

    modes = {
        "serial": "serial",
        "pipelined": "process",
    }
    results = {}
    for mode, executor in modes.items():
        runner = ShardedRunner.from_registry(
            sketch, shards, n=n, m=m, epsilon=epsilon, seed=seed,
            executor=executor, chunk_size=chunk_size,
        )
        start = time.perf_counter()
        runner.ingest(ChunkedStream(arr))  # finishes the pipelined pool
        reports = runner.shard_reports()
        merged = runner.merge()
        total_seconds = time.perf_counter() - start
        results[mode] = {
            "state": json.dumps(merged.to_state(), sort_keys=True),
            "reports": reports,
            "answers": [merged.query(PointQuery(i)) for i in top_items],
            "audit": merged.report(),
            "total_seconds": total_seconds,
        }

    serial = results["serial"]
    identical = {
        mode: (
            row["state"] == serial["state"]
            and row["reports"] == serial["reports"]
            and row["answers"] == serial["answers"]
            and row["audit"] == serial["audit"]
        )
        for mode, row in results.items()
    }
    return {
        "benchmark": "parallel-pipeline",
        "stream": {"n": n, "m": m, "skew": skew, "seed": seed},
        "sketch": sketch,
        "shards": shards,
        "chunk_size": chunk_size,
        "cpu_count": os.cpu_count() or 1,
        "available_cpus": available_cpus(),
        "items_per_sec": {
            mode: m / row["total_seconds"]
            for mode, row in results.items()
        },
        "total_seconds": {
            mode: row["total_seconds"] for mode, row in results.items()
        },
        "pipelined_total_seconds": results["pipelined"]["total_seconds"],
        "pipelined_vs_serial": (
            results["serial"]["total_seconds"]
            / results["pipelined"]["total_seconds"]
        ),
        "identical": identical,
    }


def format_parallel_pipeline(payload: dict) -> str:
    """Render the executor comparison as aligned text."""
    lines = [
        f"Parallel pipeline — {payload['sketch']}, "
        f"{payload['shards']} shards, "
        f"{payload['available_cpus']} usable cpus "
        f"(pipelined ÷ serial throughput "
        f"{payload['pipelined_vs_serial']:.2f}x)",
        f"{'mode':>10}{'items/s':>14}{'total s':>10}{'identical':>11}",
    ]
    for mode, rate in payload["items_per_sec"].items():
        lines.append(
            f"{mode:>10}{rate:>14.0f}"
            f"{payload['total_seconds'][mode]:>10.3f}"
            f"{str(payload['identical'][mode]):>11}"
        )
    return "\n".join(lines)


def test_backend_throughput(save_result):
    payload = run_backend_throughput(m=_quick(50_000))
    save_result(
        "BENCH_backend_throughput_table", format_backend_throughput(payload)
    )
    results_path = (
        __import__("pathlib").Path(__file__).parent
        / "results"
        / "BENCH_backend_throughput.json"
    )
    results_path.write_text(json.dumps(payload, indent=2) + "\n")
    # The compatibility contract is unconditional: every backend
    # reports the identical state-change audit on the identical run.
    assert payload["identical_audits"], payload
    # The aggregate fast path must clear 1.5x over the full-trace
    # backend across the representative families, and must never be
    # slower on any of them.  The perf gates apply to calibrated
    # full-size runs; quick mode (the CI trajectory job) records the
    # numbers without gating on shared-runner jitter.
    if not os.environ.get("REPRO_BENCH_QUICK"):
        assert payload["geomean_aggregate_speedup"] >= 1.5, payload
        for name, row in payload["results"].items():
            assert row["aggregate_speedup"] > 1.0, (name, row)


def test_throughput(save_result):
    payload = run_throughput(m=_quick(30_000))
    save_result("BENCH_throughput_table", format_throughput(payload))
    results_path = (
        __import__("pathlib").Path(__file__).parent
        / "results"
        / "BENCH_throughput.json"
    )
    results_path.write_text(json.dumps(payload, indent=2) + "\n")
    # The batched path must never be meaningfully slower than the
    # single-item path (same per-item work, less dispatch overhead).
    for name, row in payload["results"].items():
        assert row["batched_speedup"] > 0.9, (name, row)


def test_chunked_throughput(save_result):
    payload = run_chunked_throughput(m=_quick(100_000, floor=20_000))
    save_result(
        "BENCH_chunked_throughput_table", format_chunked_throughput(payload)
    )
    results_path = (
        __import__("pathlib").Path(__file__).parent
        / "results"
        / "BENCH_chunked_throughput.json"
    )
    results_path.write_text(json.dumps(payload, indent=2) + "\n")
    # The data-plane contract is unconditional: chunked and scalar
    # ingest produce bit-identical serialized states (payload + audit).
    assert payload["identical_states"], payload
    # The perf gate applies to calibrated full-size runs; quick mode
    # (the CI trajectory job) records the numbers without gating on
    # shared-runner jitter.
    if not os.environ.get("REPRO_BENCH_QUICK"):
        assert payload["geomean_vectorized_speedup"] >= 3.0, payload
        for name, row in payload["results"].items():
            if row["vectorized"]:
                assert row["chunked_speedup"] > 1.0, (name, row)


def test_randomized_throughput(save_result):
    payload = run_randomized_throughput(m=_quick(50_000))
    save_result(
        "BENCH_randomized_throughput_table",
        format_randomized_throughput(payload),
    )
    results_path = (
        __import__("pathlib").Path(__file__).parent
        / "results"
        / "BENCH_randomized_throughput.json"
    )
    results_path.write_text(json.dumps(payload, indent=2) + "\n")
    # The protocol contract is unconditional: v2 chunked and scalar
    # ingest are bit-identical (audits + serialized state).
    assert payload["identical_runs"], payload
    # The perf gate applies to calibrated full-size runs; quick mode
    # (the CI trajectory job) records the numbers without gating on
    # shared-runner jitter.  Each family is also bounded below, so no
    # kernel may fall behind its own scalar reference.
    if not os.environ.get("REPRO_BENCH_QUICK"):
        assert payload["geomean_chunked_speedup"] >= 3.0, payload
        for name, row in payload["results"].items():
            assert row["chunked_speedup"] > 0.9, (name, row)


def test_sharded_executor_throughput(save_result):
    payload = run_sharded_throughput(m=_quick(1_000_000, floor=200_000),
                                     shards=4)
    save_result(
        "BENCH_sharded_throughput_table", format_sharded_throughput(payload)
    )
    results_path = (
        __import__("pathlib").Path(__file__).parent
        / "results"
        / "BENCH_sharded_throughput.json"
    )
    results_path.write_text(json.dumps(payload, indent=2) + "\n")
    # The executor contract is unconditional: same bits, same audits.
    assert payload["identical_merged_state"], payload
    assert payload["identical_shard_reports"], payload
    assert payload["shard_sum_matches_serial_audit"], payload
    # The wall-clock target needs hardware to parallelize on — and a
    # full-size stream to amortize the pool start-up: quick mode (the
    # CI trajectory job) and single-core containers only bound the
    # overhead, the >= 2x gate applies to calibrated full-size runs.
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    if payload["cpu_count"] >= payload["shards"] and not quick:
        assert payload["process_speedup"] >= 2.0, payload
    else:
        assert payload["process_speedup"] > 0.5, payload


def test_parallel_pipeline(save_result):
    payload = run_parallel_pipeline(m=_quick(1_000_000, floor=200_000),
                                    shards=4)
    save_result(
        "BENCH_parallel_pipeline_table", format_parallel_pipeline(payload)
    )
    results_path = (
        __import__("pathlib").Path(__file__).parent
        / "results"
        / "BENCH_parallel_pipeline.json"
    )
    results_path.write_text(json.dumps(payload, indent=2) + "\n")
    # The executor contract is unconditional in every mode: identical
    # merged state, per-shard audits, and point-query answers.
    for mode, same in payload["identical"].items():
        assert same, (mode, payload)
    # Overhead bound: pool start-up, ring hand-off and state restore
    # must not cost the pipelined executor more than 4x serial.
    serial_total = payload["total_seconds"]["serial"]
    assert payload["pipelined_total_seconds"] < 4 * serial_total, payload


if __name__ == "__main__":
    print(format_throughput(run_throughput()))
    print()
    print(format_backend_throughput(run_backend_throughput()))
    print()
    print(format_chunked_throughput(run_chunked_throughput()))
    print()
    print(format_randomized_throughput(run_randomized_throughput()))
    print()
    print(format_sharded_throughput(run_sharded_throughput()))
    print()
    print(format_parallel_pipeline(run_parallel_pipeline()))
