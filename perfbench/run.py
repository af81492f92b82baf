"""End-to-end and per-layer benchmark of the few-state-changes system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-batch --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same fixed work untraced and then traced (span
wrappers from ``tracer.py``) and reports the per-layer metrics plus the
tracing overhead.  Every line before the last is a human-readable table
(metric, value, unit, sample count) and the run's provenance stamp; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``METRICS.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import socket
import sys
import time

import numpy as np

import checks
from common import (
    BENCH_DIR,
    OUT_DIR,
    REFERENCE_S,
    ROOT,
    SRC,
    Segments,
    System,
    calibrate,
    median,
    percentile,
    stamp,
    zipf_items,
)
from tracer import layer_totals, load_spans, self_times
from workloads import (
    BATCH,
    BATCH_ITEMS,
    NAMES,
    POINTS_PER_GROUP,
    SERVE,
)

#: Launches per run that only time set-up (see :func:`setup_times`).
SETUP_PROBES = 9
#: Rounds of fixed work in each pass of a traced batch run.
TRACE_ROUNDS = {"paper-batch": 1, "linear-sharded": 4}
#: Seconds a system process may take to reach READY or to finish.
DEADLINE_S = 170.0
#: Root spans must account for at least this share of traced wall time.
MIN_COVERAGE = 0.9

FAMILIES = ("heavy-hitters", "pstable-fp", "entropy")
OPS = ("append", "query", "query-batch")


def declared() -> dict:
    """``BENCHMARK.json`` of the checkout: the metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class Ledger:
    """Operations attempted and failed, plus every check's verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, count: int, failed: int = 0, why: str = "") -> None:
        self.attempted += count
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {count}: {why}")

    def checked(self, found: list, count: int) -> None:
        """``count`` operations whose output ``found`` checks inspect."""
        bad = [c for c in found if not c.ok]
        why = "; ".join(f"{c.name} ({c.detail})" for c in bad)
        self.ops(count, count if bad else 0, why)


class Metrics:
    """Metric name -> (value, unit, samples), for the metrics that
    ``spec`` (:func:`declared`) declares."""

    def __init__(self, spec: dict) -> None:
        self.units = {
            metric["name"]: metric["unit"]
            for section in ("end_to_end", "per_layer")
            for metric in spec[section]
        }
        self.values: dict[str, tuple[float, str, int]] = {}

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.values[name] = (float(value), self.units[name], int(samples))

    def json(self, names) -> dict:
        return {
            name: {"value": self.values[name][0], "unit": self.values[name][1]}
            for name in names
        }


#: Samples per block of a p99: ten samples lie beyond a block's p99.
P99_BLOCK = 1000


def block_p99(samples_ms: list, block: int = P99_BLOCK) -> float:
    """Median over consecutive blocks of ``block`` samples (in the order
    they were taken) of each block's p99; the p99 of all samples when
    there are fewer.  A burst of interference from the shared machine
    moves a minority of blocks, not the median, while a slower program
    moves every block."""
    blocks = [
        samples_ms[low:low + block]
        for low in range(0, len(samples_ms) - block + 1, block)
    ] or [samples_ms]
    return median([percentile(part, 99) for part in blocks])


def latency(
    metrics: Metrics, prefix: str, samples_ms: list, block: int = P99_BLOCK
) -> None:
    metrics.put(f"{prefix}_p50_ms", median(samples_ms), len(samples_ms))
    metrics.put(
        f"{prefix}_p99_ms", block_p99(samples_ms, block), len(samples_ms)
    )


def inputs_path(workload: str, seed: int) -> str:
    return os.path.join(OUT_DIR, f"inputs-{workload}-{seed}-{os.getpid()}.npz")


def spans_path(workload: str) -> str:
    return os.path.join(OUT_DIR, f"spans-{workload}.jsonl")


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def batch_inputs(workload: str, seed: int) -> dict:
    spec = BATCH[workload]
    rng = np.random.default_rng(seed)
    arrays = {"stream": zipf_items(rng, spec["items"])}
    groups = spec["read_groups"]
    if groups:
        arrays["points"] = zipf_items(
            rng, groups * POINTS_PER_GROUP
        ).reshape(groups, POINTS_PER_GROUP)
        arrays["batches"] = zipf_items(rng, groups * BATCH_ITEMS).reshape(
            groups, BATCH_ITEMS
        )
    return arrays


def system_cpu() -> int:
    """The one CPU every system process is pinned to.

    The calibration kernel only tells the speed of the CPU it runs on,
    and on a shared machine the CPUs' speeds differ from moment to
    moment, so the system runs where the kernel is timed: in the batch
    system process itself, and for set-up by ``run.py`` hopping there.
    On ``serve-mixed`` the client shares the server's CPU too: with one
    connection in a closed loop only one of the two runs at a time, and
    sharing spares each round trip two wake-ups across CPUs, whose cost
    the kernel does not follow.
    """
    return max(os.sched_getaffinity(0))


def setup_times(launch, cpu: int) -> list[float]:
    """Scaled set-up seconds of :data:`SETUP_PROBES` launches.

    ``launch()`` starts the system, waits until it is ready, stops it
    and returns the seconds from start to ready.  Each time is scaled
    by the mean of the calibrations (on CPU ``cpu``) just before and
    just after its launch.
    """
    times = []
    before = calibrate(cpu)
    for _ in range(SETUP_PROBES):
        seconds = launch()
        after = calibrate(cpu)
        times.append(seconds * REFERENCE_S / ((before + after) / 2.0))
        before = after
    return times


def launch_batch(argv: list[str]) -> tuple[System, float]:
    system = System(argv, DEADLINE_S, cpu=system_cpu())
    line = system.readline()
    if not line.startswith("READY"):
        system.kill()
        raise RuntimeError(f"unexpected system output {line!r}")
    return system, time.perf_counter() - system.started


def read_result(system: System) -> dict:
    while True:
        line = system.readline()
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])


def check_batch(workload: str, passed: dict, stream, ledger: Ledger):
    """Verdicts on one pass (every round's runs and reads)."""
    spec = BATCH[workload]
    families = len(spec["families"])
    rounds = passed["rounds"]
    if workload == "paper-batch":
        by_family, error = checks.check_paper(
            passed["first"], stream, spec["epsilon"]
        )
        for found in by_family.values():
            ledger.checked(found, rounds)
    else:
        found, error = checks.check_linear(
            passed["first"], stream, spec["epsilon"]
        )
        ledger.checked(found, rounds)
    ledger.ops(
        len(passed["query_ms"]),
        sum(passed["read_mismatches"]),
        "timed read answer differs from the checked answers",
    )
    drifted = sum(d != passed["digests"][0] for d in passed["digests"])
    ledger.ops(0, drifted * families, "answers or audit differ from round 0")
    return error


def chunk_latencies(spec: dict, passed: dict) -> list[float]:
    """Per-chunk ingest latency.  With several families every chunk
    enters each family's engine in turn, so its latency is the sum over
    the families (samples arrive family by family, round by round)."""
    chunk_ms = passed["chunk_ms"]
    families = len(spec["families"])
    per_run = -(-spec["items"] // spec["chunk"])
    if families == 1:
        return chunk_ms
    return [
        sum(chunk_ms[base + f * per_run + k] for f in range(families))
        for base in range(0, len(chunk_ms), families * per_run)
        for k in range(per_run)
    ]


def batch_e2e(workload: str, passed: dict, metrics: Metrics) -> None:
    spec = BATCH[workload]
    items = spec["items"] * len(spec["families"])
    rates = [items / sum(run_s) for run_s in passed["run_s"]]
    metrics.put("ingest_items_per_s", median(rates), len(rates))
    # A run with fewer chunks than a p99 block takes one round per block:
    # the median over rounds of each round's slowest chunk.
    chunks = chunk_latencies(spec, passed)
    per_round = -(-spec["items"] // spec["chunk"])
    block = P99_BLOCK if len(chunks) >= P99_BLOCK else per_round
    latency(metrics, "append", chunks, block)
    query_s = sum(passed["query_ms"]) / 1e3
    metrics.put(
        "answers_per_s",
        sum(passed["answers"]) / query_s,
        len(passed["query_ms"]),
    )
    audits = [e["audit"] for e in passed["first"].values()]
    metrics.put("state_changes", sum(a["state_changes"] for a in audits))
    metrics.put("peak_words", sum(a["peak_words"] for a in audits))
    latency(metrics, "point", passed["point_ms"])
    latency(metrics, "batch", passed["batch_ms"])


def run_batch(args, metrics: Metrics, ledger: Ledger) -> dict:
    arrays = batch_inputs(args.workload, args.seed)
    path = inputs_path(args.workload, args.seed)
    np.savez(path, **arrays)
    argv = [
        sys.executable,
        os.path.join(BENCH_DIR, "system_batch.py"),
        "--workload", args.workload,
        "--inputs", path,
        "--seed", str(args.seed),
    ]
    extra: dict = {}
    try:
        if not args.trace:

            def launch() -> float:
                system, setup = launch_batch(argv + ["--mode", "setup"])
                system.finish()
                return setup

            setups = setup_times(launch, system_cpu())
        if args.trace:
            spans = spans_path(args.workload)
            if os.path.exists(spans):
                os.remove(spans)
            mode = [
                "--mode", "traced",
                "--rounds", str(TRACE_ROUNDS[args.workload]),
                "--spans", spans,
            ]
        else:
            mode = ["--mode", "timed", "--seconds", str(args.seconds)]
        system, _ = launch_batch(argv + mode)
        try:
            result = read_result(system)
        finally:
            code = system.finish()
        ledger.ops(1, int(code != 0), f"system exit code {code}")
    finally:
        os.remove(path)
    stream = arrays["stream"]
    if not args.trace:
        passed = result["timed"]
        error = check_batch(args.workload, passed, stream, ledger)
        metrics.put("setup_s", median(setups), len(setups))
        batch_e2e(args.workload, passed, metrics)
        metrics.put("peak_rss_mb", system.peak_rss_mb)
        metrics.put("answer_rel_error", error)
        extra["rounds"] = passed["rounds"]
        spec = BATCH[args.workload]
        items = spec["items"] * len(spec["families"])
        extra["raw_ingest_items_per_s"] = median(
            [items / sum(run_s) for run_s in passed["raw_run_s"]]
        )
        # Each family's own scaled ingest rate, for the cross-check
        # against the repo's throughput probes.
        extra["family_items_per_s"] = {
            family: median(
                [spec["items"] / run_s[index] for run_s in passed["run_s"]]
            )
            for index, family in enumerate(spec["families"])
        }
        return extra
    for name in ("untraced", "traced"):
        error = check_batch(args.workload, result[name], stream, ledger)
    batch_layers(args.workload, result, error, metrics, ledger)
    return extra


def batch_layers(workload, result, error, metrics, ledger) -> None:
    untraced, traced = result["untraced"], result["traced"]
    spans = self_times(load_spans(spans_path(workload)))
    roots = sum(s["dur_s"] for s in spans if not s["parent"])
    coverage = roots / traced["wall_s"]
    ledger.checked(
        [
            checks.Check(
                "trace: root spans cover traced wall time",
                coverage >= MIN_COVERAGE,
                f"{coverage:.3f}",
            )
        ],
        1,
    )
    metrics.put("trace.root_coverage", coverage, len(spans))
    metrics.put(
        "trace.overhead_share",
        measured_s(traced) / measured_s(untraced) - 1.0,
        traced["rounds"],
    )
    audits = [e["audit"] for e in traced["first"].values()]
    layer_metrics(spans, result["counts"], audits, metrics)
    metrics.put("answer_rel_error", error)
    latency(metrics, "point", untraced["point_ms"])
    latency(metrics, "batch", untraced["batch_ms"])


def measured_s(passed: dict) -> float:
    """Scaled seconds of a pass's runs and reads."""
    runs = sum(sum(run_s) for run_s in passed["run_s"])
    return runs + sum(passed["query_ms"]) / 1e3


def layer_metrics(spans, counts, audits, metrics: Metrics) -> None:
    """Per-layer metrics shared by every workload's traced pass."""
    totals = layer_totals(spans)
    put = metrics.put
    put("api.run.self_s", totals["api.run"])
    put("runtime.sharded.ingest.self_s", totals["runtime.sharded.ingest"])
    put(
        "hashing.bucket_many.route_s",
        totals["hashing.bucket_many|runtime.sharded.ingest"],
    )
    put(
        "hashing.bucket_many.kernel_s",
        totals["hashing.bucket_many|baselines.process_chunk"]
        + totals["hashing.bucket_many|core.process_chunk"],
    )
    put("baselines.process_chunk.self_s", totals["baselines.process_chunk"])
    for family in FAMILIES:
        put(
            f"core.process_chunk.self_s.{family}",
            totals[f"core.process_chunk|{family}"],
        )
    items = max(counts.get("items_chunked", 0), 1)
    for kind in ("scalar", "block"):
        draws = counts.get(f"coins_{kind}", 0)
        put(f"hashing.coins.{kind}_draws_per_item", draws / items)
        for family in FAMILIES:
            draws = counts.get(f"coins_{kind}|{family}", 0)
            ingested = counts.get(f"items_chunked|{family}", 0)
            put(
                f"hashing.coins.{kind}_draws_per_item.{family}",
                draws / max(ingested, 1),
            )
    put("state.scalar_path_share", counts.get("items_scalar", 0) / items)
    length = sum(a["stream_length"] for a in audits)
    put(
        "state.state_change_rate",
        sum(a["state_changes"] for a in audits) / max(length, 1),
    )
    put(
        "state.write_yield",
        sum(a["total_writes"] for a in audits)
        / max(sum(a["total_write_attempts"] for a in audits), 1),
    )
    for name in ("snapshot_cut", "merged_from_cut", "merge"):
        put(f"runtime.sharded.{name}_s", totals[f"runtime.sharded.{name}"])
    put("sketch.clone_s", totals["sketch.clone"])
    put("sketch.merge_s", totals["sketch.merge"])
    put("query.query_s", totals["query.query"])
    put("query.query_many_s", totals["query.query_many"])
    for name in ("append", "query", "query_batch"):
        put(f"serve.engine.{name}.self_s", totals[f"serve.engine.{name}"])
    for op in OPS:
        put(
            f"serve.server.handle.self_s.{op}",
            totals[f"serve.server.handle|{op}"],
        )
    # Serving-only metrics default to 0; serve-mixed overwrites them.
    for name in (
        "serve.engine.snapshot_leaves_cloned",
        "serve.engine.snapshot_leaves_reused",
        "serve.engine.snapshot_nodes_built",
        "serve.engine.snapshot_nodes_reused",
        "serve.engine.answer_cache_hit_ratio",
        "serve.wire.request_bytes_per_item",
        *(f"serve.wire_s.{op}" for op in OPS),
    ):
        put(name, 0.0, 0)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Plan:
    """The pre-encoded requests of one ``serve-mixed`` run."""

    def __init__(self, seed: int, seconds: float) -> None:
        cycles = max(
            SERVE["min_cycles"], round(SERVE["cycles_per_second"] * seconds)
        )
        size = SERVE["append_items"]
        rng = np.random.default_rng(seed)
        self.stream = zipf_items(rng, cycles * size)
        points = zipf_items(rng, cycles * POINTS_PER_GROUP)
        batches = zipf_items(rng, cycles * BATCH_ITEMS)
        self.requests: list[tuple[str, bytes, list[int]]] = []
        for cycle in range(cycles):
            items = self.stream[cycle * size:(cycle + 1) * size].tolist()
            self.request("append", {"op": "append", "items": items}, items)
            for item in points[
                cycle * POINTS_PER_GROUP:(cycle + 1) * POINTS_PER_GROUP
            ].tolist():
                self.request(
                    "query", {"op": "query", "kind": "point", "item": item},
                    [item],
                )
            items = batches[cycle * BATCH_ITEMS:(cycle + 1) * BATCH_ITEMS]
            items = items.tolist()
            self.request(
                "query-batch", {"op": "query-batch", "items": items}, items
            )

    def request(self, op: str, payload: dict, items: list[int]) -> None:
        line = (json.dumps(payload) + "\n").encode("utf-8")
        self.requests.append((op, line, items))


class Client:
    """One connection to the server: JSON lines, closed loop."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line: bytes) -> tuple[bytes, int, int]:
        started = time.perf_counter_ns()
        self.sock.sendall(line)
        response = self.reader.readline()
        return response, started, time.perf_counter_ns()

    def ask(self, payload: dict) -> dict:
        response, _, _ = self.call((json.dumps(payload) + "\n").encode())
        return json.loads(response)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def start_server(seed: int, traced: bool, cpu: int, spans="", counts=""):
    """Launch the server pinned to CPU ``cpu``; returns (system, port,
    seconds from launch to listening)."""
    serve_args = [
        "--algorithm", SERVE["algorithm"],
        "--shards", str(SERVE["shards"]),
        "--epsilon", str(SERVE["epsilon"]),
        "--seed", str(seed),
        "--port", "0",
    ]
    if traced:
        argv = [
            sys.executable, os.path.join(BENCH_DIR, "system_serve.py"),
            spans, counts, "--", *serve_args,
        ]
    else:
        argv = [sys.executable, "-m", "repro", "serve", *serve_args]
    system = System(argv, DEADLINE_S, cpu=cpu)
    line = system.readline()
    found = re.search(r" on [\d.]+:(\d+) ", line)
    if not found:
        system.kill()
        raise RuntimeError(f"unexpected server output {line!r}")
    return system, int(found.group(1)), time.perf_counter() - system.started


def serve_pass(plan: Plan, seed: int, traced: bool, spans="", counts=""):
    """One server process driven through the whole plan; returns the
    round trips, the raw responses and the closing verbs' answers."""
    cpu = system_cpu()
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    system, port, _ = start_server(seed, traced, cpu, spans, counts)
    try:
        client = Client(port)
        timings, responses = [], []
        started = time.perf_counter()
        meter = Segments()
        for op, line, _ in plan.requests:
            response, sent, received = client.call(line)
            timings.append((sent, received))
            responses.append(response)
            meter.add(op, (received - sent) / 1e6)
            meter.cut_if_due()
        meter.cut()
        wall = time.perf_counter() - started - meter.clock.spent_s
        universe = list(range(BATCH["linear-sharded"]["n"]))
        closing = {
            "snapshot": client.ask({"op": "snapshot"}),
            "verify": client.ask(
                {"op": "query-batch", "items": universe, "refresh": True}
            ),
            "stats": client.ask({"op": "stats"}),
            "shutdown": client.ask({"op": "shutdown"}),
        }
        client.close()
        code = system.finish()
    except BaseException:
        system.kill()
        raise
    finally:
        os.sched_setaffinity(0, home)
    return {
        "timings": timings,
        "samples": meter.samples,
        "responses": responses,
        "wall": wall,
        "closing": closing,
        "exit_code": code,
        "peak_rss_mb": system.peak_rss_mb,
    }


def reference_run(plan: Plan, seed: int):
    """A fresh batch run over the same stream: the final snapshot must
    be bit-identical to it."""
    sys.path.insert(0, SRC)
    from repro.api import Engine
    from repro.query import MultiPointQuery

    engine = Engine(
        SERVE["algorithm"],
        n=BATCH["linear-sharded"]["n"],
        m=len(plan.stream),
        epsilon=SERVE["epsilon"],
        seed=seed,
        shards=SERVE["shards"],
    )
    report = engine.run(plan.stream, chunk_size=8192)
    universe = tuple(range(BATCH["linear-sharded"]["n"]))
    answers = [a.value for a in engine.query_many(MultiPointQuery(universe))]
    return report.audit, answers


def check_serve(plan: Plan, passed: dict, reference, ledger: Ledger):
    """Verdicts on every request of one pass; returns answer_rel_error."""
    audit, expected = reference
    prefix = checks.PrefixCounts(plan.stream)
    size = SERVE["append_items"]
    head = 0
    point_items, point_values, point_index, point_at = [], [], [], []
    for position, ((op, _, items), raw) in enumerate(
        zip(plan.requests, passed["responses"])
    ):
        response = json.loads(raw) if raw else {"ok": False}
        if not response.get("ok"):
            ledger.ops(1, 1, f"{op}: {response.get('error', 'no response')}")
            continue
        if op == "append":
            head += size
            ledger.ops(
                1,
                int(response["appended"] != size or response["head"] != head),
                "append acknowledged the wrong head",
            )
            continue
        values = (
            [response["value"]]
            if op == "query"
            else [a["value"] for a in response["answers"]]
        )
        point_items += items
        point_values += values
        point_index += [response["snapshot_index"]] * len(items)
        point_at += [position] * len(items)
    verdicts = checks.check_streamed_points(
        point_items, point_values, point_index, prefix
    )
    bad_ops = {at for at, ok in zip(point_at, verdicts) if not ok}
    ledger.ops(
        len(set(point_at)),
        len(bad_ops),
        "point answer outside [exact count, snapshot index]",
    )
    closing = passed["closing"]
    snapshot = closing["snapshot"]
    ledger.checked(
        [
            checks.Check(
                "snapshot equals a fresh batch run",
                bool(snapshot.get("ok"))
                and snapshot["items"] == len(plan.stream)
                and snapshot["state_changes"] == audit.state_changes
                and snapshot["peak_words"] == audit.peak_words,
                str(snapshot),
            )
        ],
        1,
    )
    verify = closing["verify"]
    values = [a["value"] for a in verify.get("answers", [])]
    counts = checks.exact_counts(plan.stream, len(expected))
    found, error = checks.check_point_answers(
        values or [0.0] * len(expected), counts, len(plan.stream),
        SERVE["epsilon"], "served count-min",
    )
    found.append(
        checks.Check(
            "served answers equal the fresh batch run's", values == expected
        )
    )
    ledger.checked(found, 1)
    for verb in ("stats", "shutdown"):
        ledger.ops(1, int(not closing[verb].get("ok")), f"{verb} failed")
    ledger.ops(1, int(passed["exit_code"] != 0), "server exit code")
    return error


def op_samples(passed: dict) -> dict[str, list[float]]:
    """Scaled round trip of every request, in ms, by verb."""
    return {op: passed["samples"].get(op, []) for op in OPS}


def run_serve(args, metrics: Metrics, ledger: Ledger) -> dict:
    # A traced run serves the shortest plan twice (untraced, traced).
    plan = Plan(args.seed, 0 if args.trace else args.seconds)
    if not args.trace:
        cpu = system_cpu()

        def launch() -> float:
            system, port, setup = start_server(args.seed, False, cpu)
            client = Client(port)
            client.ask({"op": "shutdown"})
            client.close()
            system.finish()
            return setup

        setups = setup_times(launch, cpu)
    passed = serve_pass(plan, args.seed, False)
    reference = reference_run(plan, args.seed)
    error = check_serve(plan, passed, reference, ledger)
    samples = op_samples(passed)
    extra = {"cycles": len(samples["append"])}
    if not args.trace:
        metrics.put("setup_s", median(setups), len(setups))
        append_s = sum(samples["append"]) / 1e3
        appended = len(samples["append"]) * SERVE["append_items"]
        metrics.put(
            "ingest_items_per_s", appended / append_s, len(samples["append"])
        )
        latency(metrics, "append", samples["append"])
        latency(metrics, "point", samples["query"])
        latency(metrics, "batch", samples["query-batch"])
        query_ms = samples["query"] + samples["query-batch"]
        answers = len(samples["query"]) + BATCH_ITEMS * len(
            samples["query-batch"]
        )
        metrics.put(
            "answers_per_s", answers / (sum(query_ms) / 1e3), len(query_ms)
        )
        snapshot = passed["closing"]["snapshot"]
        metrics.put("state_changes", snapshot["state_changes"])
        metrics.put("peak_words", snapshot["peak_words"])
        metrics.put("peak_rss_mb", passed["peak_rss_mb"])
        metrics.put("answer_rel_error", error)
        raw_s = sum(
            r - s
            for (op, _, _), (s, r) in zip(plan.requests, passed["timings"])
            if op == "append"
        ) / 1e9
        extra["raw_ingest_items_per_s"] = appended / raw_s
        return extra
    spans = spans_path(args.workload)
    counts_file = spans + ".counts.json"
    for path in (spans, counts_file):
        if os.path.exists(path):
            os.remove(path)
    traced = serve_pass(plan, args.seed, True, spans, counts_file)
    error = check_serve(plan, traced, reference, ledger)
    serve_layers(plan, passed, traced, reference[0], spans, counts_file,
                 error, metrics, ledger)
    return extra


def serve_layers(plan, untraced, traced, audit, spans_file, counts_file,
                 error, metrics: Metrics, ledger: Ledger) -> None:
    with open(counts_file, encoding="utf-8") as source:
        counts = json.load(source)
    server_spans = load_spans(spans_file)
    handles = sorted(
        (s for s in server_spans if s["name"] == "serve.server.handle"),
        key=lambda s: s["start_ns"],
    )
    # The client's round trips are the root spans of the serving path;
    # the server's handle spans are their remote children.
    client_spans = []
    wire = {op: 0.0 for op in OPS}
    for index, ((op, _, _), (sent, received)) in enumerate(
        zip(plan.requests, traced["timings"])
    ):
        client_spans.append(
            {
                "proc": "client", "id": index + 1, "parent": 0,
                "name": f"serve.client.{op}", "tag": op,
                "start_ns": sent, "end_ns": received,
            }
        )
        if index < len(handles):
            handle = handles[index]
            wire[op] += (
                (received - sent) - (handle["end_ns"] - handle["start_ns"])
            ) / 1e9
    with open(spans_file, "a", encoding="utf-8") as out:
        for span in client_spans:
            out.write(json.dumps(span) + "\n")
    ledger.checked(
        [
            checks.Check(
                "trace: one server handle span per request",
                len(handles) >= len(plan.requests),
                f"{len(handles)} spans, {len(plan.requests)} requests",
            )
        ],
        1,
    )
    rtt_s = sum(r - s for s, r in traced["timings"]) / 1e9
    coverage = rtt_s / traced["wall"]
    ledger.checked(
        [
            checks.Check(
                "trace: root spans cover traced wall time",
                coverage >= MIN_COVERAGE,
                f"{coverage:.3f}",
            )
        ],
        1,
    )
    audits = [
        {
            "stream_length": audit.stream_length,
            "state_changes": audit.state_changes,
            "total_writes": audit.total_writes,
            "total_write_attempts": audit.total_write_attempts,
        }
    ]
    layer_metrics(self_times(server_spans), counts, audits, metrics)
    stats = traced["closing"]["stats"]
    for name in ("leaves_cloned", "leaves_reused", "nodes_built",
                 "nodes_reused"):
        metrics.put(f"serve.engine.snapshot_{name}", stats[f"snapshot_{name}"])
    cache = stats.get("answer_cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics.put(
        "serve.engine.answer_cache_hit_ratio",
        cache.get("hits", 0) / max(lookups, 1),
        lookups,
    )
    for op in OPS:
        metrics.put(f"serve.wire_s.{op}", wire[op])
    carried = [
        (len(line), len(items))
        for op, line, items in plan.requests
        if op in ("append", "query-batch")
    ]
    metrics.put(
        "serve.wire.request_bytes_per_item",
        sum(b for b, _ in carried) / sum(n for _, n in carried),
        len(carried),
    )
    metrics.put("trace.root_coverage", coverage, len(client_spans))
    metrics.put(
        "trace.overhead_share",
        sum(map(sum, op_samples(traced).values()))
        / sum(map(sum, op_samples(untraced).values()))
        - 1.0,
    )
    metrics.put("answer_rel_error", error)
    samples = op_samples(untraced)
    latency(metrics, "point", samples["query"])
    latency(metrics, "batch", samples["query-batch"])


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def gated_names(spec: dict, trace: int) -> list[str]:
    """Metric names the last line carries."""
    section = "per_layer" if trace else "end_to_end"
    return [entry["name"] for entry in spec[section]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"error: no program to measure: {SRC}/repro is missing",
            file=sys.stderr,
        )
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = declared()
    metrics = Metrics(spec)
    ledger = Ledger()
    runner = run_serve if args.workload == "serve-mixed" else run_batch
    extra = runner(args, metrics, ledger)
    names = gated_names(spec, args.trace)
    provenance = stamp(args.seed)
    error_rate = ledger.failed / max(ledger.attempted, 1)
    print(f"workload {args.workload}  trace {args.trace}  {extra}")
    print(f"stamp {json.dumps(provenance, sort_keys=True)}")
    print(f"{'metric':44s} {'value':>16s} {'unit':10s} samples")
    for name, (value, unit, samples) in metrics.values.items():
        print(f"{name:44s} {value:16.6g} {unit:10s} {samples}")
    print(
        f"{'error_rate':44s} {error_rate:16.6g} {'ratio':10s} "
        f"{ledger.attempted}"
    )
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": provenance,
        "extra": extra,
        "error_rate": error_rate,
        "failures": ledger.failures,
        "metrics": {
            name: {"value": v, "unit": u, "samples": n}
            for name, (v, u, n) in metrics.values.items()
        },
    }
    result_file = os.path.join(
        OUT_DIR, f"result-{args.workload}-{args.seed}-{args.trace}.json"
    )
    with open(result_file, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1)
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics.json(names),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
