"""The system process of the batch workloads (``paper-batch``,
``linear-sharded``): ``Engine.run`` in its own interpreter.

Launched by ``run.py`` with the generated input arrays; prints ``READY``
once the program is imported, its engines are built and the input is
loaded (the end of set-up), then -- unless ``--mode setup`` -- runs the
workload and prints one ``RESULT <json>`` line.

Modes:

* ``setup``  -- stop after ``READY`` (set-up time probes);
* ``timed``  -- rounds until ``--seconds`` have passed, tracing off;
* ``traced`` -- ``--rounds`` rounds untraced, then the same rounds with
  the span wrappers of ``tracer.py`` installed; spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

import checks
from common import Segments
from workloads import BATCH


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BATCH))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--spans", default="")
    return parser.parse_args(argv)


def answer_json(answer):
    """JSON-safe form of a typed answer."""
    values = getattr(answer, "values", None)
    if values is not None:
        return {str(item): float(v) for item, v in values.items()}
    return float(answer.value)


def audit_json(report) -> dict:
    return {
        "stream_length": report.stream_length,
        "state_changes": report.state_changes,
        "total_writes": report.total_writes,
        "total_write_attempts": report.total_write_attempts,
        "peak_words": report.peak_words,
    }


def pulled(stream: np.ndarray, chunk: int, meter: Segments):
    """A lazy ``ChunkedStream`` over ``stream`` that times each chunk
    from the moment ``Engine.run`` takes it to the moment it asks for
    the next one: the time one chunk took to enter the system.  Between
    two chunks it lets ``meter`` cut its segment when one is due."""
    from repro.streams.chunked import ChunkedStream

    def chunks():
        for low in range(0, len(stream), chunk):
            began = time.perf_counter()
            yield stream[low:low + chunk]
            meter.add("chunk_ms", (time.perf_counter() - began) * 1e3)
            meter.cut_if_due()

    return ChunkedStream(chunks, chunk)


class Workload:
    """Engines plus inputs of one batch workload; :meth:`round` runs
    every engine once over the stream, then its read probe."""

    def __init__(self, name: str, inputs, seed: int) -> None:
        from repro.api import Engine

        self.spec = BATCH[name]
        self.stream = inputs["stream"]
        # Read groups: 15 point items plus one batch of items each.
        self.reads = [
            (points.tolist(), tuple(batch.tolist()))
            for points, batch in zip(
                inputs.get("points", ()), inputs.get("batches", ())
            )
        ]
        self.engines = {
            family: Engine(
                family,
                n=self.spec["n"],
                m=len(self.stream),
                epsilon=self.spec["epsilon"],
                seed=seed,
                shards=self.spec["shards"],
                coin_protocol=self.spec["coin_protocol"],
            )
            for family in self.spec["families"]
        }
        self.tracer = None
        self.meter: Segments | None = None  # started after set-up

    def warm(self) -> None:
        """One unmeasured run of every engine over the first chunk, plus
        its read probe, so the first timed round does not pay the
        first-call costs (lazy imports, cold caches) alone."""
        from repro.query import MultiPointQuery, PointQuery

        head = self.stream[:self.spec["chunk"]]
        for engine in self.engines.values():
            engine.run(head, chunk_size=self.spec["chunk"])
            for query in engine.default_queries():
                engine.query(query)
            for points, items in self.reads[:1]:
                engine.query(PointQuery(points[0]))
                engine.query_many(MultiPointQuery(items))

    def round(self) -> dict:
        """Every engine once over the stream, then its read probe.

        Timings are scaled to the reference machine per segment of the
        :class:`Segments` meter; ``raw_run_s`` keeps the unscaled run
        times.  The read probe's answers are kept (outside the timed
        calls) for :func:`describe` to check."""
        from repro.query import MultiPointQuery, PointQuery

        chunk = self.spec["chunk"]
        meter = self.meter
        out = {"run_s": [], "raw_run_s": [], "answers": 0, "families": {}}
        for family, engine in self.engines.items():
            if self.tracer is not None:
                self.tracer.family = family
            meter.begin()
            scaled, raw = meter.scaled_s, meter.raw_s
            report = engine.run(
                pulled(self.stream, chunk, meter), chunk_size=chunk
            )
            meter.cut()
            out["run_s"].append(meter.scaled_s - scaled)
            out["raw_run_s"].append(meter.raw_s - raw)
            # Read probe: re-ask the default queries (paper families)
            # or the serving mix of point and batch reads (linear).
            asked = []
            meter.begin()
            defaults = engine.default_queries()
            for query in defaults * self.spec["query_repeats"]:
                began = time.perf_counter()
                answer = engine.query(query)
                meter.add("query_ms", (time.perf_counter() - began) * 1e3)
                asked.append((query, answer))
                # A map answer carries one answer per item, as a batch does.
                values = getattr(answer, "values", None)
                out["answers"] += 1 if values is None else max(len(values), 1)
                meter.cut_if_due()
            for points, items in self.reads:
                for item in points:
                    query = PointQuery(item)
                    began = time.perf_counter()
                    answer = engine.query(query)
                    elapsed = (time.perf_counter() - began) * 1e3
                    meter.add("point_ms", elapsed)
                    meter.add("query_ms", elapsed)
                    asked.append((query, answer))
                batch = MultiPointQuery(items)
                began = time.perf_counter()
                answer = engine.query_many(batch)
                elapsed = (time.perf_counter() - began) * 1e3
                meter.add("batch_ms", elapsed)
                meter.add("query_ms", elapsed)
                asked.append((batch, answer))
                out["answers"] += len(points) + len(items)
                meter.cut_if_due()
            meter.cut()
            out["families"][family] = (engine.merged, report, asked)
        return out


def read_record(query, answer) -> list:
    """JSON form of one timed read: ``["point", item, value]``,
    ``["batch", items, values]`` or ``["answer", kind, answer]``."""
    from repro.query import MultiPointQuery, PointQuery

    if isinstance(query, MultiPointQuery):
        return ["batch", list(query.items), [a.value for a in answer]]
    if isinstance(query, PointQuery):
        return ["point", query.item, answer.value]
    return ["answer", str(query.kind), answer_json(answer)]


def describe(family_runs: dict, reads: list, universe: int):
    """Answers, audits and the reads' answers of one round, as JSON,
    plus the number of the round's timed reads that fail
    :func:`checks.read_mismatches`."""
    from repro.query import MultiPointQuery, PointQuery

    described, mismatches = {}, 0
    for family, (sketch, report, asked) in family_runs.items():
        entry = {
            "items": report.items_processed,
            "audit": audit_json(report.audit),
            "answers": {
                str(query.kind): answer_json(answer)
                for query, answer in report.answers
            },
        }
        if reads:
            everything = MultiPointQuery(tuple(range(universe)))
            points, items = reads[0]
            entry["point_all"] = [
                a.value for a in sketch.query_many(everything)
            ]
            entry["point_first_items"] = points
            entry["point_first"] = [
                sketch.query(PointQuery(i)).value for i in points
            ]
            entry["batch_first_items"] = list(items)
            entry["batch_first"] = [
                a.value for a in sketch.query_many(MultiPointQuery(items))
            ]
        mismatches += checks.read_mismatches(
            [read_record(q, a) for q, a in asked], entry
        )
        described[family] = entry
    return described, mismatches


def digest(described: dict) -> str:
    return hashlib.sha256(
        json.dumps(described, sort_keys=True).encode()
    ).hexdigest()


def run_pass(
    workload: Workload, *, until=None, rounds=None, cut_s=0.1, tracer=None
) -> dict:
    """Rounds until the clock passes ``until`` (at least two) or
    exactly ``rounds``, measured by a fresh :class:`Segments` meter that
    cuts segments every ``cut_s`` and, if given, traced by ``tracer``;
    returns the pass summary.

    Each round is described and checked as soon as it ends, with the
    tracer removed, so no round's sketches or answers outlive it (they
    would swell the peak RSS by a number of rounds that depends on the
    machine's speed).  ``wall_s`` excludes calibration and checking."""
    started = time.perf_counter()
    workload.meter = meter = Segments(cut_s)
    workload.tracer = tracer
    results, digests, mismatches, first = [], [], [], None
    checking_s = 0.0
    try:
        while True:
            if tracer is not None:
                tracer.install()
            result = workload.round()
            if tracer is not None:
                tracer.uninstall()
            began = time.perf_counter()
            described, bad = describe(
                result.pop("families"), workload.reads, workload.spec["n"]
            )
            digests.append(digest(described))
            mismatches.append(bad)
            if first is None:
                first = described
            checking_s += time.perf_counter() - began
            results.append(result)
            done = len(results)
            if rounds is not None and done >= rounds:
                break
            if until is not None and done >= 2 and (
                time.perf_counter() >= until
            ):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - started - meter.clock.spent_s - checking_s
    return {
        "rounds": len(results),
        "wall_s": wall,
        "run_s": [r["run_s"] for r in results],
        "raw_run_s": [r["raw_run_s"] for r in results],
        "answers": [r["answers"] for r in results],
        **{
            key: meter.samples.get(key, [])
            for key in ("chunk_ms", "point_ms", "batch_ms", "query_ms")
        },
        "digests": digests,
        "read_mismatches": mismatches,
        "first": first,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro.api  # noqa: F401  (set-up includes the program import)

    workload = Workload(args.workload, np.load(args.inputs), args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    result: dict = {}
    if args.mode == "timed":
        workload.warm()
        until = time.perf_counter() + args.seconds
        result["timed"] = run_pass(workload, until=until)
    else:
        from tracer import Tracer

        # One unmeasured round first, so neither pass pays the
        # first-run costs (lazy imports, cold caches) alone.  Segments
        # are cut only between runs, never inside a traced span.
        fixed = {"rounds": args.rounds, "cut_s": math.inf}
        run_pass(workload, rounds=1)
        result["untraced"] = run_pass(workload, **fixed)
        tracer = Tracer()
        result["traced"] = run_pass(workload, tracer=tracer, **fixed)
        result["counts"] = dict(tracer.counts)
        tracer.dump(args.spans, "system")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
