"""Benchmark-owned span tracing around the public entry points of ``repro``.

Nothing here is imported by the program under test.  :meth:`Tracer.install`
replaces a fixed list of public methods with thin wrappers that record one
span per call (name, tag, parent, start, end) in memory; :meth:`Tracer.dump`
writes them out when the run ends.  Parent links come from a per-thread
stack, so a span's self time is its duration minus the durations of its
direct children (children never overlap their parent on one thread).

Two hot entry points are counted rather than spanned, because a span per
call would cost more than the work it measures: ``Sketch.process_many``
(items that took the scalar path) and the Philox coin draws.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

#: Layer of a sketch family, from the package its class lives in.
_FAMILY_LAYERS = {"repro.core": "core", "repro.baselines": "baselines"}


def sketch_layer(obj) -> str:
    """``core`` for the paper's families, ``baselines`` for the rest."""
    module = type(obj).__module__
    for prefix, layer in _FAMILY_LAYERS.items():
        if module.startswith(prefix):
            return layer
    return "state"


class Tracer:
    """In-memory span recorder plus the counters named in the module doc."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, tag, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.family = ""  # tag of the workload phase in progress
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()
        self._undo: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _depths(self) -> dict:
        depth = getattr(self._local, "depth", None)
        if depth is None:
            depth = self._local.depth = defaultdict(int)
        return depth

    def begin(self, name: str, tag: str = "") -> list:
        """Open a span on this thread; close it with :meth:`end`."""
        stack = self._stack()
        with self._id_lock:
            span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        span = [span_id, parent, name, tag, time.perf_counter_ns(), 0]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def count(self, key: str, amount: int) -> None:
        """Add to counter ``key``, in total and for the current family."""
        self.counts[key] += amount
        self.counts[f"{key}|{self.family}"] += amount

    def parent_name(self) -> str:
        """Name of the innermost open span on this thread ('' if none)."""
        stack = self._stack()
        return stack[-1][2] if stack else ""

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _patch(self, owner: type, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span_method(self, owner, attr, name, tag=None) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                span = tracer.begin(
                    name(args) if callable(name) else name,
                    tag(args) if tag else tracer.family,
                )
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(span)

            return wrapper

        self._patch(owner, attr, make)

    def _count_items(self, owner, attr, key) -> None:
        """Count items through ``attr``, outermost calls only."""
        tracer = self

        def make(original):
            def wrapper(self_, items, *args, **kwargs):
                depth = tracer._depths()
                if depth[key] == 0 and hasattr(items, "__len__"):
                    tracer.count(key, len(items))
                depth[key] += 1
                try:
                    return original(self_, items, *args, **kwargs)
                finally:
                    depth[key] -= 1

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> "Tracer":
        """Wrap every traced entry point (process-wide, until
        :meth:`uninstall`)."""
        from repro.api import Engine
        from repro.hashing.coins import PhiloxCoins
        from repro.hashing.prime_field import KWiseHash
        from repro.runtime.sharded import ShardedRunner
        from repro.serve.engine import LiveEngine
        from repro.serve.server import LiveSession
        from repro.state.algorithm import Sketch

        self._span_method(Engine, "run", "api.run")
        for attr in ("ingest", "snapshot_cut", "merged_from_cut", "merge"):
            self._span_method(
                ShardedRunner, attr, f"runtime.sharded.{attr}"
            )
        self._span_method(
            KWiseHash,
            "bucket_many",
            "hashing.bucket_many",
            tag=lambda args: self.parent_name(),
        )
        self._span_method(
            Sketch,
            "process_chunk",
            lambda args: f"{sketch_layer(args[0])}.process_chunk",
        )
        self._count_items(Sketch, "process_chunk", "items_chunked")
        self._count_items(Sketch, "process_many", "items_scalar")
        self._span_method(Sketch, "clone", "sketch.clone")
        self._span_method(Sketch, "merge", "sketch.merge")
        self._span_method(Sketch, "query", "query.query")
        self._span_method(Sketch, "query_many", "query.query_many")
        for attr in ("append", "query", "query_batch", "stats"):
            self._span_method(LiveEngine, attr, f"serve.engine.{attr}")
        self._span_method(
            LiveSession,
            "handle",
            "serve.server.handle",
            tag=lambda args: str(
                args[1].get("op") if isinstance(args[1], dict) else ""
            ),
        )
        self._count_coins(PhiloxCoins)
        return self

    def _count_coins(self, coins_cls) -> None:
        """Scalar draws (``uniform``) and block draws (``uniform_block``
        calls not made by ``uniform``), counted in draws."""
        count = self.count
        local = self._local

        def make_uniform(original):
            def uniform(self_, index):
                count("coins_scalar", 1)
                local.in_uniform = True
                try:
                    return original(self_, index)
                finally:
                    local.in_uniform = False

            return uniform

        def make_block(original):
            def uniform_block(self_, start, draws):
                if not getattr(local, "in_uniform", False):
                    count("coins_block", int(draws))
                return original(self_, start, draws)

            return uniform_block

        self._patch(coins_cls, "uniform", make_uniform)
        self._patch(coins_cls, "uniform_block", make_block)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: str, process: str) -> None:
        """Append every recorded span to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as out:
            for span_id, parent, name, tag, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "proc": process,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "tag": tag,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[dict]) -> list[dict]:
    """Annotate spans (dicts as :meth:`Tracer.dump` writes them) with
    ``dur_s`` and ``self_s``; spans of different processes never link."""
    children: dict[tuple[str, int], int] = defaultdict(int)
    for span in spans:
        if span["parent"]:
            key = (span["proc"], span["parent"])
            children[key] += span["end_ns"] - span["start_ns"]
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        span["dur_s"] = duration / 1e9
        span["self_s"] = (
            duration - children.get((span["proc"], span["id"]), 0)
        ) / 1e9
    return spans


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Self seconds summed per ``name`` and per ``name|tag``."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["self_s"]
        totals[f"{span['name']}|{span['tag']}"] += span["self_s"]
    return totals


def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as source:
        return [json.loads(line) for line in source if line.strip()]
