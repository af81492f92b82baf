"""JSON-lines socket front end for the live serving engine.

``repro serve`` binds a TCP socket and speaks a newline-delimited JSON
protocol: every request is one JSON object on one line, every response
one JSON object on one line.  The verbs:

========== ============================================= ==============
verb       request fields                                response
========== ============================================= ==============
append     ``items`` (list of item ids)                  ``appended``, ``head``
query      ``kind`` (query-kind name) + kind params      answer fields + ``snapshot_index``, ``updates_behind``
           (``item``, ``phi``, ``p``), optional
           ``refresh`` / ``max_staleness``
query-batch ``items`` (list of item ids), optional       ``answers`` (list of answer fields) + one shared
           ``refresh`` / ``max_staleness``               ``snapshot_index``, ``head``, ``updates_behind``
subscribe  ``kind`` (``state-changes`` or a query kind   ``id``
           + params)
series     ``id`` (from subscribe)                       ``series`` of ``[index, value]``
snapshot   —                                             ``snapshot_index``, ``head``, ``state_changes``, ``peak_words``
stats      —                                             engine status fields
shutdown   —                                             ``head``; the server stops
========== ============================================= ==============

Item ids are non-negative ``int64`` integers, the trace reader's rule.
Every response carries ``"ok": true``; failures answer
``{"ok": false, "error": "..."}`` on the same connection and the
session keeps serving (a malformed request must not take the engine
down).  Query responses embed their staleness metadata, so a remote
client sees exactly what an in-process :class:`~repro.serve.engine.
LiveAnswer` carries.

The protocol logic lives in :class:`LiveSession` as a pure
``dict -> dict`` mapping, so tests (and embedders) can drive it
without sockets; :class:`LiveServer` wraps it in a threading TCP
server whose handler serializes engine access through the engine's
own lock.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any

import numpy as np

from repro.query import (
    AllEstimates,
    Answer,
    Distinct,
    Entropy,
    HeavyHitters,
    MapAnswer,
    Moment,
    MomentAnswer,
    PointQuery,
    Query,
    QueryKind,
    UnsupportedQueryError,
)
from repro.serve.collectors import (
    Collector,
    QueryCollector,
    StateChangesCollector,
)
from repro.serve.engine import LiveEngine
from repro.state.budget import WriteBudgetExceededError


class ProtocolError(ValueError):
    """A request the protocol cannot serve (bad verb, missing field)."""


#: Largest item id: items are non-negative ``int64`` values.
_MAX_ITEM = np.iinfo(np.int64).max


def _item_array(request: dict[str, Any], verb: str) -> np.ndarray:
    """The request's ``items`` as an ``int64`` array of item ids.

    One ``np.asarray`` pass converts and type-checks the whole list:
    numpy infers ``int64`` only when every entry is an integer that
    fits, so floats, strings, nested lists and out-of-range integers
    all land on another dtype or shape and are rejected in-band.
    """
    items = request.get("items")
    try:
        array = np.asarray(items) if isinstance(items, list) else None
    except ValueError:  # ragged nested lists
        array = None
    if array is None or array.ndim != 1 or len(array) and (
        array.dtype.kind != "i" or array.min() < 0
    ):
        raise ProtocolError(
            f"{verb} needs an 'items' list of non-negative int64 "
            f"integers"
        )
    return array.astype(np.int64, copy=False)


def _build_query(request: dict[str, Any]) -> Query:
    """Typed query from a request's ``kind`` + parameter fields."""
    kind = request.get("kind")
    if kind == str(QueryKind.POINT):
        item = request.get("item")
        if not isinstance(item, int) or not 0 <= item <= _MAX_ITEM:
            raise ProtocolError(
                "point queries need a non-negative int64 'item' field"
            )
        return PointQuery(item)
    if kind == str(QueryKind.ALL_ESTIMATES):
        return AllEstimates()
    if kind == str(QueryKind.HEAVY_HITTERS):
        phi = request.get("phi")
        return HeavyHitters(phi=None if phi is None else float(phi))
    if kind == str(QueryKind.MOMENT):
        p = request.get("p")
        return Moment(p=None if p is None else float(p))
    if kind == str(QueryKind.ENTROPY):
        return Entropy()
    if kind == str(QueryKind.DISTINCT):
        return Distinct()
    raise ProtocolError(
        f"unknown query kind {kind!r}; choose from "
        f"{sorted(str(k) for k in QueryKind)}"
    )


def _answer_fields(answer: Answer) -> dict[str, Any]:
    """JSON-safe fields of a typed answer (kind + value/values [+ p])."""
    fields: dict[str, Any] = {"kind": str(answer.kind)}
    if isinstance(answer, MapAnswer):
        # JSON object keys are strings; clients int() them back.
        fields["values"] = {
            str(item): value for item, value in answer.values.items()
        }
    else:
        fields["value"] = answer.value
        if isinstance(answer, MomentAnswer):
            fields["p"] = answer.p
    return fields


def _sample_value(value: Any) -> Any:
    """JSON-safe collector sample (Answer envelopes are unwrapped)."""
    if isinstance(value, MapAnswer):
        return {str(item): v for item, v in value.values.items()}
    if isinstance(value, Answer):
        return value.value
    return value


class LiveSession:
    """One engine's verb dispatcher: request dict → response dict.

    Stateless beyond the collector registry (``subscribe`` hands out
    integer ids that ``series`` resolves), so any number of
    connections can share one session — the engine's lock serializes
    the actual state transitions.
    """

    def __init__(self, engine: LiveEngine) -> None:
        self.engine = engine
        self._collectors: dict[int, Collector] = {}
        self._next_id = 0
        self._id_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request: dict[str, Any]) -> tuple[dict[str, Any], bool]:
        """Serve one request; returns ``(response, keep_serving)``."""
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be an object"}, True
        op = request.get("op")
        handler = getattr(self, f"_op_{str(op).replace('-', '_')}", None)
        if op is None or handler is None:
            return (
                {
                    "ok": False,
                    "error": f"unknown op {op!r}; choose from "
                    f"{sorted(self.verbs())}",
                },
                True,
            )
        try:
            return handler(request)
        except (
            ProtocolError,
            UnsupportedQueryError,
            WriteBudgetExceededError,
            # RuntimeError covers engine-lifecycle violations — e.g.
            # snapshotting a runner that was already merge()d — which
            # must answer in-band, not kill the connection.
            RuntimeError,
            ValueError,
            TypeError,
            KeyError,
        ) as error:
            return {"ok": False, "error": str(error)}, True

    @classmethod
    def verbs(cls) -> list[str]:
        """The protocol's verb names."""
        return sorted(
            name[len("_op_"):].replace("_", "-")
            for name in dir(cls)
            if name.startswith("_op_")
        )

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def _op_append(self, request: dict) -> tuple[dict, bool]:
        appended = self.engine.append(_item_array(request, "append"))
        return (
            {"ok": True, "appended": appended, "head": self.engine.head},
            True,
        )

    def _op_query(self, request: dict) -> tuple[dict, bool]:
        query = _build_query(request)
        max_staleness = request.get("max_staleness")
        live = self.engine.query(
            query,
            refresh=bool(request.get("refresh", False)),
            max_staleness=(
                None if max_staleness is None else int(max_staleness)
            ),
        )
        response = {"ok": True, **_answer_fields(live.answer)}
        response["snapshot_index"] = live.snapshot_index
        response["head"] = live.head
        response["updates_behind"] = live.updates_behind
        return response, True

    def _op_query_batch(self, request: dict) -> tuple[dict, bool]:
        items = _item_array(request, "query-batch")
        max_staleness = request.get("max_staleness")
        live = self.engine.query_batch(
            items,
            refresh=bool(request.get("refresh", False)),
            max_staleness=(
                None if max_staleness is None else int(max_staleness)
            ),
        )
        # One consistent cut: every answer shares the batch's
        # (snapshot_index, head), so the staleness triple is hoisted.
        response: dict[str, Any] = {
            "ok": True,
            "answers": [_answer_fields(a.answer) for a in live],
        }
        if live:
            first = live[0]
            response["snapshot_index"] = first.snapshot_index
            response["head"] = first.head
            response["updates_behind"] = first.updates_behind
        else:
            response["snapshot_index"] = self.engine.snapshot_index
            response["head"] = self.engine.head
            response["updates_behind"] = self.engine.updates_behind
        return response, True

    def _op_subscribe(self, request: dict) -> tuple[dict, bool]:
        kind = request.get("kind")
        if kind == StateChangesCollector.name:
            collector: Collector = StateChangesCollector()
        else:
            collector = QueryCollector(_build_query(request))
        self.engine.subscribe(collector)
        with self._id_lock:
            collector_id = self._next_id
            self._next_id += 1
            self._collectors[collector_id] = collector
        return {"ok": True, "id": collector_id, "kind": kind}, True

    def _op_series(self, request: dict) -> tuple[dict, bool]:
        collector_id = request.get("id")
        collector = self._collectors.get(collector_id)
        if collector is None:
            raise ProtocolError(
                f"unknown collector id {collector_id!r}; subscribe first"
            )
        series = [
            [index, _sample_value(value)]
            for index, value in collector.series
        ]
        return {"ok": True, "id": collector_id, "series": series}, True

    def _op_snapshot(self, request: dict) -> tuple[dict, bool]:
        snapshot = self.engine.snapshot(
            refresh=bool(request.get("refresh", True))
        )
        return (
            {
                "ok": True,
                "snapshot_index": snapshot.update_index,
                "head": self.engine.head,
                "items": snapshot.sketch.items_processed,
                "state_changes": snapshot.report.state_changes,
                "peak_words": snapshot.report.peak_words,
            },
            True,
        )

    def _op_stats(self, request: dict) -> tuple[dict, bool]:
        engine = self.engine
        cache = engine.answer_cache
        return (
            {
                "ok": True,
                "answer_cache": (
                    None
                    if cache is None
                    else {
                        "capacity": cache.capacity,
                        "entries": len(cache),
                        "hits": cache.hits,
                        "misses": cache.misses,
                    }
                ),
                "sketch": engine.sketch_name,
                "updates_behind": engine.updates_behind,
                "snapshot_every": engine.snapshot_every,
                "shards": engine.shards,
                "tracking": engine.tracking,
                "collectors": len(engine.collectors),
                "supports": sorted(str(k) for k in engine.supports),
                # head / snapshot_index / snapshots_taken plus the
                # snapshot-refresh metrics (refresh_* timings,
                # append-lock accounting, memoized-tree counters).
                **engine.stats(),
            },
            True,
        )

    def _op_shutdown(self, request: dict) -> tuple[dict, bool]:
        self.engine.finish()
        return {"ok": True, "head": self.engine.head}, False


class _LineHandler(socketserver.StreamRequestHandler):
    """One connection: JSON lines in, JSON lines out."""

    def handle(self) -> None:
        server: LiveServer = self.server  # type: ignore[assignment]
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                response, alive = (
                    {"ok": False, "error": f"bad JSON: {error}"},
                    True,
                )
            else:
                response, alive = server.session.handle(request)
            self.wfile.write(
                (json.dumps(response) + "\n").encode("utf-8")
            )
            self.wfile.flush()
            if not alive:
                # shutdown() must come from outside the serve_forever
                # thread; handler threads qualify.
                threading.Thread(
                    target=server.shutdown, daemon=True
                ).start()
                return


class LiveServer(socketserver.ThreadingTCPServer):
    """Threaded JSON-lines TCP server around one :class:`LiveSession`.

    ``port=0`` binds an ephemeral port; read the actual one from
    :attr:`address`.  Each connection gets a handler thread; the
    engine's internal lock makes interleaved appends and queries from
    different connections safe, and queries that hit an existing
    snapshot never wait on an in-flight append.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        engine: LiveEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _LineHandler)
        self.session = LiveSession(engine)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self.server_address[:2]
        return str(host), int(port)


def serve(
    engine: LiveEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Any = None,
) -> None:
    """Run a :class:`LiveServer` until a ``shutdown`` verb arrives.

    ``ready`` (a callable) is invoked with the bound ``(host, port)``
    once the socket is listening — the CLI prints its "serving" line
    from it, which is what smoke tests wait on.
    """
    with LiveServer(engine, host, port) as server:
        if ready is not None:
            ready(server.address)
        server.serve_forever(poll_interval=0.05)


def request(
    host: str, port: int, payload: dict[str, Any], timeout: float = 10.0
) -> dict[str, Any]:
    """One-shot client helper: send one verb, return the response.

    Opens a connection per call — fine for tests and smoke checks;
    throughput-sensitive clients should hold one connection and
    stream lines.
    """
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        reader = conn.makefile("r", encoding="utf-8")
        line = reader.readline()
    if not line:
        raise ConnectionError("server closed the connection mid-request")
    return json.loads(line)
