"""Tests for the JSON-lines serving front end.

:class:`~repro.serve.LiveSession` is a pure ``dict -> dict`` protocol
dispatcher, so most coverage drives it directly; a smaller set of
tests binds a real :class:`~repro.serve.LiveServer` on an ephemeral
port and exercises the socket path, including concurrent appends and
queries from separate connections and the ``repro serve`` CLI
entry point end to end.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading

from repro.serve import LiveEngine, LiveServer, LiveSession, serve
from repro.serve.server import request
from repro.streams import zipf_stream

N = 512


def make_session(**kwargs) -> LiveSession:
    kwargs.setdefault("n", N)
    kwargs.setdefault("epsilon", 0.2)
    kwargs.setdefault("seed", 1)
    kwargs.setdefault("snapshot_every", 256)
    return LiveSession(LiveEngine("count-min", **kwargs))


def ok(session: LiveSession, req: dict) -> dict:
    response, alive = session.handle(req)
    assert response["ok"], response
    assert alive
    return response


class TestLiveSessionVerbs:
    def test_append_then_query_round_trip(self):
        session = make_session()
        stream = list(zipf_stream(N, 1000, seed=2))
        response = ok(session, {"op": "append", "items": stream})
        assert response == {"ok": True, "appended": 1000, "head": 1000}
        answer = ok(
            session, {"op": "query", "kind": "point", "item": stream[0]}
        )
        assert answer["kind"] == "point"
        assert answer["value"] >= 1
        assert answer["snapshot_index"] == 768  # last cadence boundary
        assert answer["head"] == 1000
        assert answer["updates_behind"] == 232

    def test_query_refresh_hits_head(self):
        session = make_session()
        ok(session, {"op": "append", "items": list(range(300))})
        fresh = ok(
            session,
            {"op": "query", "kind": "point", "item": 5, "refresh": True},
        )
        assert fresh["updates_behind"] == 0
        assert fresh["snapshot_index"] == 300

    def test_query_max_staleness(self):
        session = make_session()
        ok(session, {"op": "append", "items": list(range(300))})
        bounded = ok(
            session,
            {
                "op": "query",
                "kind": "point",
                "item": 5,
                "max_staleness": 10,
            },
        )
        assert bounded["updates_behind"] <= 10

    def test_subscribe_and_series(self):
        session = make_session()
        sub = ok(session, {"op": "subscribe", "kind": "state-changes"})
        ok(
            session,
            {"op": "append", "items": list(zipf_stream(N, 600, seed=3))},
        )
        series = ok(session, {"op": "series", "id": sub["id"]})
        indexes = [index for index, _ in series["series"]]
        assert indexes == [256, 512]
        values = [value for _, value in series["series"]]
        assert values == sorted(values)

    def test_subscribe_query_kind(self):
        session = LiveSession(
            LiveEngine("exact", n=N, seed=1, snapshot_every=200)
        )
        sub = ok(session, {"op": "subscribe", "kind": "distinct"})
        ok(
            session,
            {"op": "append", "items": list(zipf_stream(N, 400, seed=4))},
        )
        series = ok(session, {"op": "series", "id": sub["id"]})
        assert len(series["series"]) == 2

    def test_snapshot_verb_defaults_to_refresh(self):
        session = make_session()
        ok(session, {"op": "append", "items": list(range(100))})
        snap = ok(session, {"op": "snapshot"})
        assert snap["snapshot_index"] == 100
        assert snap["head"] == 100
        assert snap["items"] == 100
        assert snap["state_changes"] > 0
        assert snap["peak_words"] > 0

    def test_stats_verb(self):
        session = make_session()
        ok(session, {"op": "append", "items": list(range(100))})
        stats = ok(session, {"op": "stats"})
        assert stats["sketch"] == "count-min"
        assert stats["head"] == 100
        assert stats["snapshot_every"] == 256
        assert stats["shards"] == 1
        assert "point" in stats["supports"]

    def test_shutdown_stops_serving(self):
        session = make_session()
        ok(session, {"op": "append", "items": [1, 2, 3]})
        response, alive = session.handle({"op": "shutdown"})
        assert response == {"ok": True, "head": 3}
        assert not alive

    def test_verbs_listing(self):
        assert LiveSession.verbs() == [
            "append",
            "query",
            "query-batch",
            "series",
            "shutdown",
            "snapshot",
            "stats",
            "subscribe",
        ]


class TestLiveSessionErrors:
    def error(self, session, req) -> str:
        response, alive = session.handle(req)
        assert response["ok"] is False
        assert alive  # errors never kill the session
        return response["error"]

    def test_unknown_op(self):
        message = self.error(make_session(), {"op": "drop-tables"})
        assert "unknown op" in message
        assert "append" in message

    def test_missing_op(self):
        assert "unknown op" in self.error(make_session(), {})

    def test_non_object_request(self):
        assert "object" in self.error(make_session(), [1, 2, 3])

    def test_append_without_items(self):
        assert "items" in self.error(make_session(), {"op": "append"})

    def test_append_non_integer_items(self):
        message = self.error(
            make_session(), {"op": "append", "items": ["a", "b"]}
        )
        assert "integers" in message

    def test_query_unknown_kind(self):
        message = self.error(
            make_session(), {"op": "query", "kind": "median"}
        )
        assert "unknown query kind" in message

    def test_point_query_without_item(self):
        message = self.error(
            make_session(), {"op": "query", "kind": "point"}
        )
        assert "item" in message

    def test_unsupported_query_reports_capabilities(self):
        # count-min declares point estimates only.
        message = self.error(
            make_session(), {"op": "query", "kind": "entropy"}
        )
        assert "entropy" in message

    def test_series_unknown_id(self):
        message = self.error(
            make_session(), {"op": "series", "id": 99}
        )
        assert "subscribe first" in message

    def test_error_leaves_engine_usable(self):
        session = make_session()
        self.error(session, {"op": "append", "items": "nope"})
        assert ok(session, {"op": "append", "items": [1]})["head"] == 1

    def test_items_outside_int64_ids_are_rejected(self):
        """Item ids are non-negative int64 values on every verb that
        carries them; anything else answers in-band and ingests
        nothing."""
        session = make_session()
        for bad in ([-1], [2**63], [2**64], [1.5], [True], [[1], [2, 3]]):
            for op in ("append", "query-batch"):
                message = self.error(session, {"op": op, "items": bad})
                assert "non-negative int64" in message, (op, bad)
        for item in (-5, 2**64):
            for op in ("query", "subscribe"):
                message = self.error(
                    session, {"op": op, "kind": "point", "item": item}
                )
                assert "non-negative int64" in message, (op, item)
        assert session.engine.head == 0
        assert ok(session, {"op": "append", "items": []})["appended"] == 0
        top = 2**63 - 1
        ok(session, {"op": "append", "items": [0, top]})
        batch = ok(session, {"op": "query-batch", "items": [0, top]})
        assert [a["value"] for a in batch["answers"]] == [1.0, 1.0]


class TestSocketServer:
    def test_round_trip_on_ephemeral_port(self):
        engine = LiveEngine(
            "count-min", n=N, epsilon=0.2, seed=5, snapshot_every=128
        )
        ready = threading.Event()
        bound: list[tuple[str, int]] = []

        def on_ready(address):
            bound.append(address)
            ready.set()

        thread = threading.Thread(
            target=serve,
            args=(engine,),
            kwargs={"port": 0, "ready": on_ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(5.0)
        host, port = bound[0]

        stream = list(zipf_stream(N, 500, seed=6))
        appended = request(host, port, {"op": "append", "items": stream})
        assert appended == {"ok": True, "appended": 500, "head": 500}
        answer = request(
            host, port, {"op": "query", "kind": "point", "item": stream[0]}
        )
        assert answer["ok"] and answer["value"] >= 1
        goodbye = request(host, port, {"op": "shutdown"})
        assert goodbye == {"ok": True, "head": 500}
        thread.join(5.0)
        assert not thread.is_alive()

    def test_bad_lines_get_error_lines(self):
        """Bad JSON and appends of item ids outside non-negative int64
        (-1, 2**64) each answer ``ok: false``, and the same connection
        then serves a valid append."""
        engine = LiveEngine("count-min", n=N, seed=7)
        bad_lines = {
            b"this is not json\n": "bad JSON",
            b'{"op": "append", "items": [-1]}\n': "non-negative int64",
            b'{"op": "append", "items": [18446744073709551616]}\n': (
                "non-negative int64"
            ),
        }
        with LiveServer(engine, port=0) as server:
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            try:
                host, port = server.address
                with socket.create_connection(
                    (host, port), timeout=5.0
                ) as conn:
                    reader = conn.makefile("r", encoding="utf-8")
                    for line, error in bad_lines.items():
                        conn.sendall(line)
                        response = json.loads(reader.readline())
                        assert response["ok"] is False
                        assert error in response["error"]
                    # Same connection keeps serving afterwards.
                    conn.sendall(
                        json.dumps(
                            {"op": "append", "items": [1, 2, 3]}
                        ).encode() + b"\n"
                    )
                    assert json.loads(reader.readline()) == {
                        "ok": True, "appended": 3, "head": 3,
                    }
            finally:
                server.shutdown()
            thread.join(5.0)

    def test_concurrent_appends_and_queries(self):
        engine = LiveEngine(
            "count-min", n=N, epsilon=0.2, seed=8, snapshot_every=512
        )
        with LiveServer(engine, port=0) as server:
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            host, port = server.address
            stream = list(zipf_stream(N, 4000, seed=9))
            failures: list[str] = []

            def writer():
                for start in range(0, len(stream), 400):
                    response = request(
                        host,
                        port,
                        {
                            "op": "append",
                            "items": stream[start:start + 400],
                        },
                    )
                    if not response["ok"]:
                        failures.append(response["error"])

            def reader():
                for _ in range(20):
                    response = request(
                        host,
                        port,
                        {"op": "query", "kind": "point", "item": 0},
                    )
                    if not response["ok"]:
                        failures.append(response["error"])
                    elif response["updates_behind"] < 0:
                        failures.append("negative staleness")

            threads = [
                threading.Thread(target=writer),
                threading.Thread(target=reader),
                threading.Thread(target=reader),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            try:
                assert failures == []
                stats = request(host, port, {"op": "stats"})
                assert stats["head"] == 4000
            finally:
                server.shutdown()
            thread.join(5.0)


class TestServeCli:
    def test_cli_serves_and_shuts_down(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--algorithm",
                "count-min",
                "--port",
                "0",
                "--snapshot-every",
                "128",
                "--n",
                "512",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            ready = process.stdout.readline()
            assert "serving count-min on" in ready
            address = ready.split(" on ", 1)[1].split(" ", 1)[0]
            host, port_text = address.rsplit(":", 1)
            port = int(port_text)
            appended = request(
                host, port, {"op": "append", "items": list(range(300))}
            )
            assert appended["head"] == 300
            answer = request(
                host, port, {"op": "query", "kind": "point", "item": 7}
            )
            assert answer["ok"] and answer["value"] >= 1
            goodbye = request(host, port, {"op": "shutdown"})
            assert goodbye == {"ok": True, "head": 300}
            out, _ = process.communicate(timeout=15)
            assert process.returncode == 0
            assert "shutdown: head=300" in out
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_cli_rejects_unknown_algorithm(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--algorithm",
                "no-such-sketch",
            ],
            capture_output=True,
            env=env,
            text=True,
        )
        assert result.returncode != 0
