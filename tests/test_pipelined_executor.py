"""The pipelined shared-memory executor and the parallel bug burn-down.

Two executors exist — serial and the pipelined process pool — and
the contract is that the executor changes wall-clock time, never
results.  These tests pin that down over chunked (columnar) streams,
the coin-drawing families, mid-chunk budget cutover, and checkpoint
round-trips, plus the failure contract (shard context on worker
errors, no silently merged partial results, no leaked shared-memory
segments) and the container-aware sizing / fork-safety policies.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest

from repro import registry
from repro.api import Engine
from repro.runtime import parallel
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.parallel import (
    PipelinedShardPool,
    ShardIngestError,
    available_cpus,
    resolve_start_method,
    resolve_workers,
    wrap_shard_error,
)
from repro.runtime.sharded import EXECUTORS as ALL_EXECUTORS, ShardedRunner
from repro.state.budget import WriteBudget, WriteBudgetExceededError
from repro.streams import zipf_stream
from repro.streams.chunked import ChunkedStream

N, M = 512, 6000

#: Every non-serial executor.
EXECUTORS = [executor for executor in ALL_EXECUTORS if executor != "serial"]


@pytest.fixture(scope="module")
def arr():
    return np.asarray(zipf_stream(N, M, skew=1.2, seed=3), dtype=np.int64)


def make_runner(name, executor, *, seed=7, shards=4, **kw):
    return ShardedRunner.from_registry(
        name, shards, n=N, m=M, epsilon=1.0, seed=seed,
        executor=executor, **kw,
    )


def canonical(sketch) -> str:
    return json.dumps(sketch.to_state(), sort_keys=True)


def shm_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


class TestChunkedGoldenEquivalence:
    @pytest.mark.parametrize("name", registry.mergeable_names())
    def test_all_executors_match_serial_on_chunked_streams(
        self, name, arr
    ):
        def run(executor, **kw):
            return make_runner(
                name, executor, chunk_size=1024, **kw
            ).run(ChunkedStream(arr))

        serial = run("serial")
        for executor in EXECUTORS:
            other = run(executor)
            assert canonical(other.merged) == canonical(serial.merged), (
                executor
            )
            assert other.shard_reports == serial.shard_reports, executor
            assert other.shard_items == serial.shard_items, executor
            assert other.budget_reports == serial.budget_reports, executor

    @pytest.mark.parametrize("name", ["count-min-morris", "pstable-fp"])
    def test_coin_families_bit_identical_under_every_mode(self, name, arr):
        def run(executor, **kw):
            return make_runner(name, executor, **kw).run(
                ChunkedStream(arr[:3000])
            )

        serial = run("serial")
        for executor in EXECUTORS:
            other = run(executor)
            assert canonical(other.merged) == canonical(serial.merged), (
                executor
            )

    def test_tight_ring_backpressure_is_bit_neutral(self, arr):
        # depth=1 with a tiny slot: every submit wraps the ring and
        # blocks on the worker — maximum back-pressure, same bits.
        # The pool is fed directly, routed by the per-item reference.
        def runner():
            return ShardedRunner.from_registry(
                "count-min", 3, n=N, m=M, epsilon=0.5, seed=11,
                chunk_size=256,
            )

        serial = runner()
        serial.ingest(ChunkedStream(arr))
        empty = runner()
        routes = np.asarray([empty.shard_of(int(item)) for item in arr])
        pool = PipelinedShardPool(
            [(i, shard.to_state()) for i, shard in enumerate(empty.shards)],
            slot_items=64, depth=1,
        )
        for low in range(0, len(arr), 256):
            chunk, shard_of = arr[low:low + 256], routes[low:low + 256]
            for index in range(3):
                if (shard_of == index).any():
                    pool.submit(index, chunk[shard_of == index])
        states = dict(pool.finish())
        assert sorted(states) == [0, 1, 2]
        for index, shard in enumerate(serial.shards):
            restored = type(shard).from_state(states[index])
            assert canonical(restored) == canonical(shard)

    def test_each_ingest_call_finishes_its_own_pool(self, arr):
        runner = make_runner("count-min", "process")
        runner.ingest(arr[:2500])
        # The call's pool is finished and its workers are gone.
        assert not multiprocessing.active_children()
        runner.ingest(arr[2500:])
        merged = runner.merge()
        serial = make_runner("count-min", "serial")
        serial.ingest(arr)
        assert canonical(merged) == canonical(serial.merge())

    def test_scalar_streams_flush_through_the_ring(self, arr):
        # Plain iterables are pulled in chunk_size pieces and routed
        # into the ring; the scalar → chunk conversion is bit-neutral.
        def run(executor):
            runner = ShardedRunner.from_registry(
                "misra-gries", 3, n=N, m=M, epsilon=0.5, seed=2,
                executor=executor, chunk_size=100,
            )
            runner.ingest(int(x) for x in arr[:2000])
            return runner.merge()

        serial = run("serial")
        for executor in EXECUTORS:
            assert canonical(run(executor)) == canonical(serial), executor

    def test_engine_answers_match_on_pipelined(self, arr):
        def report(executor):
            return Engine(
                "count-min", n=N, m=M, epsilon=0.2, seed=9, shards=4,
                executor=executor,
            ).run(arr)

        serial = report("serial")
        other = report("process")
        assert [
            (type(q).__name__, a) for q, a in other.answers
        ] == [(type(q).__name__, a) for q, a in serial.answers]
        assert other.audit == serial.audit

    def test_checkpoint_round_trip_from_pipelined_merge(self, arr):
        merged = make_runner("kmv", "process").run(
            ChunkedStream(arr)
        ).merged
        restored = Checkpoint.loads(Checkpoint.dumps(merged))
        assert canonical(restored) == canonical(merged)
        serial = make_runner("kmv", "serial").run(ChunkedStream(arr))
        assert canonical(restored) == canonical(serial.merged)


class TestBudgetCutover:
    @pytest.mark.parametrize("policy", ["freeze", "degrade"])
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_mid_chunk_cutover_matches_serial(self, policy, executor, arr):
        # A limit that trips partway through a 1024-item chunk: the
        # cutover index must be exact in every executor.
        def run(mode_executor):
            return ShardedRunner.from_registry(
                "count-min", 3, n=N, m=M, epsilon=0.5, seed=4,
                executor=mode_executor,
                budget=WriteBudget(701, policy), chunk_size=1024,
            ).run(ChunkedStream(arr))

        serial = run("serial")
        other = run(executor)
        assert canonical(other.merged) == canonical(serial.merged)
        assert other.budget_reports == serial.budget_reports
        assert other.shard_reports == serial.shard_reports

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_raise_policy_keeps_type_and_carries_shard_context(
        self, executor, arr
    ):
        runner = ShardedRunner.from_registry(
            "count-min", 3, n=N, m=M, epsilon=0.5, seed=4,
            executor=executor,
            budget=WriteBudget(90, "raise"),
        )
        with pytest.raises(WriteBudgetExceededError) as excinfo:
            runner.ingest(arr)
            runner.merge()
        context = excinfo.value.__cause__
        assert isinstance(context, ShardIngestError)
        assert 0 <= context.shard_index < 3
        assert context.offset >= 0
        assert isinstance(context.cause, WriteBudgetExceededError)
        # Partial results are latched dead, not silently merged.
        with pytest.raises(RuntimeError, match="failed"):
            runner.merge()
        with pytest.raises(RuntimeError, match="failed"):
            runner.shard_reports()


class TestFaultPaths:
    @staticmethod
    def _boom(self, chunk):
        raise ValueError("injected shard fault")

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_injected_fault_pipelined_shuts_down_cleanly(
        self, arr, monkeypatch
    ):
        # Fork workers inherit the monkeypatch; the fault strikes
        # inside a worker, surfaces with shard context, kills the
        # pool, and unlinks every shared segment.
        before = shm_segments()
        cls = registry.spec("count-min").cls
        monkeypatch.setattr(cls, "process_chunk", self._boom)
        monkeypatch.setattr(parallel, "resolve_start_method", lambda: "fork")
        runner = make_runner("count-min", "process")
        with pytest.raises(ShardIngestError) as excinfo:
            runner.ingest(arr)
            runner.merge()
        assert isinstance(excinfo.value.cause, ValueError)
        assert "injected shard fault" in str(excinfo.value)
        assert excinfo.value.worker_traceback  # crossed the boundary
        with pytest.raises(RuntimeError, match="failed"):
            runner.merge()
        assert shm_segments() <= before  # nothing leaked
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
        assert not multiprocessing.active_children()

    def test_budget_abort_leaves_no_segments(self, arr):
        before = shm_segments()
        runner = make_runner(
            "count-min", "process", budget=WriteBudget(60, "raise")
        )
        with pytest.raises(WriteBudgetExceededError):
            runner.ingest(arr)
            runner.merge()
        assert shm_segments() <= before

    def test_successful_run_leaves_no_segments(self, arr):
        before = shm_segments()
        make_runner("count-min", "process").run(
            ChunkedStream(arr[:2000])
        )
        assert shm_segments() <= before

    def test_pool_close_is_idempotent(self):
        shard = registry.create("count-min", n=64, m=256, seed=1)
        pool = PipelinedShardPool(
            [(0, shard.to_state())], slot_items=64, depth=2
        )
        pool.submit(0, np.asarray([1, 2, 3], dtype=np.int64))
        results = list(pool.finish())
        assert len(results) == 1 and results[0][0] == 0
        pool.close()
        pool.close()


class TestShardIngestErrorContract:
    def test_pickles_round_trip(self):
        error = ShardIngestError(
            2, 150, WriteBudgetExceededError(10, 25), "tb text"
        )
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, ShardIngestError)
        assert clone.shard_index == 2
        assert clone.offset == 150
        assert isinstance(clone.cause, WriteBudgetExceededError)
        assert clone.worker_traceback == "tb text"
        assert "shard 2" in str(clone) and "150" in str(clone)

    def test_unpicklable_cause_replaced_with_repr(self):
        shard = registry.create("count-min", n=64, m=256, seed=1)
        nasty = ValueError(threading.Lock())  # locks cannot pickle
        wrapped = wrap_shard_error(1, shard, nasty)
        clone = pickle.loads(pickle.dumps(wrapped))
        assert isinstance(clone.cause, RuntimeError)
        assert "lock" in str(clone.cause)


class TestWorkerSizing:
    def test_available_cpus_prefers_process_cpu_count(self, monkeypatch):
        monkeypatch.setattr(
            os, "process_cpu_count", lambda: 3, raising=False
        )
        assert available_cpus() == 3

    def test_available_cpus_falls_back_to_affinity(self, monkeypatch):
        # Regression: a 48-core host with a 2-CPU affinity mask (the
        # container case) must size pools at 2, not 48.
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 5}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 48)
        assert available_cpus() == 2
        assert resolve_workers(8) == 2

    def test_available_cpus_last_resort_is_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cpus() == 6

    def test_one_worker_owns_several_shards(self, monkeypatch, arr):
        # Two usable CPUs for four shards, whatever the machine: each
        # worker owns two shards' rings, and the bits do not change.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        shards = [
            registry.create("count-min", n=N, m=M, seed=3)
            for _ in range(4)
        ]
        pool = PipelinedShardPool(
            [(index, shard.to_state()) for index, shard in enumerate(shards)],
            slot_items=256,
        )
        assert pool.workers == 2
        for index, shard in enumerate(shards):
            part = arr[index::4]
            pool.submit(index, part)
            shard.process_chunk(part)
        states = dict(pool.finish())
        assert sorted(states) == [0, 1, 2, 3]
        for index, shard in enumerate(shards):
            assert states[index] == shard.to_state()
        process = make_runner("misra-gries", "process").run(arr)
        serial = make_runner("misra-gries", "serial").run(arr)
        assert canonical(process.merged) == canonical(serial.merged)
        assert process.shard_reports == serial.shard_reports


class TestStartMethodPolicy:
    def test_fork_refused_with_background_threads(self):
        # The LiveServer scenario: a handler thread is alive when the
        # pool launches; forking would copy its locks sans owner.
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait, daemon=True)
        worker.start()
        try:
            assert resolve_start_method() != "fork"
        finally:
            stop.set()
            worker.join(timeout=5.0)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_bit_identity_across_start_methods(
        self, method, arr, monkeypatch
    ):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} unavailable")
        monkeypatch.setattr(parallel, "resolve_start_method", lambda: method)
        result = ShardedRunner.from_registry(
            "count-min", 2, n=N, m=M, epsilon=0.5, seed=6,
            executor="process",
        ).run(ChunkedStream(arr[:2000]))
        serial = ShardedRunner.from_registry(
            "count-min", 2, n=N, m=M, epsilon=0.5, seed=6,
        ).run(ChunkedStream(arr[:2000]))
        assert canonical(result.merged) == canonical(serial.merged)
        assert result.shard_reports == serial.shard_reports


class TestCliFlags:
    def test_run_accepts_process_executor(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--algorithm", "count-min", "--workload", "zipf",
            "--shards", "2", "--executor", "process",
            "--n", "64", "--m", "500",
        ]) == 0
        assert "count-min" in capsys.readouterr().out
