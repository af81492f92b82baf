"""Golden equivalence tests for the process-pool shard executor.

The contract under test: ``executor="process"`` changes wall-clock
time, never results.  For every mergeable family the merged sketch's
``to_state()`` must be *byte-identical* to the serial executor's on the
same seed — payload, configuration, RNG position, and the full
state-change audit — and the per-shard reports, routed item counts,
and query answers must match exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import registry
from repro.api import Engine
from repro.cli import build_parser, main
from repro.runtime import parallel
from repro.runtime.parallel import PipelinedShardPool, resolve_workers
from repro.runtime.sharded import EXECUTORS, ShardedRunner
from repro.state.algorithm import NotSerializableError, Sketch
from repro.streams import zipf_stream

N, M = 512, 6000


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(N, M, skew=1.2, seed=3)


def canonical(sketch) -> str:
    return json.dumps(sketch.to_state(), sort_keys=True)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", registry.mergeable_names())
    def test_process_matches_serial_bit_for_bit(self, name, stream):
        def run(executor):
            return ShardedRunner.from_registry(
                name, 4, n=N, m=M, epsilon=1.0, seed=7,
                executor=executor,
            ).run(stream)

        serial = run("serial")
        process = run("process")
        assert canonical(process.merged) == canonical(serial.merged)
        assert process.shard_reports == serial.shard_reports
        assert process.shard_items == serial.shard_items
        assert process.merged_report == serial.merged_report
        assert process.skew == serial.skew

    @pytest.mark.parametrize("name", ["count-min", "misra-gries"])
    def test_engine_answers_match_across_executors(self, name, stream):
        def report(executor):
            return Engine(
                name, n=N, m=M, epsilon=0.2, seed=9, shards=4,
                executor=executor,
            ).run(stream)

        serial = report("serial")
        process = report("process")
        assert [
            (type(q).__name__, a) for q, a in process.answers
        ] == [(type(q).__name__, a) for q, a in serial.answers]
        assert process.audit == serial.audit
        assert process.shard_reports == serial.shard_reports
        assert process.executor == "process"


class TestProcessExecutorBehaviour:
    def test_empty_stream(self):
        result = ShardedRunner.from_registry(
            "count-min", 4, seed=1, executor="process"
        ).run([])
        assert result.skew == 1.0
        assert result.merged.items_processed == 0

    def test_ingest_after_execution_rejected(self):
        runner = ShardedRunner.from_registry(
            "count-min", 2, seed=2, executor="process"
        )
        runner.ingest([1, 2, 3])
        runner.merge()
        with pytest.raises(RuntimeError):
            runner.ingest([4])

    def test_non_serializable_sketch_rejected(self):
        # heavy-hitters cannot use the process executor: it has no
        # state hooks, so the pool must fail with the typed error (on
        # a single shard; multi-shard already fails the mergeability
        # check).  The pipelined pool snapshots shards at the first
        # routed part, so the error may surface during ingest() rather
        # than at merge().
        runner = ShardedRunner.from_registry(
            "heavy-hitters", 1, n=64, m=256, executor="process"
        )
        with pytest.raises(NotSerializableError):
            runner.ingest([1, 2, 3])
            runner.merge()

    def test_unknown_executor_rejected(self):
        assert EXECUTORS == ("serial", "process")
        for executor in ("gpu", "thread"):
            with pytest.raises(ValueError, match="unknown executor"):
                ShardedRunner.from_registry(
                    "count-min", 2, executor=executor
                )
            with pytest.raises(ValueError, match="unknown executor"):
                Engine("count-min", executor=executor)
        for command in ("run", "shard"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--executor", "thread"])
            assert excinfo.value.code == 2  # argparse's usage error

    def test_engine_rejects_non_serializable_process_at_construction(self):
        with pytest.raises(ValueError, match="serialization"):
            Engine("heavy-hitters", executor="process")
        # The same family is fine on the serial executor.
        assert Engine("heavy-hitters", executor="serial")

    def test_worker_entry_point_round_trips(self):
        # One shard through a real pool worker: it must return a state
        # equal to what local scalar ingestion produces.
        shard = registry.create("count-min", n=64, m=256, seed=5)
        pool = PipelinedShardPool([(3, shard.to_state())], slot_items=64)
        pool.submit(3, np.asarray([1, 2, 2, 7], dtype=np.int64))
        [(index, state)] = list(pool.finish())
        local = registry.create("count-min", n=64, m=256, seed=5)
        local.process_many([1, 2, 2, 7])
        assert index == 3
        assert state == local.to_state()

    def test_resolve_workers(self, monkeypatch):
        # One worker per shard, capped by the usable CPUs.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        assert resolve_workers(4) == 2
        assert resolve_workers(1) == 1
        assert resolve_workers(0) == 1


def serializable(name: str) -> bool:
    """Whether ``name`` has the state hooks the process executor
    round-trips shards through (the check ``Engine`` makes)."""
    return registry.spec(name).cls._config_state is not Sketch._config_state


#: Families without state hooks: they run on the serial executor only.
SERIAL_ONLY = [name for name in registry.names() if not serializable(name)]


class TestExecutorDeclaration:
    """``runtime.sharded`` declares the executors once; the runner,
    ``Engine`` and the CLI all read that declaration.

    No family needs an executor beyond serial and the process pool: a
    family without state hooks is not mergeable either, so it runs on
    one serial shard.
    """

    def test_two_executors(self):
        assert EXECUTORS == ("serial", "process")

    @pytest.mark.parametrize(
        ("command", "option", "declared"),
        [
            pytest.param("run", "--executor", EXECUTORS, id="run-executor"),
            pytest.param("shard", "--executor", EXECUTORS, id="shard-executor"),
        ],
    )
    def test_cli_choices_are_the_runtime_declaration(
        self, command, option, declared
    ):
        parser = build_parser()
        dest = option.lstrip("-")
        for value in declared:
            args = parser.parse_args([command, option, value])
            assert getattr(args, dest) == value
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([command, option, "thread"])
        assert excinfo.value.code == 2  # argparse's usage error

    def test_rejections_list_the_declared_choices(self):
        with pytest.raises(ValueError) as excinfo:
            Engine("count-min", executor="thread")
        assert str(EXECUTORS) in str(excinfo.value)

    def test_no_error_message_offers_threads(self, stream):
        with pytest.raises(ValueError) as excinfo:
            Engine("heavy-hitters", executor="process")
        assert "executor='serial'" in str(excinfo.value)
        assert "thread" not in str(excinfo.value)
        engine = Engine("count-min", n=N, m=M, seed=5, executor="process")
        with pytest.raises(ValueError) as excinfo:
            engine.run(stream, queries=(), nvm="pcm")
        assert "executor='serial'" in str(excinfo.value)
        assert "thread" not in str(excinfo.value)

    @pytest.mark.parametrize("name", SERIAL_ONLY)
    def test_serial_only_family_runs_on_one_serial_shard(self, name):
        assert not registry.spec(name).mergeable
        with pytest.raises(ValueError, match="not mergeable"):
            Engine(name, shards=2)
        with pytest.raises(ValueError, match="serialization"):
            Engine(name, executor="process")
        runner = ShardedRunner.from_registry(name, 1, n=64, m=256, seed=1)
        runner.ingest([1, 2, 2, 3])
        assert runner.merge().items_processed == 4


class TestSkewRegression:
    """``ShardedRunResult.skew`` on degenerate streams (regression)."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_empty_stream_skew_is_one(self, executor):
        result = ShardedRunner.from_registry(
            "count-min", 4, seed=0, executor=executor
        ).run([])
        assert result.skew == 1.0  # not a ZeroDivisionError

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_single_item_stream_skew_is_num_shards(self, executor):
        result = ShardedRunner.from_registry(
            "count-min", 4, seed=0, executor=executor
        ).run([5])
        assert result.skew == pytest.approx(4.0)
        assert sum(result.shard_items) == 1
