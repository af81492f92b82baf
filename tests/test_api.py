"""Tests for the top-level ``Engine`` facade (``repro.api``)."""

from __future__ import annotations

import pytest

from repro import registry
from repro.api import Engine, RunReport
from repro.cli import main
from repro.query import (
    AllEstimates,
    Distinct,
    HeavyHitters,
    Moment,
    PointQuery,
    QueryKind,
    UnsupportedQueryError,
)
from repro.streams import zipf_stream

N, M = 256, 4096


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(N, M, skew=1.3, seed=5)


class TestEngine:
    def test_run_matches_direct_sketch(self, stream):
        engine = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5)
        report = engine.run(stream, queries=[PointQuery(0), PointQuery(1)])
        direct = registry.create("count-min", n=N, m=M, epsilon=0.2, seed=5)
        direct.process_many(stream)
        assert isinstance(report, RunReport)
        assert report.items_processed == len(stream)
        assert report.audit.state_changes == direct.state_changes
        assert report.answers[0][1].value == direct.estimate(0)
        assert report.answers[1][1].value == direct.estimate(1)
        assert report.num_shards == 1 and len(report.shard_reports) == 1
        assert report.wall_time_s > 0

    def test_default_queries_follow_capabilities(self, stream):
        engine = Engine("exact", n=N, m=M)
        kinds = [q.kind for q in engine.default_queries()]
        assert kinds == [
            QueryKind.ALL_ESTIMATES,
            QueryKind.MOMENT,
            QueryKind.DISTINCT,
            QueryKind.ENTROPY,
        ]
        report = engine.run(stream)  # queries=None -> defaults
        assert report.answer(QueryKind.DISTINCT).value == len(set(stream))

    def test_answer_lookup_by_kind(self, stream):
        engine = Engine("ams", n=N, m=M, epsilon=0.3, seed=1)
        report = engine.run(stream, queries=[Moment()])
        assert report.answer(QueryKind.MOMENT).p == 2.0
        with pytest.raises(KeyError):
            report.answer(QueryKind.ENTROPY)

    def test_sharded_run_exposes_per_shard_audits(self, stream):
        engine = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5, shards=4)
        report = engine.run(stream, queries=())
        assert len(report.shard_reports) == 4
        assert report.audit.state_changes == sum(
            shard.state_changes for shard in report.shard_reports
        )
        assert report.skew >= 1.0

    def test_sharded_linear_sketch_matches_single(self, stream):
        single = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5)
        single.run(stream, queries=())
        sharded = Engine(
            "count-min", n=N, m=M, epsilon=0.2, seed=5, shards=4
        )
        sharded.run(stream, queries=())
        for item in range(32):
            assert (
                single.query(PointQuery(item)).value
                == sharded.query(PointQuery(item)).value
            )

    def test_non_mergeable_cannot_shard(self):
        with pytest.raises(ValueError, match="not mergeable"):
            Engine("sample-and-hold", shards=2)

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            Engine("quantum")

    def test_query_before_run_raises(self):
        engine = Engine("count-min")
        with pytest.raises(RuntimeError):
            engine.query(PointQuery(0))

    def test_process_executor_report_matches_serial(self, stream):
        def report(executor):
            return Engine(
                "count-min", n=N, m=M, epsilon=0.2, seed=5, shards=4,
                executor=executor,
            ).run(stream)

        serial = report("serial")
        process = report("process")
        assert process.audit == serial.audit
        assert process.shard_reports == serial.shard_reports
        assert [a for _, a in process.answers] == [
            a for _, a in serial.answers
        ]
        assert process.executor == "process"
        assert "process" in process.summary()

    def test_can_answer_and_unsupported_query(self, stream):
        engine = Engine("kmv", n=N, m=M, epsilon=0.3, seed=2)
        assert engine.can_answer(Distinct())
        assert engine.can_answer(QueryKind.DISTINCT)
        assert not engine.can_answer(AllEstimates())
        engine.run(stream, queries=())
        with pytest.raises(UnsupportedQueryError):
            engine.query(HeavyHitters())


class TestSeedReproducibility:
    """Satellite: one seed threads registry ``create()`` into the
    shards, so runs are reproducible end to end."""

    @pytest.mark.parametrize(
        "name", ["count-min", "misra-gries", "kmv", "pstable-fp"]
    )
    def test_sharded_runs_identical_given_seed(self, stream, name):
        def run():
            engine = Engine(
                name, n=N, m=M, epsilon=0.3, seed=11, shards=4
            )
            report = engine.run(stream, queries=engine.default_queries())
            return engine, report

        first_engine, first = run()
        second_engine, second = run()
        assert first.audit.state_changes == second.audit.state_changes
        assert first.audit.peak_words == second.audit.peak_words
        assert first.skew == second.skew
        assert [
            shard.state_changes for shard in first.shard_reports
        ] == [shard.state_changes for shard in second.shard_reports]
        for (q1, a1), (q2, a2) in zip(first.answers, second.answers):
            assert q1 == q2
            assert a1 == a2
        if QueryKind.POINT in first_engine.supports:
            for item in range(16):
                assert (
                    first_engine.query(PointQuery(item)).value
                    == second_engine.query(PointQuery(item)).value
                )

    def test_rng_heavy_sketch_reproducible_unsharded(self, stream):
        reports = []
        estimates = []
        for _ in range(2):
            engine = Engine("sample-and-hold", n=N, m=M, epsilon=0.5, seed=7)
            report = engine.run(stream, queries=[AllEstimates()])
            reports.append(report)
            estimates.append(dict(report.answer(QueryKind.ALL_ESTIMATES).values))
        assert estimates[0] == estimates[1]
        assert (
            reports[0].audit.state_changes == reports[1].audit.state_changes
        )

    def test_shard_cli_output_reproducible(self, capsys):
        argv = [
            "shard", "--sketch", "count-min", "--shards", "1,2,4",
            "--n", "128", "--m", "1024", "--epsilon", "0.2", "--seed", "9",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "Sharded ingestion scaling" in first


class TestEngineAccounting:
    def test_default_tracking_is_aggregate(self, stream):
        report = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5).run(
            stream, queries=()
        )
        assert report.tracking == "aggregate"
        assert report.audit.cell_writes == {}
        assert report.budget is None and report.nvm is None

    def test_trace_tracking_fills_cell_histogram(self, stream):
        report = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5).run(
            stream, queries=(), tracking="trace"
        )
        assert report.tracking == "trace"
        assert report.audit.max_cell_wear > 0

    def test_tracking_modes_agree_on_audit_and_answers(self, stream):
        reports = {
            mode: Engine("count-min", n=N, m=M, epsilon=0.2, seed=5).run(
                stream, queries=[PointQuery(0), PointQuery(7)], tracking=mode
            )
            for mode in ("aggregate", "trace", "budget")
        }
        base = reports["aggregate"]
        for report in reports.values():
            assert report.audit.state_changes == base.audit.state_changes
            assert report.audit.total_writes == base.audit.total_writes
            assert report.audit.peak_words == base.audit.peak_words
            assert [a for _, a in report.answers] == [
                a for _, a in base.answers
            ]

    def test_freeze_budget_caps_state_changes(self, stream):
        from repro.state import WriteBudget

        report = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5).run(
            stream, queries=(), budget=WriteBudget(100, "freeze")
        )
        assert report.tracking == "budget"
        assert report.audit.state_changes == 100
        assert report.budget.exhausted
        assert report.budget.denied == M - 100

    def test_int_budget_means_raise_policy(self, stream):
        from repro.state import WriteBudgetExceededError

        with pytest.raises(WriteBudgetExceededError):
            Engine("exact", n=N, m=M, seed=5).run(
                stream, queries=(), budget=10
            )

    def test_sharded_budget_even_split_sums(self, stream):
        from repro.state import WriteBudget

        report = Engine(
            "count-min", n=N, m=M, epsilon=0.2, seed=5, shards=4
        ).run(stream, queries=(), budget=WriteBudget(201, "freeze"))
        assert len(report.shard_budgets) == 4
        assert sum(int(b.limit) for b in report.shard_budgets) == 201
        assert report.budget.limit == 201
        assert report.audit.state_changes <= 201

    def test_replicate_split_gives_each_shard_full_limit(self, stream):
        from repro.state import WriteBudget

        report = Engine(
            "count-min", n=N, m=M, epsilon=0.2, seed=5, shards=2
        ).run(
            stream,
            queries=(),
            budget=WriteBudget(60, "freeze"),
            budget_split="replicate",
        )
        assert [int(b.limit) for b in report.shard_budgets] == [60, 60]

    def test_budget_identical_serial_vs_process(self, stream):
        from repro.state import WriteBudget

        def run(executor):
            return Engine(
                "count-min", n=N, m=M, epsilon=0.2, seed=5,
                shards=4, executor=executor,
            ).run(stream, queries=[PointQuery(0)],
                  budget=WriteBudget(300, "freeze"))

        serial, process = run("serial"), run("process")
        assert serial.audit == process.audit
        assert serial.shard_budgets == process.shard_budgets
        assert serial.answers == process.answers

    def test_nvm_run_prices_the_audit(self, stream):
        report = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5).run(
            stream, queries=(), nvm="pcm"
        )
        assert report.nvm is not None
        assert report.nvm.model == "PCM"
        assert report.nvm.device_writes == report.audit.total_writes
        assert report.nvm.energy_nj > 0
        assert report.nvm.max_wear > 0
        assert report.tracking == "trace"

    def test_nvm_accepts_cost_model_instance(self, stream):
        from repro.nvm import NAND_FLASH

        report = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5).run(
            stream, queries=(), nvm=NAND_FLASH
        )
        assert report.nvm.model == "NAND"

    def test_nvm_rejects_process_executor(self, stream):
        engine = Engine(
            "count-min", n=N, m=M, epsilon=0.2, seed=5, executor="process"
        )
        with pytest.raises(ValueError):
            engine.run(stream, queries=(), nvm="pcm")

    def test_nvm_rejects_budget_combination(self, stream):
        engine = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5)
        with pytest.raises(ValueError):
            engine.run(stream, queries=(), nvm="pcm", budget=100)

    def test_unknown_tracking_and_nvm_rejected(self, stream):
        engine = Engine("count-min", n=N, m=M, epsilon=0.2, seed=5)
        with pytest.raises(ValueError):
            engine.run(stream, queries=(), tracking="nope")
        with pytest.raises(ValueError):
            engine.run(stream, queries=(), nvm="sram")
