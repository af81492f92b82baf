"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestAudit:
    def test_audit_heavy_hitters(self, capsys):
        code = main([
            "audit", "--algorithm", "heavy-hitters",
            "--n", "256", "--m", "4096", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "state_changes=" in out
        assert "heavy hitters:" in out

    @pytest.mark.parametrize(
        "algorithm",
        ["misra-gries", "space-saving", "count-min", "count-min-morris",
         "count-sketch", "exact", "sample-and-hold"],
    )
    def test_audit_each_algorithm(self, capsys, algorithm):
        code = main([
            "audit", "--algorithm", algorithm,
            "--n", "128", "--m", "1024", "--seed", "2",
        ])
        assert code == 0
        assert "audit:" in capsys.readouterr().out

    def test_audit_kmv(self, capsys):
        code = main([
            "audit", "--algorithm", "kmv",
            "--workload", "uniform", "--n", "512", "--m", "2048",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "distinct estimate:" in out

    def test_audit_with_truth(self, capsys):
        code = main([
            "audit", "--algorithm", "misra-gries",
            "--n", "64", "--m", "512", "--truth",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ground truth:" in out

    def test_audit_from_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("\n".join(["3"] * 50 + ["1", "2"]))
        code = main([
            "audit", "--algorithm", "exact", "--input", str(trace),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3: 50" in out

    def test_unknown_algorithm_exits(self):
        with pytest.raises(SystemExit):
            main(["audit", "--algorithm", "quantum", "--m", "16"])

    def test_audit_workload_errors_exit_cleanly(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["audit", "--workload", "tsunami", "--m", "16"])
        with pytest.raises(SystemExit, match="trace-replay needs a file"):
            main(["audit", "--workload", "trace-replay", "--m", "16"])


class TestRun:
    def test_run_named_workload(self, capsys):
        code = main([
            "run", "--algorithm", "count-min", "--workload", "bursty",
            "--n", "256", "--m", "2000", "--epsilon", "0.3", "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload=bursty" in out
        assert "state_changes=" in out

    def test_run_sharded_process_executor(self, capsys):
        code = main([
            "run", "--algorithm", "count-min", "--workload", "phase-shift",
            "--shards", "4", "--executor", "process",
            "--n", "256", "--m", "2000", "--epsilon", "0.3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "(process)" in out
        assert "skew=" in out

    def test_run_unknown_workload_names_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "tsunami", "--m", "64"])
        message = str(excinfo.value)
        assert "unknown workload 'tsunami'" in message
        assert "bursty" in message and "zipf" in message

    def test_run_non_mergeable_sharded_exits(self):
        with pytest.raises(SystemExit, match="not mergeable"):
            main([
                "run", "--algorithm", "sample-and-hold",
                "--shards", "2", "--m", "64",
            ])

    def test_run_trace_replay_workload(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("\n".join(["3"] * 40 + ["1", "2"]))
        code = main([
            "run", "--algorithm", "exact", "--workload", "trace-replay",
            "--trace", str(trace), "--n", "8", "--m", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "items=42" in out

    def test_run_trace_replay_without_file_exits(self):
        with pytest.raises(SystemExit, match="trace-replay needs a file"):
            main(["run", "--workload", "trace-replay", "--m", "64"])

    def test_run_non_serializable_process_executor_exits(self):
        with pytest.raises(SystemExit, match="serialization"):
            main([
                "run", "--algorithm", "heavy-hitters",
                "--executor", "process", "--m", "64",
            ])


class TestShard:
    def test_shard_scaling_prints_table(self, capsys):
        code = main([
            "shard", "--sketch", "count-min", "--shards", "1,2",
            "--n", "256", "--m", "2048", "--epsilon", "0.2", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sharded ingestion scaling" in out
        assert "count-min" in out

    def test_aggregate_estimator_sketch(self, capsys):
        # kmv has no per-item estimate(); scored on its F0 scalar.
        code = main([
            "shard", "--sketch", "kmv", "--shards", "1,2",
            "--n", "256", "--m", "1024", "--epsilon", "0.3",
        ])
        assert code == 0
        assert "kmv" in capsys.readouterr().out

    def test_process_executor_matches_serial_table(self, capsys):
        flags = [
            "shard", "--sketch", "count-min", "--shards", "1,2",
            "--n", "256", "--m", "2048", "--epsilon", "0.2", "--seed", "3",
        ]
        assert main(flags + ["--executor", "process"]) == 0
        process_table = capsys.readouterr().out
        assert main(flags + ["--executor", "serial"]) == 0
        serial_table = capsys.readouterr().out
        assert "Sharded ingestion scaling" in process_table
        # Process execution is bit-identical to serial, so the whole
        # printed sweep — including the deviation column — must match.
        assert process_table == serial_table

    def test_named_workload(self, capsys):
        code = main([
            "shard", "--sketch", "count-min", "--shards", "1,2",
            "--workload", "bursty",
            "--n", "128", "--m", "1024", "--epsilon", "0.3",
        ])
        assert code == 0
        assert "count-min" in capsys.readouterr().out

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["shard", "--workload", "tsunami", "--m", "64"])

    def test_non_mergeable_sketch_exits(self):
        with pytest.raises(SystemExit):
            main(["shard", "--sketch", "sample-and-hold", "--shards", "2"])

    def test_bad_shard_list_exits(self):
        with pytest.raises(SystemExit):
            main(["shard", "--shards", "two"])
        with pytest.raises(SystemExit):
            main(["shard", "--shards", "0"])

    def test_unknown_sketch_exits(self):
        with pytest.raises(SystemExit):
            main(["shard", "--sketch", "quantum"])

    @pytest.mark.parametrize("command", ["run", "shard", "serve"])
    def test_there_is_no_coin_protocol_flag(self, command, capsys):
        # One coin protocol is left, so there is nothing to choose.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--coin-protocol", "v2"])
        assert exit_info.value.code == 2  # argparse: unknown argument
        assert "--coin-protocol" in capsys.readouterr().err


class TestTable1:
    def test_table1_prints(self, capsys):
        code = main(["table1", "--n", "1024", "--m", "4096"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Misra-Gries" in out
        assert "this paper" in out


class TestParser:
    @pytest.mark.parametrize(
        ("command", "flag"),
        [
            ("run", "--pipeline-depth"),
            ("shard", "--pipeline-depth"),
            ("serve", "--snapshot-mode"),
            ("run", "--partition"),
            ("run", "--start-method"),
            ("shard", "--partition"),
            ("serve", "--partition"),
        ],
    )
    def test_removed_flags_are_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            main([command, flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.strip().split(" ", 1)[1]  # a non-empty version string


class TestRunAccounting:
    def test_run_with_freeze_budget_prints_budget_line(self, capsys):
        code = main([
            "run", "--algorithm", "count-min", "--workload", "zipf",
            "--n", "128", "--m", "1024", "--budget", "50",
            "--budget-policy", "freeze",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "budget=50 (freeze)" in out
        assert "state_changes=50" in out
        assert "exhausted=True" in out

    def test_run_with_raise_budget_aborts_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--algorithm", "exact", "--workload", "zipf",
                "--n", "128", "--m", "1024", "--budget", "10",
            ])
        assert "write budget" in str(excinfo.value)

    def test_run_sharded_budget_prints_per_shard_budgets(self, capsys):
        code = main([
            "run", "--algorithm", "count-min", "--workload", "zipf",
            "--n", "128", "--m", "1024", "--shards", "2",
            "--budget", "41", "--budget-policy", "freeze",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "budgets=[" in out

    def test_run_with_nvm_prints_pricing(self, capsys):
        code = main([
            "run", "--algorithm", "count-min", "--workload", "zipf",
            "--n", "128", "--m", "1024", "--nvm", "pcm",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "nvm=PCM" in out
        assert "energy=" in out
        assert "lifetime=" in out

    def test_run_nvm_rejects_process_executor(self):
        with pytest.raises(SystemExit):
            main([
                "run", "--algorithm", "count-min", "--workload", "zipf",
                "--n", "128", "--m", "1024", "--nvm", "pcm",
                "--executor", "process",
            ])

    def test_run_negative_budget_exits(self):
        with pytest.raises(SystemExit):
            main([
                "run", "--algorithm", "count-min", "--workload", "zipf",
                "--budget", "-1",
            ])

    def test_run_tracking_trace_accepted(self, capsys):
        code = main([
            "run", "--algorithm", "count-min", "--workload", "zipf",
            "--n", "128", "--m", "1024", "--tracking", "trace",
        ])
        assert code == 0
        assert "state_changes" in capsys.readouterr().out
