"""The benchmark's own tests: ``python3 perfbench/selftest.py``.

They check the checks (a corrupted answer must register as a failure
and count toward ``error_rate``), the span arithmetic, the tracer on a
small real run, the bounds and workloads ``BENCHMARK.json`` declares,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import unittest

import numpy as np

import checks
import run
from common import BENCH_DIR, OUT_DIR, ROOT, SRC, percentile
from tracer import Tracer, layer_totals, self_times


def paper_round(stream: np.ndarray) -> dict:
    """A round of ``paper-batch`` output whose answers are exact."""
    counts = np.bincount(stream)
    m = len(stream)
    share = counts[counts > 0] / m
    audit = {
        "stream_length": m, "state_changes": m // 2, "total_writes": m,
        "total_write_attempts": m, "peak_words": 10,
    }
    return {
        "heavy-hitters": {
            "items": m, "audit": audit,
            "answers": {
                "heavy-hitters": {
                    str(i): float(c) for i, c in enumerate(counts) if c
                },
                "moment": float((counts.astype(float) ** 2).sum()),
            },
        },
        "pstable-fp": {
            "items": m, "audit": audit, "answers": {"moment": float(m)},
        },
        "entropy": {
            "items": m, "audit": audit,
            "answers": {"entropy": float(-(share * np.log2(share)).sum())},
        },
    }


def failed_ops(found: list, ops: int = 1) -> int:
    ledger = run.Ledger()
    ledger.checked(found, ops)
    return ledger.failed


class CheckTests(unittest.TestCase):
    def setUp(self) -> None:
        self.stream = np.random.default_rng(7).zipf(1.5, 4000) % 300

    def test_exact_paper_answers_pass(self) -> None:
        by_family, error = checks.check_paper(
            paper_round(self.stream), self.stream, 0.5
        )
        for found in by_family.values():
            self.assertEqual(failed_ops(found), 0, found)
        self.assertAlmostEqual(error, 0.0)

    def test_corrupted_paper_answers_fail(self) -> None:
        corruptions = {
            "heavy-hitters": lambda e: e["answers"]["heavy-hitters"].pop(
                str(int(np.bincount(self.stream).argmax()))
            ),
            "pstable-fp": lambda e: e["answers"].update(moment=1e9),
            "entropy": lambda e: e["answers"].update(entropy=-1.0),
        }
        for family, corrupt in corruptions.items():
            first = paper_round(self.stream)
            corrupt(first[family])
            by_family, _ = checks.check_paper(first, self.stream, 0.5)
            self.assertEqual(failed_ops(by_family[family], 3), 3, family)

    def test_moment_bands(self) -> None:
        """A collapsed heavy-hitters F2 (the estimator's own failure
        mode) passes; answers far outside either band fail."""
        f2 = float((np.bincount(self.stream).astype(float) ** 2).sum())
        m = float(len(self.stream))
        cases = [
            ("heavy-hitters", 0.0, 0),
            ("heavy-hitters", 20 * f2, 1),
            ("heavy-hitters", -1.0, 1),
            ("heavy-hitters", math.nan, 1),
            ("pstable-fp", 3 * m, 0),
            ("pstable-fp", m / 20, 1),
            ("pstable-fp", 20 * m, 1),
        ]
        for family, moment, failed in cases:
            first = paper_round(self.stream)
            first[family]["answers"]["moment"] = moment
            by_family, _ = checks.check_paper(first, self.stream, 0.5)
            self.assertEqual(
                failed_ops(by_family[family]), failed, (family, moment)
            )

    def test_broken_audit_fails(self) -> None:
        first = paper_round(self.stream)
        first["entropy"]["audit"]["state_changes"] = len(self.stream) + 1
        by_family, _ = checks.check_paper(first, self.stream, 0.5)
        self.assertEqual(failed_ops(by_family["entropy"]), 1)

    def linear_round(self, estimates) -> dict:
        m = len(self.stream)
        return {
            "count-min": {
                "items": m,
                "audit": {
                    "stream_length": m, "state_changes": m,
                    "total_writes": 3 * m, "total_write_attempts": 3 * m,
                    "peak_words": 100,
                },
                "point_all": list(estimates),
                "point_first_items": [4, 5],
                "point_first": list(estimates[4:6]),
                "batch_first_items": [0, 1, 2],
                "batch_first": list(estimates[:3]),
            }
        }

    def test_count_min_answers(self) -> None:
        counts = np.bincount(self.stream, minlength=300).astype(float)
        good, _ = checks.check_linear(
            self.linear_round(counts + 2.0), self.stream, 0.01
        )
        self.assertEqual(failed_ops(good), 0, good)
        under = counts + 2.0
        under[5] = counts[5] - 1
        bad, _ = checks.check_linear(
            self.linear_round(under), self.stream, 0.01
        )
        self.assertEqual(failed_ops(bad), 1)
        far = counts + 0.5 * len(self.stream)
        bad, _ = checks.check_linear(
            self.linear_round(far), self.stream, 0.01
        )
        self.assertEqual(failed_ops(bad), 1)

    def test_corrupted_timed_reads_fail(self) -> None:
        entry = {
            "answers": {"moment": 5.0},
            "point_all": [3.0, 1.0, 4.0, 1.0],
        }
        reads = [
            ["answer", "moment", 5.0],
            ["point", 2, 4.0],
            ["batch", [0, 3], [3.0, 1.0]],
        ]
        self.assertEqual(checks.read_mismatches(reads, entry), 0)
        corrupted = [
            ["answer", "moment", 5.5],
            ["point", 2, 3.0],
            ["batch", [0, 3], [3.0, 2.0]],
        ]
        self.assertEqual(checks.read_mismatches(corrupted, entry), 3)

    def test_streamed_points(self) -> None:
        prefix = checks.PrefixCounts(self.stream)
        items = [0, 0, 3, 299]
        snapshots = [0, 100, 4000, 2000]
        exact = [
            int((self.stream[:k] == i).sum()) for i, k in zip(items, snapshots)
        ]
        self.assertEqual(prefix.count(items, snapshots).tolist(), exact)
        self.assertTrue(
            all(checks.check_streamed_points(items, exact, snapshots, prefix))
        )
        wrong = list(exact)
        wrong[2] -= 1
        verdicts = checks.check_streamed_points(
            items, wrong, snapshots, prefix
        )
        self.assertEqual(verdicts, [True, True, False, True])

    def test_error_rate_counts_failed_operations(self) -> None:
        ledger = run.Ledger()
        ledger.ops(10)
        ledger.checked([checks.Check("x", False, "corrupt")], 5)
        self.assertEqual((ledger.attempted, ledger.failed), (15, 5))


class TraceTests(unittest.TestCase):
    def test_self_times(self) -> None:
        spans = self_times(
            [
                {"proc": "p", "id": 1, "parent": 0, "name": "a", "tag": "",
                 "start_ns": 0, "end_ns": 100},
                {"proc": "p", "id": 2, "parent": 1, "name": "b", "tag": "x",
                 "start_ns": 10, "end_ns": 40},
                {"proc": "p", "id": 3, "parent": 1, "name": "b", "tag": "y",
                 "start_ns": 50, "end_ns": 60},
                {"proc": "q", "id": 1, "parent": 0, "name": "c", "tag": "",
                 "start_ns": 0, "end_ns": 5},
            ]
        )
        totals = layer_totals(spans)
        self.assertAlmostEqual(totals["a"], 60e-9)
        self.assertAlmostEqual(totals["b"], 40e-9)
        self.assertAlmostEqual(totals["b|x"], 30e-9)
        self.assertAlmostEqual(totals["c"], 5e-9)

    def test_tracer_on_a_sharded_run(self) -> None:
        sys.path.insert(0, SRC)
        from repro.api import Engine
        from repro.hashing.prime_field import KWiseHash

        original = KWiseHash.__dict__["bucket_many"]
        stream = np.random.default_rng(1).integers(0, 100, 5000)
        tracer = Tracer().install()
        try:
            Engine("count-min", shards=2, epsilon=0.1).run(
                stream, chunk_size=1000
            )
        finally:
            tracer.uninstall()
        self.assertIs(KWiseHash.__dict__["bucket_many"], original)
        spans = [
            {"proc": "t", "id": s[0], "parent": s[1], "name": s[2],
             "tag": s[3], "start_ns": s[4], "end_ns": s[5]}
            for s in tracer.spans
        ]
        totals = layer_totals(self_times(spans))
        self.assertGreater(totals["hashing.bucket_many|runtime.sharded.ingest"], 0)
        self.assertGreater(
            totals["hashing.bucket_many|baselines.process_chunk"], 0
        )
        self.assertEqual(tracer.counts["items_chunked"], 5000)
        roots = [s for s in spans if not s["parent"]]
        self.assertEqual([s["name"] for s in roots], ["api.run"])


class DeclarationTests(unittest.TestCase):
    def test_benchmark_json_declarations(self) -> None:
        declared = run.declared()
        for metric in declared["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = declared["end_to_end"][0]
        self.assertEqual(setup["name"], "setup_s")
        self.assertEqual(
            setup["bound"], max(m["bound"] for m in declared["end_to_end"])
        )
        self.assertEqual(
            [w["name"] for w in declared["workloads"]], list(run.NAMES)
        )

    def test_percentile(self) -> None:
        values = list(range(1, 1001))
        self.assertEqual(percentile(values, 50), 500)
        self.assertEqual(percentile(values, 99), 990)
        self.assertTrue(math.isclose(run.median([3, 1, 2]), 2))

    def test_block_p99_ignores_a_burst_in_one_block(self) -> None:
        steady = ([1.0] * 990 + [2.0] * 10) * 3
        self.assertEqual(run.block_p99(steady), 1.0)
        burst = list(steady)
        burst[1000:1100] = [50.0] * 100
        self.assertEqual(run.block_p99(burst), 1.0)
        slower = [2 * v for v in steady]
        self.assertEqual(run.block_p99(slower), 2.0)
        self.assertEqual(run.block_p99([5.0, 1.0, 3.0]), 5.0)


class RefusalTests(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self) -> None:
        bare = os.path.join(OUT_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                BENCH_DIR,
                os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper-batch", "--seed", "0", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
                env={k: v for k, v in os.environ.items()
                     if k != "PYTHONPATH"},
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    os.makedirs(OUT_DIR, exist_ok=True)
    unittest.main()
