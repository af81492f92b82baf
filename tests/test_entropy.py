"""Tests for the HNO08 entropy estimator (Theorem 3.8)."""

import math

import numpy as np
import pytest

from repro import registry
from repro.core import counters, fp_pstable
from repro.core.entropy import (
    EntropyEstimator,
    entropy_nodes,
    hno08_nodes,
    lagrange_derivative_at,
)
from repro.experiments.accuracy import exact_entropy
from repro.streams import FrequencyVector, uniform_stream, zipf_stream


class TestNodes:
    def test_nodes_cluster_near_one(self):
        nodes = hno08_nodes(4, log_m=20.0)
        assert all(abs(node - 1.0) < 0.02 for node in nodes)

    def test_nodes_distinct_and_sorted_input(self):
        nodes = hno08_nodes(6, log_m=14.0)
        assert len(set(nodes)) == len(nodes)

    def test_one_node_above_one(self):
        """g(1) = ell/(2k^2+1) > 0, so p_0 lies slightly above 1."""
        nodes = hno08_nodes(4, log_m=20.0)
        assert max(nodes) > 1.0
        assert min(nodes) < 1.0

    def test_node_width_override(self):
        wide = hno08_nodes(3, log_m=20.0, node_width=0.3)
        narrow = hno08_nodes(3, log_m=20.0)
        assert max(wide) - min(wide) > max(narrow) - min(narrow)

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            hno08_nodes(0, log_m=10.0)
        with pytest.raises(ValueError):
            hno08_nodes(3, log_m=10.0, node_width=2.0)


class TestLagrangeDerivative:
    def test_exact_for_quadratic(self):
        nodes = [0.0, 1.0, 2.0]
        values = [x**2 for x in nodes]  # d/dx x^2 at 1.5 = 3
        assert lagrange_derivative_at(nodes, values, 1.5) == pytest.approx(3.0)

    def test_exact_for_cubic(self):
        nodes = [0.0, 0.5, 1.0, 2.0]
        values = [x**3 - x for x in nodes]
        assert lagrange_derivative_at(nodes, values, 1.0) == pytest.approx(2.0)

    def test_linear(self):
        assert lagrange_derivative_at([0.0, 1.0], [3.0, 5.0], 0.3) == pytest.approx(2.0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            lagrange_derivative_at([0.0, 1.0], [1.0], 0.5)

    def test_duplicate_nodes_raise(self):
        with pytest.raises(ValueError):
            lagrange_derivative_at([1.0, 1.0], [1.0, 2.0], 0.5)


def oracle_entropy(stream, seed) -> float:
    """The interpolation step of ``EntropyEstimator(m=len(stream),
    epsilon=0.25, seed=seed)`` fed the exact family's moments of
    ``stream``."""
    exact = registry.create("exact")
    exact.process_stream(stream)
    return exact_entropy(exact, entropy_nodes(len(stream), epsilon=0.25), seed)


class TestOracleBackend:
    """Exact moments isolate the interpolation machinery."""

    @pytest.mark.parametrize(
        "make_stream, name",
        [
            (lambda: uniform_stream(256, 8192, seed=0), "uniform"),
            (lambda: zipf_stream(512, 8192, skew=1.3, seed=1), "zipf"),
            (lambda: [7] * 4096, "constant"),
        ],
    )
    def test_entropy_close_to_truth(self, make_stream, name):
        stream = make_stream()
        truth = FrequencyVector.from_stream(stream).shannon_entropy()
        assert oracle_entropy(stream, seed=0) == pytest.approx(truth, abs=0.15)

    def test_uniform_entropy_is_log_n(self):
        # Each item exactly once: H = log2(m).
        m = 4096
        stream = list(range(m))
        assert oracle_entropy(stream, seed=1) == pytest.approx(math.log2(m), abs=0.1)


class TestPStableBackend:
    def test_streaming_entropy_reasonable(self):
        """The streaming estimator with widened nodes achieves coarse
        additive accuracy (the E6 bench quantifies this)."""
        n, m = 256, 6000
        stream = zipf_stream(n, m, skew=1.5, seed=2)
        truth = FrequencyVector.from_stream(stream).shannon_entropy()
        algo = EntropyEstimator(
            m=m, k=2, node_width=0.4, num_rows=150, seed=2
        )
        algo.process_stream(stream)
        assert algo.entropy_estimate() == pytest.approx(truth, abs=1.5)

    def test_estimate_clamped_to_valid_range(self):
        m = 2000
        algo = EntropyEstimator(m=m, k=2, node_width=0.4, num_rows=40, seed=3)
        algo.process_stream([5] * m)
        estimate = algo.entropy_estimate()
        assert 0.0 <= estimate <= math.log2(m) + 1

    def test_sublinear_state_changes(self):
        n, m = 128, 10000
        algo = EntropyEstimator(m=m, k=2, node_width=0.4, num_rows=30, seed=4)
        algo.process_stream(uniform_stream(n, m, seed=4))
        assert algo.state_changes < m


class TestSharedVariates:
    def test_node_sketches_draw_each_item_once(self, monkeypatch):
        """The node sketches share one variate table, so a chunk draws
        each distinct item's uniforms once (not once per node): one
        seed per distinct item reaches the lane-wise draw."""
        algo = EntropyEstimator(m=4096, epsilon=0.5, seed=6)
        table = algo._sketches[0]._table
        assert all(sketch._table is table for sketch in algo._sketches)
        seeded = []
        seeded_uniforms = fp_pstable.seeded_uniforms

        def counting_uniforms(seeds, count):
            seeded.extend(seeds)
            return seeded_uniforms(seeds, count)

        monkeypatch.setattr(fp_pstable, "seeded_uniforms", counting_uniforms)
        chunk = np.random.RandomState(6).zipf(1.3, 3000) % 700
        algo.process_chunk(chunk)
        distinct = set(chunk.tolist())
        assert len(seeded) == len(distinct)
        assert set(table._slots) == distinct


class TestValidation:
    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            EntropyEstimator(m=1)
        with pytest.raises(ValueError):
            EntropyEstimator(m=100, epsilon=0)


class TestSurvivalCache:
    def test_second_identical_run_adds_no_misses(self):
        """The threshold inversion's survival logs stay cached across
        runs: the length counter (a = 0.001) climbs more levels per run
        than a 4,096-entry cache holds, and a repeat run finds every
        one of them -- no survival-log table grows."""
        stream = np.asarray(zipf_stream(512, 81_920, skew=1.1, seed=3).materialize())

        def run():
            estimator = EntropyEstimator(m=len(stream), epsilon=0.5, seed=3)
            estimator.process_chunk(stream)
            return estimator

        def computed():
            return sum(len(table) for table in counters._SURVIVAL.values())

        first = run()
        assert first._length.level[first._length_row] > 4096
        misses = computed()
        run()
        assert computed() == misses
