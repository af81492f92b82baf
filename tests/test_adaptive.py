"""Tests for stream-length-oblivious operation (doubling epochs)."""

import math

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveFullSampleAndHold
from repro.state.tracker import make_tracker
from repro.streams import FrequencyVector, planted_heavy_hitter_stream, zipf_stream


class TestEpochs:
    def test_epoch_count_logarithmic(self):
        algo = AdaptiveFullSampleAndHold(
            n=256, p=2, epsilon=0.5, initial_m=256, seed=0, repetitions=1
        )
        m = 256 * 15  # spans epochs 256 + 512 + 1024 + 2048 (+ part of 4096)
        algo.process_stream(zipf_stream(256, m, seed=0))
        assert algo.num_epochs == math.ceil(math.log2(m / 256))

    def test_short_stream_single_epoch(self):
        algo = AdaptiveFullSampleAndHold(
            n=64, p=2, epsilon=0.5, initial_m=1000, seed=1, repetitions=1
        )
        algo.process_stream([5] * 100)
        assert algo.num_epochs == 1

    def test_invalid_initial_m(self):
        with pytest.raises(ValueError):
            AdaptiveFullSampleAndHold(n=8, p=2, epsilon=0.5, initial_m=0)


class TestEstimation:
    def test_tracks_heavy_hitter_across_epochs(self):
        n = 512
        m = 20000
        stream = planted_heavy_hitter_stream(n, m, {9: 6000}, seed=2)
        algo = AdaptiveFullSampleAndHold(
            n=n, p=2, epsilon=0.5, initial_m=1024, seed=2, repetitions=1
        )
        algo.process_stream(stream)
        assert algo.num_epochs > 1
        estimate = algo.estimate(9)
        assert 0.4 * 6000 <= estimate <= 2.0 * 6000

    def test_estimates_one_sided_with_exact_counters(self):
        n, m = 256, 8000
        stream = zipf_stream(n, m, skew=1.3, seed=3)
        f = FrequencyVector.from_stream(stream)
        algo = AdaptiveFullSampleAndHold(
            n=n, p=2, epsilon=0.5, initial_m=512, seed=3,
            repetitions=1, use_morris=False,
        )
        algo.process_stream(stream)
        for item, est in algo.estimates().items():
            # Per-epoch one-sidedness survives the epoch sum (up to the
            # level-rescaling noise of subsampled levels).
            assert est <= 2.0 * f[item] + 4

    def test_unknown_item_zero(self):
        algo = AdaptiveFullSampleAndHold(
            n=32, p=2, epsilon=0.5, initial_m=64, seed=4, repetitions=1
        )
        algo.process_stream([1] * 10)
        assert algo.estimate(31) == 0.0


class TestStateChanges:
    def test_sublinear_overall(self):
        n, m = 1024, 60000
        stream = zipf_stream(n, m, skew=1.2, seed=5)
        algo = AdaptiveFullSampleAndHold(
            n=n, p=2, epsilon=1.0, initial_m=2048, seed=5, repetitions=1
        )
        algo.process_stream(stream)
        assert algo.state_changes < 0.8 * m


class TestChunkKernel:
    @pytest.mark.parametrize("use_morris", [True, False])
    @pytest.mark.parametrize("mode", ["aggregate", "trace"])
    @pytest.mark.parametrize("size", [1, 100, 777, 5000])
    def test_chunks_across_epochs_match_scalar(self, size, mode, use_morris):
        """Chunks that straddle epoch boundaries: each epoch settles its
        piece and the next epoch is built where the scalar loop builds
        it, so audits (cell ids included) and estimates match."""

        def build():
            return AdaptiveFullSampleAndHold(
                n=128, p=2, epsilon=0.5, initial_m=64, seed=6,
                repetitions=3, use_morris=use_morris,
                tracker=make_tracker(mode),
            )

        stream = zipf_stream(128, 5000, skew=1.2, seed=6).materialize()
        scalar = build()
        scalar.process_many(stream)
        chunked = build()
        items = np.asarray(stream, dtype=np.int64)
        for low in range(0, len(items), size):
            chunked.process_chunk(items[low:low + size])
        assert chunked.num_epochs == scalar.num_epochs == 7
        assert chunked.report() == scalar.report()
        assert list(chunked.estimates().items()) == list(
            scalar.estimates().items()
        )
