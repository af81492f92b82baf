"""Tests for k-wise hashing and nested universe subsampling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hashing import (
    MERSENNE_P,
    KWiseHash,
    NestedUniverseSampler,
    hash_to_unit,
)


class TestKWiseHash:
    def test_deterministic_for_equal_seeds(self):
        h1, h2 = KWiseHash(4, seed=7), KWiseHash(4, seed=7)
        assert [h1(x) for x in range(100)] == [h2(x) for x in range(100)]

    def test_different_seeds_differ(self):
        h1, h2 = KWiseHash(2, seed=1), KWiseHash(2, seed=2)
        assert [h1(x) for x in range(50)] != [h2(x) for x in range(50)]

    def test_output_range(self):
        h = KWiseHash(3, seed=0)
        for x in range(1000):
            assert 0 <= h(x) < MERSENNE_P

    def test_unit_in_interval(self):
        h = KWiseHash(2, seed=3)
        for x in range(1000):
            assert 0.0 <= h.unit(x) < 1.0

    def test_bucket_range(self):
        h = KWiseHash(2, seed=5)
        for x in range(500):
            assert 0 <= h.bucket(x, 17) < 17

    def test_bucket_roughly_uniform(self):
        h = KWiseHash(2, seed=11)
        counts = [0] * 8
        for x in range(8000):
            counts[h.bucket(x, 8)] += 1
        assert min(counts) > 700  # expectation 1000

    def test_sign_balanced(self):
        h = KWiseHash(4, seed=13)
        total = sum(h.sign(x) for x in range(10000))
        assert abs(total) < 500

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            KWiseHash(0)

    def test_invalid_bucket_raises(self):
        with pytest.raises(ValueError):
            KWiseHash(2, seed=0).bucket(5, 0)

    def test_description_words(self):
        assert KWiseHash(6, seed=0).description_words == 6

    @given(st.integers(min_value=0, max_value=MERSENNE_P - 1))
    @settings(max_examples=50)
    def test_hash_is_pure(self, x):
        h = KWiseHash(3, seed=42)
        assert h(x) == h(x)

    @given(
        k=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32),
        items=st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            min_size=1,
            max_size=40,
        ),
    )
    @example(
        k=2, seed=0,
        items=[-(2**63), -5, -1, 0, 1, MERSENNE_P - 1, MERSENNE_P,
               2**62, 2**63 - 1],
    )
    @settings(max_examples=200, deadline=None)
    def test_vectorized_hashes_equal_scalar_over_int64(self, k, seed, items):
        """``many`` and its derived kernels equal the scalar hash on
        every ``int64`` item — negatives and values >= 2^61 included."""
        h = KWiseHash(k, seed=seed)
        xs = np.asarray(items, dtype=np.int64)
        assert h.many(xs).tolist() == [h(x) for x in items]
        assert h.bucket_many(xs, 13).tolist() == [
            h.bucket(x, 13) for x in items
        ]
        assert h.sign_many(xs).tolist() == [h.sign(x) for x in items]
        # unit_many rounds uint64 -> float64 before dividing, so it may
        # differ from the correctly rounded int / int by an ulp.
        for got, x in zip(h.unit_many(xs).tolist(), items):
            assert math.isclose(got, h.unit(x), rel_tol=1e-15, abs_tol=0)


class TestHashToUnit:
    def test_deterministic(self):
        assert hash_to_unit(1, 2, 3) == hash_to_unit(1, 2, 3)

    def test_varies_with_parts(self):
        values = {hash_to_unit(0, i) for i in range(100)}
        assert len(values) == 100

    def test_in_unit_interval(self):
        for i in range(200):
            assert 0.0 <= hash_to_unit(9, i) < 1.0


class TestNestedUniverseSampler:
    def test_level_one_contains_everything(self):
        sampler = NestedUniverseSampler(num_levels=10, seed=0)
        assert all(sampler.contains(j, 1) for j in range(500))

    def test_nesting(self):
        sampler = NestedUniverseSampler(num_levels=12, seed=1)
        for j in range(2000):
            deepest = sampler.level_of(j)
            for level in range(1, deepest + 1):
                assert sampler.contains(j, level)
            for level in range(deepest + 1, sampler.num_levels + 1):
                assert not sampler.contains(j, level)

    def test_survival_rate_halves_per_level(self):
        sampler = NestedUniverseSampler(num_levels=15, seed=2)
        n = 40000
        for level in (2, 3, 4):
            survivors = sum(sampler.contains(j, level) for j in range(n))
            expected = n * 2.0 ** (1 - level)
            assert abs(survivors - expected) < 5 * math.sqrt(expected)

    def test_consistency_across_calls(self):
        sampler = NestedUniverseSampler(num_levels=8, seed=3)
        assert [sampler.level_of(j) for j in range(100)] == [
            sampler.level_of(j) for j in range(100)
        ]

    def test_rate(self):
        sampler = NestedUniverseSampler(num_levels=5, seed=0)
        assert sampler.rate(1) == 1.0
        assert sampler.rate(3) == 0.25

    def test_invalid_level_raises(self):
        sampler = NestedUniverseSampler(num_levels=5, seed=0)
        with pytest.raises(ValueError):
            sampler.contains(1, 0)
        with pytest.raises(ValueError):
            sampler.contains(1, 6)

    def test_invalid_num_levels_raises(self):
        with pytest.raises(ValueError):
            NestedUniverseSampler(num_levels=0)

