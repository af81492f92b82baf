"""Tests for k-wise hashing and nested universe subsampling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hashing import (
    MERSENNE_P,
    HashStack,
    KWiseHash,
    NestedUniverseSampler,
)
from repro.hashing.prime_field import PIECE_CELLS

#: Items on the kernel's 32-bit path, and items that force the general
#: path (at or past 2^32, or negative).
SMALL_ITEMS = st.integers(min_value=0, max_value=2**32 - 1)
WIDE_ITEMS = st.one_of(
    st.integers(min_value=2**32, max_value=2**63 - 1),
    st.integers(min_value=-(2**63), max_value=-1),
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
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**32), min_size=1, max_size=5
        ),
        items=st.one_of(
            st.lists(SMALL_ITEMS, max_size=40),
            st.tuples(
                st.lists(SMALL_ITEMS, max_size=20),
                st.lists(WIDE_ITEMS, min_size=1, max_size=20),
            ).flatmap(lambda parts: st.permutations(parts[0] + parts[1])),
        ),
        length=st.sampled_from(
            [None, PIECE_CELLS // 3, PIECE_CELLS // 3 + 1, PIECE_CELLS + 1]
        ),
    )
    @example(
        k=2, seeds=[0],
        items=[-(2**63), -5, -1, 0, 1, MERSENNE_P - 1, MERSENNE_P,
               2**62, 2**63 - 1],
        length=None,
    )
    @example(k=2, seeds=[0, 1, 2], items=[0, 1, 2**32 - 1], length=PIECE_CELLS // 3 + 1)
    @example(k=4, seeds=[5, 6], items=[], length=None)
    @settings(max_examples=200, deadline=None)
    def test_vectorized_hashes_equal_scalar_over_int64(
        self, k, seeds, items, length
    ):
        """Each row of a stack's ``many``, ``bucket_many``,
        ``sign_many`` and ``unit_many`` equals its own hash — scalar and
        vectorized — on every ``int64`` item: chunks all in
        ``[0, 2^32)``, chunks mixing them with items past it or
        negative, and empty chunks, at lengths on both sides of the
        piece budget (the drawn items repeated)."""
        hashes = [KWiseHash(k, seed=seed) for seed in seeds]
        stack = HashStack(hashes)
        n = len(items) if length is None or not items else length
        xs = np.resize(np.asarray(items, dtype=np.int64), n)

        def tiled(values):
            return [values[i % len(values)] for i in range(n)]

        many = stack.many(xs)
        units = stack.unit_many(xs)
        signs = stack.sign_many(xs)
        assert many.shape == units.shape == signs.shape == (len(hashes), n)
        assert stack[1:].many(xs).tolist() == many[1:].tolist()
        assert stack.description_words == sum(
            h.description_words for h in hashes
        )
        for buckets in (1, 8, 13):
            rows = stack.bucket_many(xs, buckets)
            for row, h in zip(rows.tolist(), hashes):
                assert row == tiled([h.bucket(x, buckets) for x in items])
                assert h.bucket_many(xs, buckets).tolist() == row
        for r, h in enumerate(hashes):
            assert many[r].tolist() == tiled([h(x) for x in items])
            assert h.many(xs).tolist() == many[r].tolist()
            assert signs[r].tolist() == tiled([h.sign(x) for x in items])
            assert h.sign_many(xs).tolist() == signs[r].tolist()
            # unit_many rounds uint64 -> float64 before dividing, so it
            # may differ from the correctly rounded int / int by an ulp.
            scalar = tiled([h.unit(x) for x in items])
            for got, want in zip(units[r].tolist(), scalar):
                assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0)


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

    @pytest.mark.parametrize("seed", range(20))
    def test_levels_many_equals_level_of(self, seed):
        """The vectorized levels equal the scalar ones on items whose
        hash lands within ±4 of ``⌊P/2^j⌋`` for every ``j`` — where a
        float quotient can round across a level boundary — and on
        ordinary items."""
        sampler = NestedUniverseSampler(num_levels=14, seed=seed)
        c0, c1 = sampler._hash._coeffs
        inverse = pow(c1, -1, MERSENNE_P)
        targets = [
            (MERSENNE_P >> j) + d for j in range(62) for d in range(-4, 5)
        ]
        items = [
            (t - c0) * inverse % MERSENNE_P
            for t in targets
            if 0 <= t < MERSENNE_P
        ]
        assert [sampler._hash(x) for x in items] == [
            t for t in targets if 0 <= t < MERSENNE_P
        ]
        items += range(1000)
        xs = np.asarray(items, dtype=np.int64)
        assert sampler.levels_many(xs).tolist() == [
            sampler.level_of(x) for x in items
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

