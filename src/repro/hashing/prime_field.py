"""k-wise independent hash families over a Mersenne prime field.

Streaming sketches need limited-independence hash functions whose
description fits in a few words: CountMin needs pairwise independence,
CountSketch needs 4-wise, and the p-stable sketch of [JW19] needs
``O(log(1/eps)/log log(1/eps))``-wise independence.  The standard
construction is a random degree-``(k-1)`` polynomial over ``GF(P)`` with
``P = 2^61 - 1`` (a Mersenne prime, enabling fast modular reduction).
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

#: Mersenne prime 2^61 - 1; universe items must be < MERSENNE_P.
MERSENNE_P = (1 << 61) - 1

_P64 = np.uint64(MERSENNE_P)
_MASK32 = np.uint64((1 << 32) - 1)
_MASK29 = np.uint64((1 << 29) - 1)
_U3 = np.uint64(3)
_U29 = np.uint64(29)
_U32 = np.uint64(32)
_U61 = np.uint64(61)


def _mod_mersenne(x: int) -> int:
    """Reduce ``x`` modulo ``2^61 - 1`` without a division.

    Valid for ``0 <= x < 2^122``, which covers products of two reduced
    residues.
    """
    x = (x & MERSENNE_P) + (x >> 61)
    if x >= MERSENNE_P:
        x -= MERSENNE_P
    return x


def _reduce_many(x: np.ndarray) -> np.ndarray:
    """Fully reduce a ``uint64`` array with values ``< 2^62`` mod ``P``."""
    x = (x & _P64) + (x >> _U61)
    return np.where(x >= _P64, x - _P64, x)


def _mulmod_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``a * b mod (2^61 - 1)`` for reduced ``uint64`` arrays.

    The 122-bit product never materializes: with ``a = a1*2^32 + a0``
    (and likewise ``b``), every partial product fits ``uint64`` —
    ``a0*b0 < 2^64``, ``a1*b0 + a0*b1 < 2^62``, ``a1*b1 < 2^58`` — and
    the powers of two fold down via ``2^64 ≡ 8`` and ``2^61 ≡ 1``
    (mod ``P``).  Exactly matches the scalar
    ``_mod_mersenne(a * b)`` on every input, which the chunked kernels'
    bit-identity guarantee rests on.
    """
    a0 = a & _MASK32
    a1 = a >> _U32
    b0 = b & _MASK32
    b1 = b >> _U32
    low = a0 * b0
    mid = a1 * b0 + a0 * b1
    acc = (
        ((a1 * b1) << _U3)          # 2^64 ≡ 2^3
        + (mid >> _U29)             # mid_hi * 2^61 ≡ mid_hi
        + ((mid & _MASK29) << _U32)
        + (low & _P64)
        + (low >> _U61)
    )
    return _reduce_many(acc)


class KWiseHash:
    """A k-wise independent hash function ``h: [P] -> [P]``.

    Parameters
    ----------
    k:
        Independence level (polynomial degree ``k - 1``); ``k >= 1``.
    seed:
        Seeds the coefficient draw; runs with equal seeds share the
        hash function (needed for nested subsampling across levels).
    rng:
        Optional explicit PRNG; overrides ``seed``.
    """

    __slots__ = ("k", "_coeffs", "_coeffs_u64")

    def __init__(
        self,
        k: int,
        seed: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"independence level k must be >= 1: {k}")
        if rng is None:
            rng = random.Random(seed)
        self.k = k
        # Leading coefficient non-zero so the polynomial has exact degree
        # k-1; the remaining coefficients are uniform in GF(P).
        coeffs = [rng.randrange(MERSENNE_P) for _ in range(k - 1)]
        coeffs.append(rng.randrange(1, MERSENNE_P))
        self._coeffs: Sequence[int] = tuple(coeffs)
        self._coeffs_u64 = tuple(np.uint64(c) for c in coeffs)

    def __call__(self, x: int) -> int:
        """Evaluate the polynomial at ``x`` by Horner's rule."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = _mod_mersenne(_mod_mersenne(acc * x) + c)
        return acc

    def many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__`: hash a whole ``int64`` chunk.

        Returns a ``uint64`` array with ``many(xs)[i] == self(xs[i])``
        exactly — same Horner recurrence, same full reduction — so the
        chunked kernels produce bit-identical buckets, signs, and
        records to the scalar path.  Negative items are first reduced
        into ``[0, P)``: a bare ``int64 -> uint64`` cast would wrap
        ``x`` to ``2^64 + x``, which is not congruent to ``x`` mod ``P``.
        """
        x = np.asarray(xs)
        if x.dtype.kind == "i" and len(x) and x.min() < 0:
            x = x % np.int64(MERSENNE_P)
        x = x.astype(np.uint64)
        acc = np.zeros(len(x), dtype=np.uint64)
        for c in reversed(self._coeffs_u64):
            acc = _reduce_many(_mulmod_many(acc, x) + c)
        return acc

    def unit(self, x: int) -> float:
        """Hash into ``[0, 1)`` (uniform under k-wise independence)."""
        return self(x) / MERSENNE_P

    def unit_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`unit`.

        Caveat: hashes exceed 2^53, so ``uint64 -> float64`` rounding
        may differ from Python's correctly-rounded ``int / int`` by one
        ulp — callers comparing against scalar :meth:`unit` values must
        leave a relative slack (see the KMV candidate pre-pass).
        """
        return self.many(xs) / MERSENNE_P

    def bucket(self, x: int, num_buckets: int) -> int:
        """Hash into ``range(num_buckets)``."""
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive: {num_buckets}")
        return self(x) % num_buckets

    def bucket_many(self, xs: np.ndarray, num_buckets: int) -> np.ndarray:
        """Vectorized :meth:`bucket`; returns an ``int64`` array."""
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive: {num_buckets}")
        return (self.many(xs) % np.uint64(num_buckets)).astype(np.int64)

    def sign(self, x: int) -> int:
        """Hash into ``{-1, +1}`` (for CountSketch-style sketches)."""
        return 1 if self(x) & 1 else -1

    def sign_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sign`; returns an ``int64`` array of ±1."""
        odd = (self.many(xs) & np.uint64(1)).astype(np.int64)
        return 2 * odd - 1

    @property
    def description_words(self) -> int:
        """Words needed to store the hash function (its coefficients)."""
        return self.k


def hash_to_unit(seed: int, *parts: int) -> float:
    """Deterministic pseudo-uniform ``[0,1)`` value from ``(seed, parts)``.

    Used to derandomize per-(row, item) random variates: the same
    ``(seed, parts)`` tuple always yields the same value, so a sketch
    can regenerate an item's randomness on demand instead of storing a
    full random matrix (the trick [JW19] attributes to limited-
    independence generation).
    """
    mix = random.Random(hash((seed,) + parts))
    return mix.random()
