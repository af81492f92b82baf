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

#: Cells (rows x items) the vectorized kernel evaluates per piece.
#: One piece pays numpy's per-call cost once for all of its rows and
#: keeps each temporary at 64 KiB; an unbounded stack of 3 rows x 8,192
#: items ran slower than hashing the rows one by one.
PIECE_CELLS = 8192

_P64 = np.uint64(MERSENNE_P)
_MASK32 = np.uint64((1 << 32) - 1)
_MASK29 = np.uint64((1 << 29) - 1)
_U1 = np.uint64(1)
_U3 = np.uint64(3)
_U29 = np.uint64(29)
_U32 = np.uint64(32)
_U35 = np.uint64(35)
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


def _residues(xs: np.ndarray) -> tuple[np.ndarray, bool]:
    """The items as ``uint64``, and whether they all lie in ``[0, 2^32)``.

    Items outside that range are reduced into ``[0, P)``; negatives
    first through a signed modulo, since a bare ``int64 -> uint64``
    cast would wrap ``x`` to ``2^64 + x``, which is not congruent to
    ``x`` mod ``P``.
    """
    x = np.asarray(xs)
    if (int(np.bitwise_or.reduce(x)) >> 32) == 0:
        return x.astype(np.uint64, copy=False), True
    if x.dtype.kind == "i" and x.min() < 0:
        x = x % np.int64(MERSENNE_P)
    x = x.astype(np.uint64)
    x = (x & _P64) + (x >> _U61)
    np.subtract(x, _P64, out=x, where=x >= _P64)
    return x, False


def _reduce(acc: np.ndarray, spare: np.ndarray) -> None:
    """Fully reduce ``acc`` (values ``< 2^64``) mod ``P`` in place:
    ``2^61 ≡ 1`` folds it to at most ``P + 7``, and one conditional
    subtraction finishes."""
    np.right_shift(acc, _U61, out=spare)
    acc &= _P64
    acc += spare
    np.subtract(acc, _P64, out=acc, where=acc >= _P64)


def _mul_add_small(acc, hi, lo, x, c, t1, t2) -> None:
    """``acc = (a * x + c) mod P`` for ``a = hi * 2^29 + lo`` (a reduced
    residue) and items ``x < 2^32``.

    Every partial product fits ``uint64``: ``lo * x < 2^61`` and
    ``y = hi * x < 2^64``, whose ``y * 2^29`` folds by ``2^61 ≡ 1`` to
    ``(y >> 32) + (y mod 2^32) * 2^29``; the sum stays below ``2^63``.
    """
    np.multiply(lo, x, out=t1)
    t1 += c
    np.multiply(hi, x, out=acc)
    np.right_shift(acc, _U32, out=t2)
    t1 += t2
    acc <<= _U32
    acc >>= _U3
    acc += t1
    _reduce(acc, t2)


def _mul_add_wide(acc, hi, lo, x0, x1, c, t1, t2) -> None:
    """``acc = (a * x + c) mod P`` for ``a = hi * 2^29 + lo`` and a
    residue ``x = x1 * 2^32 + x0`` (so ``x1 < 2^29``).

    ``a * x ≡ hi*x1 + lo*x0 + (hi*x0) * 2^29 + (lo*x1) * 2^32`` by
    ``2^61 ≡ 1``; the first two are below ``2^61``, and the last two
    fold like :func:`_mul_add_small`'s high product, so the sum stays
    below ``2^64``.
    """
    np.multiply(hi, x0, out=acc)
    np.right_shift(acc, _U32, out=t1)
    acc <<= _U32
    acc >>= _U3
    acc += t1
    np.multiply(lo, x1, out=t1)
    np.right_shift(t1, _U29, out=t2)
    acc += t2
    t1 <<= _U35
    t1 >>= _U3
    acc += t1
    np.multiply(hi, x1, out=t1)
    acc += t1
    np.multiply(lo, x0, out=t1)
    acc += t1
    acc += c
    _reduce(acc, t2)


def _horner(columns: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Every row's polynomial at every item: a ``(rows, len(xs))``
    ``uint64`` array equal, cell for cell, to the scalar Horner loop.

    ``columns`` is ``(k, rows, 1)``, leading coefficient first.  The
    accumulator starts at the leading coefficient (the scalar loop's
    first step multiplies a zero), and each further step is one
    multiply-add: over ``[0, 2^32)`` when the whole chunk lies there,
    over full residues otherwise.  Rows and items are cut into pieces
    of at most :data:`PIECE_CELLS` cells.
    """
    x, small = _residues(xs)
    k, rows = columns.shape[:2]
    n = len(x)
    out = np.empty((rows, n), dtype=np.uint64)
    if k == 1 or not n:
        out[:] = columns[0]
        return out
    items = (x,) if small else (x & _MASK32, x >> _U32)
    mul_add = _mul_add_small if small else _mul_add_wide
    lead_hi, lead_lo = columns[0] >> _U29, columns[0] & _MASK29
    row_step = max(1, PIECE_CELLS // n)
    item_step = min(n, PIECE_CELLS)
    for r in range(0, rows, row_step):
        coeffs = columns[1:, r:r + row_step]
        for i in range(0, n, item_step):
            acc = out[r:r + row_step, i:i + item_step]
            piece = [column[i:i + item_step] for column in items]
            t1, t2 = np.empty_like(acc), np.empty_like(acc)
            hi, lo = lead_hi[r:r + row_step], lead_lo[r:r + row_step]
            for step, c in enumerate(coeffs):
                if step:  # later steps multiply the running value
                    hi, lo = acc >> _U29, acc & _MASK29
                mul_add(acc, hi, lo, *piece, c, t1, t2)
    return out


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

    __slots__ = ("k", "_coeffs", "_columns")

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
        # The vectorized kernel's coefficients, (k, rows, 1): leading
        # first, one row per hash (one here).
        self._columns = np.array(coeffs[::-1], dtype=np.uint64).reshape(k, 1, 1)

    def __call__(self, x: int) -> int:
        """Evaluate the polynomial at ``x`` by Horner's rule."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = _mod_mersenne(_mod_mersenne(acc * x) + c)
        return acc

    def many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__`: hash a whole ``int64`` chunk.

        Returns a ``uint64`` array with ``many(xs)[i] == self(xs[i])``
        exactly, so the chunked kernels produce bit-identical buckets,
        signs, and records to the scalar path — over the whole
        ``int64`` range, negative items included.  It is the one-row
        case of :class:`HashStack`'s ``many``.
        """
        return _horner(self._columns, xs)[0]

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
        """Vectorized :meth:`bucket`; returns an ``int64`` array.

        The remainder is taken as ``h - (h // b) * b``: numpy divides
        ``uint64`` by a scalar several times faster than it takes ``%``.
        """
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive: {num_buckets}")
        values = self.many(xs)
        quotients = values // np.uint64(num_buckets)
        quotients *= np.uint64(num_buckets)
        values -= quotients
        return values.view(np.int64)

    def sign(self, x: int) -> int:
        """Hash into ``{-1, +1}`` (for CountSketch-style sketches)."""
        return 1 if self(x) & 1 else -1

    def sign_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sign`; returns an ``int64`` array of ±1."""
        values = self.many(xs)
        values &= _U1
        signs = values.view(np.int64)
        signs *= 2
        signs -= 1
        return signs

    @property
    def description_words(self) -> int:
        """Words needed to store the hash function (its coefficients)."""
        return self.k


class HashStack(KWiseHash):
    """Hash functions of one independence level, evaluated together.

    ``many``, ``bucket_many``, ``sign_many`` and ``unit_many`` take one
    chunk and return one row per hash, each row equal to that hash's
    own vectorized (and scalar) values; a slice of the stack is the
    stack of those hashes.  A stack has no scalar methods: call its
    hashes for those.
    """

    __slots__ = ()

    def __init__(self, hashes: Sequence[KWiseHash]) -> None:
        levels = {h.k for h in hashes}
        if len(levels) != 1:
            raise ValueError(
                f"a stack needs hashes of one independence level: {sorted(levels)}"
            )
        self.k = levels.pop()
        self._coeffs = ()
        self._columns = np.concatenate([h._columns for h in hashes], axis=1)

    def __call__(self, x: int) -> int:
        raise TypeError("a HashStack hashes chunks only; call one of its hashes")

    def __getitem__(self, rows: slice) -> "HashStack":
        """The stack of the hashes in ``rows``."""
        part = HashStack.__new__(HashStack)
        part.k, part._coeffs, part._columns = self.k, (), self._columns[:, rows]
        return part

    def many(self, xs: np.ndarray) -> np.ndarray:
        """Every hash's :meth:`KWiseHash.many`, one row per hash."""
        return _horner(self._columns, xs)

    @property
    def description_words(self) -> int:
        """Words needed to store every hash's coefficients."""
        return self._columns.size
