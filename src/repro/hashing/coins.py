"""Index-addressable coin streams: the RNG layer of every coin family.

A sequential generator such as ``random.Random`` makes coin ``t`` exist
only after coins ``0..t-1`` were consumed, which would force the
randomized families through the scalar per-update loop — a chunk kernel
cannot replay draws out of order.  The coin protocol (tagged ``"v2"``
in snapshots; its sequential predecessor v1 was retired) uses a
*counter-based* RNG instead: every draw has an index, and the draw at
index ``i`` is a pure function of ``(seed, label, i)``.

Concretely, a :class:`PhiloxCoins` stream is ``numpy.random.Philox``
keyed by ``(seed, blake2b(label))``.  Philox is a counter-mode block
cipher: output word ``i`` is obtained by pointing the 256-bit counter
at block ``i // 4`` and reading word ``i % 4`` — no sequential state,
so a vectorized kernel can fetch the exact coins positions
``[t0, t0 + n)`` would have consumed, in one call, and a scalar path
can re-derive any single coin on demand.  Both see bit-identical
values by construction, which is what the chunked ≡ scalar contract
of the chunk kernels rests on.

Streams own no generator: each thread keeps one ``Philox`` and every
read re-points it at ``(key, block)`` by assigning its ``state`` —
exactly the state a fresh ``Philox(key=, counter=)`` starts in, so
the words are the same, without the per-read construction (and its
discarded OS-entropy ``SeedSequence``).  Being thread-local, the
generator is never shared by two threads; a forked worker inherits
its parent's copy and re-points it like any other read.

Uniforms use the standard 53-bit construction ``(word >> 11) * 2**-53``
(the same mapping ``numpy.random.Generator.random`` applies), so every
draw lies in ``[0, 1)``.

``np.random.Philox`` takes one key per call, so reads scattered over
many streams -- one coin from each of a thousand held counters -- pay
one re-pointing each.  :func:`lane_uniforms` evaluates Philox-4x64-10
(Salmon et al., SC'11) in pure numpy instead, one lane per
``(key, index)`` pair, and returns the same words as the generator:
contiguous blocks stay on ``np.random.Philox``, scattered reads go
lane-wise.  A stream known only by its key -- a held counter's row in a
column table -- reads through :func:`stream_uniforms`, with no stream
object.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

#: 53-bit mantissa scaling: ``(word >> 11) * 2**-53`` is uniform on
#: [0, 1) with the full double precision resolution.
_SCALE = 2.0**-53

#: Read-ahead on cache misses: the first miss fetches ``_FIRST_BLOCK``
#: words and each further miss doubles that, up to ``_BLOCK``.
#: Sequential consumers (the scalar paths walk their indices in
#: order) re-point the generator once per up to ``_BLOCK`` draws,
#: while a stream touched at a few low indices -- a substream length
#: counter's level coins -- keeps a cache of ``_FIRST_BLOCK`` words.
_FIRST_BLOCK = 16
_BLOCK = 256

_MASK64 = (1 << 64) - 1

#: The rest of a fresh ``Philox``'s state: an empty output buffer, so
#: the first read increments the counter and fills it.
_EMPTY_BUFFER = (0, 0, 0, 0)

#: One re-pointed generator per thread (see the module docstring).
_local = threading.local()


def _generator() -> np.random.Philox:
    """This thread's generator, built on its first read."""
    generator = getattr(_local, "philox", None)
    if generator is None:
        generator = _local.philox = np.random.Philox(key=0)
    return generator


def _pointed(key: tuple[int, int], block: int) -> np.random.Philox:
    """This thread's generator, pointed at block ``block`` of the
    stream keyed ``key``."""
    generator = _generator()
    generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (block, 0, 0, 0), "key": key},
        "buffer": _EMPTY_BUFFER,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def stream_key(seed: int, label: str) -> tuple[int, int]:
    """The 128-bit Philox key of stream ``label`` under ``seed``, as
    its two 64-bit words.

    Word 0 is the seed; word 1 hashes the label, so distinct labels
    under one seed (and one label under distinct seeds) yield
    independent streams.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return (int(seed) & _MASK64, int.from_bytes(digest, "big"))


def _words(key: tuple[int, int], start: int, count: int) -> np.ndarray:
    """Raw 64-bit output words at indices ``[start, start+count)`` of
    the stream keyed ``key``.

    Philox's counter advances one *block* (four output words) per
    increment, so index ``start`` lives at word ``start % 4`` of block
    ``start // 4``.
    """
    block, offset = divmod(int(start), 4)
    bits = _pointed(key, block).random_raw(offset + count)
    return bits[offset:] if offset else bits


def stream_uniforms(key: tuple[int, int], start: int, count: int) -> np.ndarray:
    """Uniforms on [0, 1) at draw indices ``[start, start+count)`` of
    the stream keyed ``key`` (see :func:`stream_key`):
    :meth:`PhiloxCoins.uniform_block` without the stream object or its
    read-ahead cache."""
    return (_words(key, start, count) >> np.uint64(11)) * _SCALE


class PhiloxCoins:
    """One labelled stream of index-addressable uniform coins.

    ``uniform(i)`` and ``uniform_block(start, count)`` are pure
    functions of the construction arguments — the instance carries a
    read-ahead cache but no behavioural state, so nothing here needs
    serializing: a restored sketch rebuilds its streams from
    ``(seed, label)`` alone and sees the same coins.  The cache is one
    ``(start, uniforms)`` pair swapped in whole, so threads reading one
    stream at once see the same values as a serial reader.
    """

    __slots__ = ("seed", "label", "_key", "_cache", "_ahead")

    def __init__(self, seed: int | None, label: str) -> None:
        self.seed = 0 if seed is None else int(seed)
        self.label = label
        self._key = stream_key(self.seed, label)
        self._cache: tuple[int, np.ndarray] | None = None
        self._ahead = _FIRST_BLOCK

    def uniform_block(self, start: int, count: int) -> np.ndarray:
        """Uniforms on [0, 1) at draw indices ``[start, start+count)``.

        The returned array may alias the read-ahead cache: treat it as
        read-only.
        """
        cache = self._cache
        if cache is not None:
            cache_start, cached = cache
            lo = start - cache_start
            if 0 <= lo and lo + count <= len(cached):
                return cached[lo : lo + count]
        ahead = self._ahead
        if ahead < _BLOCK:
            self._ahead = 2 * ahead
        uniforms = stream_uniforms(self._key, start, max(count, ahead))
        self._cache = (start, uniforms)
        return uniforms[:count]

    @property
    def key(self) -> tuple[int, int]:
        """The stream's Philox key (see :func:`stream_key`)."""
        return self._key

    def uniform(self, index: int) -> float:
        """The single uniform draw at ``index``."""
        return float(self.uniform_block(index, 1)[0])


#: Philox-4x64-10 constants (Random123's, which numpy's ``Philox``
#: uses): the round multipliers of words 0 and 2, split into 32-bit
#: halves as (2, 1) columns, and the per-round key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_M_LO = np.array([[m & 0xFFFFFFFF] for m in _PHILOX_M], dtype=np.uint64)
_M_HI = np.array([[m >> 32] for m in _PHILOX_M], dtype=np.uint64)
_M_FULL = np.array([[m] for m in _PHILOX_M], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_PHILOX_ROUNDS = 10
#: Below this many lanes, re-pointing the thread's generator once per
#: lane beats the rounds' fixed cost of ~200 array operations
#: (measured: 450 vs 480 us at 96 lanes, 640 vs 430 us at 128).
_FEW_LANES = 96
_KEY_STEPS = np.arange(_PHILOX_ROUNDS, dtype=np.uint64)[:, None, None]

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products of the two rows of
    ``x`` with their round multipliers.

    numpy has no 128-bit integers, so the high word is assembled from
    the four 32-bit partial products; the low word is the wrapping
    64-bit product.
    """
    x_lo = x & _LOW32
    x_hi = x >> _SHIFT32
    lo_lo = x_lo * _M_LO
    hi_lo = x_hi * _M_LO
    lo_hi = x_lo * _M_HI
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    hi = x_hi * _M_HI + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32)
    hi += cross >> _SHIFT32
    return hi, x * _M_FULL


def _lane_block_words(
    keys0: np.ndarray, keys1: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """The four raw words of block ``blocks[i]`` of the stream keyed
    ``(keys0[i], keys1[i])``, as a (4, lanes) array: row ``j`` holds
    draw index ``4 * blocks[i] + j``.

    Block ``b`` is computed at counter ``b + 1``: the generator
    increments its counter before it fills its first block.  Indices
    stay below ``2**64``, so the increment never carries into the
    counter's second word.  The counter words are kept as two
    (2, lanes) rows -- words 0 and 2, which each round multiplies, and
    words 1 and 3 -- so a round is one batch of array operations over
    every lane.  A few lanes re-point the thread's generator instead,
    one lane at a time; the words are the same.
    """
    if len(blocks) < _FEW_LANES:
        words = np.empty((4, len(blocks)), dtype=np.uint64)
        for lane, (key0, key1, block) in enumerate(
            zip(
                np.asarray(keys0).tolist(),
                np.asarray(keys1).tolist(),
                np.asarray(blocks).tolist(),
            )
        ):
            words[:, lane] = _pointed((key0, key1), block).random_raw(4)
        return words
    blocks = np.asarray(blocks, dtype=np.uint64)
    keys = np.array([keys0, keys1], dtype=np.uint64).reshape(2, -1)
    schedule = keys + _KEY_STEPS * _PHILOX_W[:, None]
    mixed = np.zeros((2, len(blocks)), dtype=np.uint64)
    mixed[0] = blocks + np.uint64(1)
    passed = np.zeros_like(mixed)
    for key in schedule:
        hi, lo = _mulhilo(mixed)
        mixed, passed = hi[::-1] ^ passed ^ key, lo[::-1]
    return np.stack((mixed[0], passed[0], mixed[1], passed[1]))


def lane_words(
    keys0: np.ndarray, keys1: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """Raw Philox words, one per lane: lane ``i`` reads draw index
    ``index[i]`` of the stream keyed ``(keys0[i], keys1[i])`` (the two
    words of :func:`stream_key`) -- bit-identical to
    :func:`_words` at that index."""
    index = np.asarray(index, dtype=np.uint64)
    words = _lane_block_words(keys0, keys1, index >> np.uint64(2))
    return words[(index & np.uint64(3)).astype(np.intp), np.arange(len(index))]


def lane_uniforms(
    keys0: np.ndarray, keys1: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """Uniforms on [0, 1) of :func:`lane_words`: lane ``i`` equals
    ``PhiloxCoins(seed, label).uniform(index[i])`` for the stream
    whose key is ``(keys0[i], keys1[i])``."""
    return (lane_words(keys0, keys1, index) >> np.uint64(11)) * _SCALE


def lane_block_uniforms(
    keys0: np.ndarray, keys1: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Uniforms of whole blocks, (4, lanes): row ``j`` of lane ``i`` is
    the draw at index ``4 * blocks[i] + j`` of lane ``i``'s stream."""
    return (_lane_block_words(keys0, keys1, blocks) >> np.uint64(11)) * _SCALE


__all__ = [
    "PhiloxCoins",
    "lane_block_uniforms",
    "lane_uniforms",
    "lane_words",
    "stream_key",
    "stream_uniforms",
]
