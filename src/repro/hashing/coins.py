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

The p-stable sketches' regenerated columns are not coin streams: each
item's column comes from ``numpy.random.default_rng`` seeded by a hash
of the item.  :func:`seeded_uniforms` runs those generators lane-wise,
one lane per seed -- numpy's ``SeedSequence`` and PCG64 in pure numpy,
on the same 64x64-bit product helper as the Philox lanes -- and returns
the words one generator per seed would.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from typing import NamedTuple

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


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class _Factor(NamedTuple):
    """A 64-bit factor of :func:`_mulhilo` with its 32-bit halves,
    split once so constant factors are not split again per call."""

    word: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _factor(words) -> _Factor:
    words = np.asarray(words, dtype=np.uint64)
    return _Factor(words, words & _LOW32, words >> _SHIFT32)


#: Philox-4x64-10 constants (Random123's, which numpy's ``Philox``
#: uses): the round multipliers of words 0 and 2, as a (2, 1) column,
#: and the per-round key increments.
_PHILOX_M = _factor([[0xD2E7470EE14C6C93], [0xCA5A826395121157]])
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_PHILOX_ROUNDS = 10
#: Below this many lanes, re-pointing the thread's generator once per
#: lane beats the rounds' fixed cost of ~200 array operations
#: (measured: 450 vs 480 us at 96 lanes, 640 vs 430 us at 128).
_FEW_LANES = 96
_KEY_STEPS = np.arange(_PHILOX_ROUNDS, dtype=np.uint64)[:, None, None]


def _mulhilo(x: np.ndarray, y: _Factor) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``x * y``, elementwise
    (the shapes broadcast).

    numpy has no 128-bit integers, so the high word is assembled from
    the four 32-bit partial products; the low word is the wrapping
    64-bit product.
    """
    x_lo = x & _LOW32
    x_hi = x >> _SHIFT32
    lo_lo = x_lo * y.lo
    hi_lo = x_hi * y.lo
    lo_hi = x_lo * y.hi
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    hi = x_hi * y.hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32)
    hi += cross >> _SHIFT32
    return hi, x * y.word


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
        hi, lo = _mulhilo(mixed, _PHILOX_M)
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


#: numpy's ``SeedSequence`` hash constants (``bit_generator.pyx``):
#: the pool hash's initial value and multiplier, the output hash's, and
#: the pool mix's two multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_R = np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)
_POOL = 4


def _hash_schedule(init: int, mult: int, calls: int) -> np.ndarray:
    """The (xor, multiplier) pair of each of ``calls`` successive
    hashes, as a (2, calls) array: the hash constant starts at ``init``
    and is multiplied by ``mult`` at every hash, whatever the data."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)


def _hashmix(value: np.ndarray, schedule: np.ndarray) -> np.ndarray:
    value = (value ^ schedule[0]) * schedule[1]
    return value ^ (value >> _XSHIFT)


#: The sixteen pool hashes of a one-word entropy: hash 0 takes the
#: seed, hashes 1..3 zeros, and hashes ``4 + 3 * s`` to ``6 + 3 * s``
#: mix pool word ``s`` into the other three, in ascending order.
_POOL_HASHES = _hash_schedule(_INIT_A, _MULT_A, _POOL * _POOL)
_ZEROS_HASHED = _hashmix(
    np.zeros((_POOL - 1, 1), dtype=np.uint32), _POOL_HASHES[:, 1:_POOL, None]
)
#: Stage ``s``'s three mix hashes, in the rotated row order of
#: :func:`_seed_words` (words ``s + 1``, ``s + 2``, ``s + 3`` mod 4).
_MIX_STAGES = [
    _POOL_HASHES[
        :,
        [
            _POOL + 3 * s + dest - (dest > s)
            for dest in ((s + i) % _POOL for i in (1, 2, 3))
        ],
        None,
    ]
    for s in range(_POOL)
]
#: ``generate_state``'s eight output hashes, cycling over the pool,
#: shaped (2, 2, 4, 1) so a (4, lanes) pool broadcasts to all eight.
_STATE_HASHES = _hash_schedule(_INIT_B, _MULT_B, 2 * _POOL).reshape(
    2, 2, _POOL, 1
)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, uint64)`` of each uint32
    seed, as a (4, lanes) array.

    A seed below ``2**32`` is one entropy word, so the pool holds its
    hash and three hashed zeros.  Then every pool word is hashed into
    the other three; those three updates read only the source word, so
    they run as one batch.  Rows are kept rotated -- the source first,
    then the words after it -- so each stage is a slice, not a gather,
    and four stages restore the order.
    """
    pool = np.concatenate(
        (
            _hashmix(seeds, _POOL_HASHES[:, 0])[None],
            np.broadcast_to(_ZEROS_HASHED, (_POOL - 1, len(seeds))),
        )
    )
    for stage in _MIX_STAGES:
        mixed = _MIX_L * pool[1:] - _MIX_R * _hashmix(pool[0], stage)
        pool = np.concatenate((mixed ^ (mixed >> _XSHIFT), pool[:1]))
    words = _hashmix(pool, _STATE_HASHES).reshape(2 * _POOL, -1)
    # Little-endian pairs of 32-bit words make the 64-bit words.
    words = words.astype(np.uint64)
    return words[0::2] | (words[1::2] << _SHIFT32)


#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_ONE = np.uint64(1)
_SIXTY_THREE = np.uint64(63)
#: XSL-RR rotates by the state's top six bits, bits 122..127.
_ROTATION = np.uint64(122 - 64)
#: Lanes x draws per pass of :func:`seeded_uniforms`' expansion: its
#: (2, lanes, draws) temporaries stay at 64 KiB, whatever the batch.
_PASS_WORDS = 1 << 12


@functools.lru_cache(maxsize=16)
def _draw_jumps(count: int) -> tuple[np.ndarray, _Factor]:
    """Jump-ahead maps of the LCG ``state -> M * state + inc`` (mod
    ``2**128``) for draws ``0..count - 1``.

    ``k`` steps take ``state`` to ``M**k * state + sum(M**j for j < k)
    * inc``, and draw ``d`` is ``d + 2`` steps (see
    :func:`seeded_uniforms`).  Row 0 holds the powers and row 1 the
    sums, one column per draw, as (2, 1, count) high words and split
    low words.  A sketch geometry draws one ``count`` throughout, so
    each is built once.
    """
    maps = [[], []]
    power, total = _PCG_MULT, 1
    for _ in range(count):
        power = power * _PCG_MULT & _MASK128
        total = (total * _PCG_MULT + 1) & _MASK128
        maps[0].append(power)
        maps[1].append(total)
    return (
        np.array([[[v >> 64 for v in m]] for m in maps], dtype=np.uint64),
        _factor([[[v & _MASK64 for v in m]] for m in maps]),
    )


def _mul128(x_hi, x_lo, y_hi, y_lo: _Factor) -> tuple[np.ndarray, np.ndarray]:
    """The low 128 bits of ``x * y``, as (high, low) words."""
    hi, lo = _mulhilo(x_lo, y_lo)
    hi += x_lo * y_hi + x_hi * y_lo.word
    return hi, lo


def _add128(x_hi, x_lo, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < y_lo), lo


def seeded_uniforms(seeds, count: int) -> np.ndarray:
    """Row ``i`` is ``np.random.default_rng(int(seeds[i])).random(count)``,
    bit for bit, for every seed in ``[0, 2**32)``, all seeds at once.

    ``default_rng(seed)`` is PCG64 (O'Neill, 2014) seeded from
    ``SeedSequence(seed)``; both are integer algorithms, so they run
    lane-wise, one lane per seed.  The seed sequence's hashes give four
    words (:func:`_seed_words`): the state ``s`` and the stream ``q``.
    PCG64 seeds in two steps -- ``inc = 2 * q + 1``, state ``(s + inc)
    * M + inc`` -- and steps once more before each output, so draw
    ``d`` (from 0) reads the state ``d + 2`` LCG steps past ``s +
    inc``: one multiply-add by a cached jump-ahead map
    (:func:`_draw_jumps`) instead of ``d + 2`` steps.  Each state's
    output is its XSL-RR word, and each uniform is ``(word >> 11) *
    2**-53``, :meth:`numpy.random.Generator.random`'s mapping.

    Seeds outside ``[0, 2**32)`` would seed a sequence of another
    length (or none), so they raise ``ValueError``.
    """
    seeds = np.asarray(seeds)
    if len(seeds) and not (0 <= seeds.min() and seeds.max() < 1 << 32):
        raise ValueError("seeds must lie in [0, 2**32)")
    s_hi, s_lo, q_hi, q_lo = _seed_words(seeds.astype(np.uint32))
    inc_hi = (q_hi << _ONE) | (q_lo >> _SIXTY_THREE)
    inc_lo = (q_lo << _ONE) | _ONE
    # One row per term of the maps: the start s + inc, and inc.
    start_hi, start_lo = _add128(s_hi, s_lo, inc_hi, inc_lo)
    x_hi = np.stack((start_hi, inc_hi))[:, :, None]
    x_lo = np.stack((start_lo, inc_lo))[:, :, None]
    jumps_hi, jumps_lo = _draw_jumps(count)
    uniforms = np.empty((len(seeds), count))
    step = max(1, _PASS_WORDS // max(count, 1))
    for low in range(0, len(seeds), step):
        lanes = slice(low, low + step)
        hi, lo = _mul128(x_hi[:, lanes], x_lo[:, lanes], jumps_hi, jumps_lo)
        hi, lo = _add128(hi[0], lo[0], hi[1], lo[1])
        # XSL-RR: the halves' xor, rotated right by the top six bits.
        word = hi ^ lo
        turn = hi >> _ROTATION
        word = (word >> turn) | (word << ((-turn) & _SIXTY_THREE))
        np.multiply(word >> np.uint64(11), _SCALE, out=uniforms[lanes])
    return uniforms


__all__ = [
    "PhiloxCoins",
    "lane_block_uniforms",
    "lane_uniforms",
    "lane_words",
    "seeded_uniforms",
    "stream_key",
    "stream_uniforms",
]
