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
#: while a stream touched at a few low indices -- a held Morris
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


def stream_key(seed: int, label: str) -> tuple[int, int]:
    """The 128-bit Philox key of stream ``label`` under ``seed``, as
    its two 64-bit words.

    Word 0 is the seed; word 1 hashes the label, so distinct labels
    under one seed (and one label under distinct seeds) yield
    independent streams.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return (int(seed) & _MASK64, int.from_bytes(digest, "big"))


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

    def _raw(self, start: int, count: int) -> np.ndarray:
        """Raw 64-bit output words at indices ``[start, start+count)``.

        Philox's counter advances one *block* (four output words) per
        increment, so index ``start`` lives at word ``start % 4`` of
        block ``start // 4``.
        """
        block, offset = divmod(int(start), 4)
        generator = _generator()
        generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (block, 0, 0, 0), "key": self._key},
            "buffer": _EMPTY_BUFFER,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        bits = generator.random_raw(offset + count)
        return bits[offset:] if offset else bits

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
        words = self._raw(start, max(count, ahead))
        uniforms = (words >> np.uint64(11)) * _SCALE
        self._cache = (start, uniforms)
        return uniforms[:count]

    def uniform(self, index: int) -> float:
        """The single uniform draw at ``index``."""
        return float(self.uniform_block(index, 1)[0])


__all__ = ["PhiloxCoins", "stream_key"]
