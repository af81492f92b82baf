"""Index-addressable coin streams: the v2 coin protocol's RNG layer.

The v1 protocol draws coins from a sequential ``random.Random``: coin
``t`` exists only after coins ``0..t-1`` were consumed, which forces
the randomized families through the scalar per-update loop — a chunk
kernel cannot replay draws out of order.  The v2 protocol replaces the
sequential generator with a *counter-based* RNG: every draw has an
index,
and the draw at index ``i`` is a pure function of ``(seed, label, i)``.

Concretely, a :class:`PhiloxCoins` stream is ``numpy.random.Philox``
keyed by ``(seed, blake2b(label))``.  Philox is a counter-mode block
cipher: output word ``i`` is obtained by pointing the 256-bit counter
at block ``i // 4`` and reading word ``i % 4`` — no sequential state,
so a vectorized kernel can fetch the exact coins positions
``[t0, t0 + n)`` would have consumed, in one call, and a scalar path
can re-derive any single coin on demand.  Both see bit-identical
values by construction, which is what the chunked ≡ scalar contract
of the v2 kernels rests on.

Uniforms use the standard 53-bit construction ``(word >> 11) * 2**-53``
(the same mapping ``numpy.random.Generator.random`` applies), so every
draw lies in ``[0, 1)``.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: 53-bit mantissa scaling: ``(word >> 11) * 2**-53`` is uniform on
#: [0, 1) with the full double precision resolution.
_SCALE = 2.0**-53

#: Read-ahead on cache misses: the first miss fetches ``_FIRST_BLOCK``
#: words and each further miss doubles that, up to ``_BLOCK``.
#: Sequential consumers (the scalar v2 paths walk their indices in
#: order) amortize one Philox construction over up to ``_BLOCK`` draws,
#: while a stream touched at a few low indices -- a held Morris
#: counter's level coins -- keeps a cache of ``_FIRST_BLOCK`` words.
_FIRST_BLOCK = 16
_BLOCK = 256

_MASK64 = (1 << 64) - 1


def stream_key(seed: int, label: str) -> np.ndarray:
    """The 128-bit Philox key of stream ``label`` under ``seed``.

    Word 0 is the seed; word 1 hashes the label, so distinct labels
    under one seed (and one label under distinct seeds) yield
    independent streams.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return np.array(
        [
            np.uint64(int(seed) & _MASK64),
            np.uint64(int.from_bytes(digest, "big")),
        ],
        dtype=np.uint64,
    )


class PhiloxCoins:
    """One labelled stream of index-addressable uniform coins.

    ``uniform(i)`` and ``uniform_block(start, count)`` are pure
    functions of the construction arguments — the instance carries a
    read-ahead cache but no behavioural state, so nothing here needs
    serializing: a restored sketch rebuilds its streams from
    ``(seed, label)`` alone and sees the same coins.
    """

    __slots__ = ("seed", "label", "_key", "_cache_start", "_cache", "_ahead")

    def __init__(self, seed: int | None, label: str) -> None:
        self.seed = 0 if seed is None else int(seed)
        self.label = label
        self._key = stream_key(self.seed, label)
        self._cache_start = 0
        self._cache: np.ndarray | None = None
        self._ahead = _FIRST_BLOCK

    def _raw(self, start: int, count: int) -> np.ndarray:
        """Raw 64-bit output words at indices ``[start, start+count)``.

        Philox's counter advances one *block* (four output words) per
        increment, so index ``start`` lives at word ``start % 4`` of
        block ``start // 4``.
        """
        block, offset = divmod(int(start), 4)
        bits = np.random.Philox(
            key=self._key, counter=[block, 0, 0, 0]
        ).random_raw(offset + count)
        return bits[offset:] if offset else bits

    def uniform_block(self, start: int, count: int) -> np.ndarray:
        """Uniforms on [0, 1) at draw indices ``[start, start+count)``.

        The returned array may alias the read-ahead cache: treat it as
        read-only.
        """
        cache = self._cache
        if (
            cache is not None
            and self._cache_start <= start
            and start + count <= self._cache_start + len(cache)
        ):
            lo = start - self._cache_start
            return cache[lo : lo + count]
        ahead = self._ahead
        if ahead < _BLOCK:
            self._ahead = 2 * ahead
        words = self._raw(start, max(count, ahead))
        self._cache = (words >> np.uint64(11)) * _SCALE
        self._cache_start = start
        return self._cache[:count]

    def uniform(self, index: int) -> float:
        """The single uniform draw at ``index``."""
        return float(self.uniform_block(index, 1)[0])


__all__ = ["PhiloxCoins", "stream_key"]
