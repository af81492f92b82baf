"""Universe subsampling, used by Algorithm 3.

Two distinct subsampling modes appear in the paper:

* **Stream subsampling** (Algorithm 2, ``FullSampleAndHold``): each
  stream *update* survives independently with probability
  ``p_x = min(1, 2^{1-x})``.  Levels are nested: an update surviving at
  level ``x`` also survives at every level ``< x``.  It needs one coin
  per update, so it lives with its consumer:
  :meth:`~repro.core.full_sample_and_hold.FullSampleAndHold._deepest_level`
  maps each update's indexed coin to its deepest level.

* **Universe subsampling** (Algorithm 3): each universe *element* is
  assigned a maximum survival level via a hash function, so that the
  induced subsets ``I_1 ⊇ I_2 ⊇ ...`` are consistent across the whole
  stream (every occurrence of an item lands in exactly the same
  levels).
"""

from __future__ import annotations

import math

import numpy as np

from repro.hashing.prime_field import KWiseHash

#: Relative distance from a power of two inside which
#: :meth:`NestedUniverseSampler.levels_many` defers to the scalar
#: ``level_of``: there a vectorized ``h / P`` (rounded to ``float64``
#: before the division) and ``math.log2`` of the correctly rounded
#: scalar quotient can fall on different sides of a level boundary.
#: Both err by a few ulps (~2^-50 relative), far inside this band.
_LEVEL_BAND = 2.0**-40


class NestedUniverseSampler:
    """Hash-based nested subsets ``I_1 ⊇ I_2 ⊇ ... ⊇ I_L`` of ``[n]``.

    Level 1 contains every element (``p_1 = 1``); level ``l`` keeps each
    element with probability ``2^{1-l}``.  Element ``j`` belongs to all
    levels ``l <= level_of(j)``.

    Parameters
    ----------
    num_levels:
        Deepest level ``L``.
    seed:
        Hash seed; equal seeds give identical subsets.
    independence:
        k-wise independence of the underlying hash (default pairwise
        suffices for the variance bounds used in Lemma 3.6's analysis).
    """

    def __init__(
        self, num_levels: int, seed: int | None = None, independence: int = 2
    ) -> None:
        if num_levels < 1:
            raise ValueError(f"num_levels must be >= 1: {num_levels}")
        self.num_levels = num_levels
        self._hash = KWiseHash(independence, seed=seed)

    def level_of(self, item: int) -> int:
        """Deepest level containing ``item`` (in ``[1, num_levels]``).

        ``P[level_of(j) >= l] = 2^{1-l}``, so membership in level ``l``
        happens with exactly the paper's rate ``p_l = min(1, 2^{1-l})``.
        """
        u = self._hash.unit(item)
        if u <= 0.0:
            return self.num_levels
        # level >= l  iff  u < 2^{1-l}  iff  l < 1 - log2(u)
        deepest = int(math.floor(1.0 - math.log2(u)))
        return max(1, min(self.num_levels, deepest))

    def levels_many(self, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`level_of`: an ``int64`` array with
        ``levels_many(items)[i] == level_of(items[i])`` exactly.

        With ``u = m * 2^e`` (``frexp``, ``m`` in ``[0.5, 1)``), the
        deepest level is ``1 - e`` unless ``u`` is a power of two.  Items
        whose ``u`` lies within :data:`_LEVEL_BAND` of one (``u = 0``
        included) take the scalar ``level_of``.
        """
        mantissas, exponents = np.frexp(self._hash.unit_many(items))
        levels = np.clip(1 - exponents.astype(np.int64), 1, self.num_levels)
        near = np.flatnonzero(
            (mantissas < 0.5 + _LEVEL_BAND) | (mantissas > 1.0 - _LEVEL_BAND)
        )
        for position in near.tolist():
            levels[position] = self.level_of(int(items[position]))
        return levels

    def contains(self, item: int, level: int) -> bool:
        """Whether ``item`` belongs to subset ``I_level``."""
        if not 1 <= level <= self.num_levels:
            raise ValueError(
                f"level {level} outside [1, {self.num_levels}]"
            )
        return self.level_of(item) >= level

    def rate(self, level: int) -> float:
        """Survival probability ``p_l = min(1, 2^{1-l})`` of a level."""
        return min(1.0, 2.0 ** (1 - level))

