"""Hashing and pseudorandomness substrate.

* k-wise independent hash families over ``GF(2^61 - 1)``
  (:mod:`repro.hashing.prime_field`),
* nested universe subsampling (:mod:`repro.hashing.subsample`),
* p-stable variates and their scale constants
  (:mod:`repro.hashing.pstable`),
* index-addressable coins and lane-wise seeded generators
  (:mod:`repro.hashing.coins`).
"""

from repro.hashing.prime_field import MERSENNE_P, HashStack, KWiseHash
from repro.hashing.pstable import (
    sample_pstable,
    sample_pstable_array,
    stable_abs_median,
)
from repro.hashing.subsample import NestedUniverseSampler

__all__ = [
    "MERSENNE_P",
    "KWiseHash",
    "HashStack",
    "sample_pstable",
    "sample_pstable_array",
    "stable_abs_median",
    "NestedUniverseSampler",
]
