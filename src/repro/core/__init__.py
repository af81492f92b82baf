"""The paper's contribution: state-change-frugal streaming algorithms.

* :mod:`repro.core.counters` — Morris counters (Theorem 1.5): the
  ``HeldTable`` unit counter and the weighted climb kernel.
* :mod:`repro.core.sample_and_hold` — Algorithm 1.
* :mod:`repro.core.full_sample_and_hold` — Algorithm 2.
* :mod:`repro.core.fp_estimation` — Algorithm 3 (``Fp``, ``p >= 1``).
* :mod:`repro.core.heavy_hitters` — public heavy-hitter API (Thm 1.1).
* :mod:`repro.core.fp_pstable` — ``Fp`` for ``p in (0, 1]`` (Thm 3.2).
* :mod:`repro.core.entropy` — Shannon entropy (Theorem 3.8).
"""

from repro.core.fp_estimation import FpEstimator
from repro.core.full_sample_and_hold import FullSampleAndHold
from repro.core.heavy_hitters import HeavyHitters
from repro.core.sample_and_hold import SampleAndHold, SampleAndHoldParams
from repro.core.support_recovery import SparseSupportRecovery

__all__ = [
    "FpEstimator",
    "FullSampleAndHold",
    "HeavyHitters",
    "SampleAndHold",
    "SampleAndHoldParams",
    "SparseSupportRecovery",
]
