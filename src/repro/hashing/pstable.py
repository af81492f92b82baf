"""p-stable random variates (Definition 3.1) and their scale constants.

The ``Fp`` estimation algorithm for ``p < 1`` (Theorem 3.2) sketches the
frequency vector with entries drawn from the symmetric p-stable
distribution ``D_p``, generated by the Chambers–Mallows–Stuck transform
quoted in the paper (Section 3.1):

    X = sin(p*theta) / cos(theta)^{1/p}
        * ( cos(theta*(1-p)) / log(1/r) )^{(1/p) - 1}

with ``theta ~ Uni(-pi/2, pi/2)`` and ``r ~ Uni(0, 1)``.

Because the sketch matrix cannot be stored, variates are *derandomized*:
each item's column regenerates from a generator seeded by a hash of
``(seed, item)``, so only the seed occupies memory ([JW19]'s
limited-independence trick, realized with a hash-seeded PRNG; see
:class:`repro.core.fp_pstable.VariateTable`).  This module holds the
transform and the scale constants.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator

import numpy as np

_HALF_PI = math.pi / 2.0


def sample_pstable(p: float, theta: float, r: float) -> float:
    """Chambers–Mallows–Stuck transform of ``(theta, r)`` into ``D_p``.

    Parameters
    ----------
    p:
        Stability index in ``(0, 2]``.
    theta:
        Uniform in ``(-pi/2, pi/2)``.
    r:
        Uniform in ``(0, 1)``.
    """
    if not 0.0 < p <= 2.0:
        raise ValueError(f"stability index p must be in (0, 2]: {p}")
    if p == 1.0:
        # Degenerates to the Cauchy distribution.
        return math.tan(theta)
    numerator = math.sin(p * theta)
    denominator = math.cos(theta) ** (1.0 / p)
    correction = (math.cos(theta * (1.0 - p)) / -math.log(r)) ** (1.0 / p - 1.0)
    return numerator / denominator * correction


def cms_transform(p: float, theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized Chambers–Mallows–Stuck transform.

    Exposing the transform separately from the uniform draws enables
    *common random numbers*: evaluating several stability indices ``p``
    on the same ``(theta, r)`` arrays produces highly correlated
    estimates, which is what makes numerical differentiation across
    ``p`` (the entropy estimator, Theorem 3.8) stable.
    """
    (variates,) = cms_transforms((p,), theta, r)
    return variates


def cms_transforms(
    orders: Iterable[float], theta: np.ndarray, r: np.ndarray
) -> Iterator[np.ndarray]:
    """:func:`cms_transform` at each stability index of ``orders``, over
    one ``(theta, r)`` draw, yielded one order at a time (a caller that
    stores each before taking the next holds one order's temporaries).
    ``cos(theta)`` and ``-log(r)`` do not depend on ``p``, so they are
    computed once for all orders; every elementwise value is the one a
    lone :func:`cms_transform` gives."""
    cos_theta = neg_log_r = None
    for p in orders:
        if not 0.0 < p <= 2.0:
            raise ValueError(f"stability index p must be in (0, 2]: {p}")
        if p == 1.0:
            yield np.tan(theta)
            continue
        if cos_theta is None:
            cos_theta, neg_log_r = np.cos(theta), -np.log(r)
        numerator = np.sin(p * theta)
        denominator = cos_theta ** (1.0 / p)
        correction = (np.cos(theta * (1.0 - p)) / neg_log_r) ** (1.0 / p - 1.0)
        yield numerator / denominator * correction


def sample_pstable_array(
    p: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized draw of ``size`` independent ``D_p`` variates."""
    if not 0.0 < p <= 2.0:
        raise ValueError(f"stability index p must be in (0, 2]: {p}")
    theta = rng.uniform(-_HALF_PI, _HALF_PI, size)
    r = rng.uniform(0.0, 1.0, size)
    return cms_transform(p, theta, r)


#: Samples per :func:`cms_transform` call when evaluating the scale
#: constants: the transform's temporaries stay this size instead of
#: the whole sample's.
_TRANSFORM_BLOCK = 1 << 16


def _abs_stable_samples(p: float, num_samples: int, seed: int) -> np.ndarray:
    """``|X|`` for ``num_samples`` fixed-seed draws ``X ~ D_p``.

    The same values as ``np.abs(sample_pstable_array(p, num_samples,
    default_rng(seed)))`` — the transform is elementwise — but written
    block by block into the ``theta`` buffer, so the only full-size
    arrays are the two uniform draws.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-_HALF_PI, _HALF_PI, num_samples)
    r = rng.uniform(0.0, 1.0, num_samples)
    for low in range(0, num_samples, _TRANSFORM_BLOCK):
        high = low + _TRANSFORM_BLOCK
        theta[low:high] = cms_transform(p, theta[low:high], r[low:high])
    return np.abs(theta, out=theta)


@functools.lru_cache(maxsize=64)
def stable_abs_median(p: float, num_samples: int = 400_000) -> float:
    """Median of ``|X|`` for ``X ~ D_p`` (the Indyk estimator's scale).

    Computed once per ``p`` by a fixed-seed Monte Carlo draw (relative
    accuracy ~1e-3 at the default sample size); ``p = 1`` returns the
    exact Cauchy value ``tan(pi/4) = 1``.
    """
    if p == 1.0:
        return 1.0
    if p == 2.0:
        # |N(0, sqrt(2))| median: sqrt(2) * Phi^{-1}(0.75).
        return math.sqrt(2.0) * 0.6744897501960817
    draws = _abs_stable_samples(p, num_samples, 0xC0FFEE)
    return float(np.median(draws, overwrite_input=True))


@functools.lru_cache(maxsize=64)
def stable_log_abs_mean(p: float, num_samples: int = 2_000_000) -> float:
    """``E[ln |X|]`` for ``X ~ D_p`` — the log-mean estimator's offset.

    The estimator ``ln ||x||_p = mean_i ln|s_i| - E[ln|Z_p|]`` is exactly
    unbiased because ``s_i = ||x||_p * Z_i`` in distribution.  The
    constant is evaluated by Monte Carlo with a *fixed* seed so that
    calls at nearby ``p`` share the same underlying uniforms; the small
    Monte Carlo errors are then correlated across ``p`` and cancel in
    numerical derivatives (the entropy estimator's use case).
    """
    if not 0.0 < p <= 2.0:
        raise ValueError(f"stability index p must be in (0, 2]: {p}")
    draws = _abs_stable_samples(p, num_samples, 0xABCDE)
    draws += 1e-300
    return float(np.mean(np.log(draws, out=draws)))
