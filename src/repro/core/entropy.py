"""Shannon entropy estimation with few state changes (Theorem 3.8).

The [HNO08] reduction quoted in Section 3.3: Shannon entropy is
recovered from ``(1+eps')``-approximations of a small number of
fractional moments ``F_{p_i}`` evaluated at interpolation nodes
clustered around ``p = 1``:

    k      = log(1/eps) + log log m                    (node count)
    ell    = 1 / (2 * (k+1) * log m)                   (cluster width)
    g(z)   = ell * (k^2 * (z - 1) + 1) / (2k^2 + 1)
    p_i    = 1 + g(cos(i * pi / k)),   i = 0..k        (Chebyshev-style)

Writing ``G(p) = ln F_p(f)``, the empirical Shannon entropy satisfies

    H = log2(m) - G'(1) / ln(2)

because ``F'(1) = sum_i f_i ln f_i`` and ``H = log2 m - F'(1)/(m ln 2)``
with ``F(1) = m``.  We interpolate ``G`` at the nodes (degree-``k``
Lagrange polynomial) and differentiate the interpolant at 1 — the
numerically-stable equivalent of the paper's ``2^{P(0)}`` evaluation
(docs/ARCHITECTURE.md §2, deviation 3).  That step is
:func:`hno08_entropy`, a function of the node moments and a stream
length.

The estimator reads its moments from per-node
:class:`~repro.core.fp_pstable.PStableFpEstimator` sketches (the
streaming estimator of Theorem 3.8; state-change frugal).
Differentiating noisy data amplifies the per-moment relative error by
roughly ``1/width``, so the default streaming configuration widens the
node cluster (``node_width``) beyond the paper's asymptotic ``ell``;
experiment E6 (docs/ARCHITECTURE.md §5) measures the resulting
accuracy, and checks the step alone on the ``exact`` family's moments.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.counters import HeldTable
from repro.core.fp_pstable import (
    PStableFpEstimator,
    VariateTable,
    absorb_chunk,
)
from repro.hashing.coins import stream_key
from repro.query import Entropy, QueryKind, ScalarAnswer
from repro.state.algorithm import ChunkAudit, StreamAlgorithm
from repro.state.tracker import StateTracker


def hno08_nodes(k: int, log_m: float, node_width: float | None = None) -> list[float]:
    """The interpolation nodes ``p_0..p_k`` of [HNO08] Section 3.3.

    ``node_width`` overrides the asymptotic cluster width
    ``ell = 1/(2(k+1) log m)`` (useful when moment estimates are noisy;
    see the module docstring).
    """
    if k < 1:
        raise ValueError(f"need k >= 1 interpolation intervals: {k}")
    ell = node_width if node_width is not None else 1.0 / (2.0 * (k + 1) * log_m)
    if not 0 < ell < 1:
        raise ValueError(f"node width must be in (0, 1): {ell}")
    k2 = k * k
    nodes = []
    for i in range(k + 1):
        z = math.cos(i * math.pi / k)
        g = ell * (k2 * (z - 1.0) + 1.0) / (2.0 * k2 + 1.0)
        nodes.append(1.0 + g)
    return nodes


def entropy_nodes(
    m: int, epsilon: float, k: int | None = None, node_width: float | None = None
) -> list[float]:
    """:class:`EntropyEstimator`'s nodes for stream-length hint ``m``:
    :func:`hno08_nodes` with ``k = ceil(log2(1/eps) + log2 log2 m)``
    (at least 2) unless ``k`` is given."""
    log_m = math.log2(m)
    if k is None:
        k = max(2, math.ceil(math.log2(1.0 / epsilon) + math.log2(max(2.0, log_m))))
    return hno08_nodes(k, log_m, node_width)


def lagrange_derivative_at(
    nodes: list[float], values: list[float], x: float
) -> float:
    """Derivative at ``x`` of the Lagrange interpolant through
    ``(nodes[i], values[i])``.

    Uses the direct formula ``sum_i values[i] * L_i'(x)`` with
    ``L_i'(x) = sum_{j != i} prod_{l != i, j} (x - p_l) / prod_{j != i}
    (p_i - p_j)``; fine for the small ``k`` the construction needs.
    """
    if len(nodes) != len(values):
        raise ValueError("nodes and values must have equal length")
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    total = 0.0
    count = len(nodes)
    for i in range(count):
        denominator = 1.0
        for j in range(count):
            if j != i:
                denominator *= nodes[i] - nodes[j]
        numerator = 0.0
        for j in range(count):
            if j == i:
                continue
            term = 1.0
            for l in range(count):
                if l != i and l != j:
                    term *= x - nodes[l]
            numerator += term
        total += values[i] * numerator / denominator
    return total


def hno08_entropy(
    nodes: list[float], moments: list[float], length: float
) -> float:
    """Entropy (bits) from the moments ``F_p`` at the HNO08 ``nodes``
    and the stream ``length`` (floored at 2).

    ``G = ln F_p`` at the nodes, ``H = log2(length) - G'(1) / ln 2``
    through :func:`lagrange_derivative_at`, clamped to the valid range
    ``[0, log2 length]``; 0 when a moment is not positive.
    """
    length = max(2.0, length)
    if min(moments) <= 0:
        return 0.0
    values = [math.log(moment) for moment in moments]
    g_prime = lagrange_derivative_at(nodes, values, 1.0)
    entropy = math.log2(length) - g_prime / math.log(2.0)
    return min(max(entropy, 0.0), math.log2(length))


def length_counter(
    tracker: StateTracker, seed: int | None
) -> tuple[HeldTable, int]:
    """The Morris counter that supplies entropy's stream length
    (``G(1) = ln m`` and the ``log2(m)`` offset) with few writes: one
    :class:`~repro.core.counters.HeldTable` row on its own indexed coin
    stream, so a chunk's arrivals settle in one batch.  Returns the
    table and the row."""
    table = HeldTable(tracker, 0.001)
    row = table.open(stream_key(0 if seed is None else seed, "entropy.len"), 0)
    return table, row


def count_arrivals(
    table: HeldTable, row: int, arrivals: int, audit: ChunkAudit
) -> None:
    """Settle ``arrivals`` consecutive arrivals (audit positions
    ``0..arrivals-1``) on the length counter's ``row`` in one batch."""
    table.settle(np.full(arrivals, row), np.arange(arrivals), audit)


class EntropyEstimator(StreamAlgorithm):
    """Additive-``epsilon`` Shannon entropy in one pass (Theorem 3.8).

    Parameters
    ----------
    m:
        Stream-length hint (sets the default node geometry).
    epsilon:
        Target additive accuracy; sets the default node count
        ``k = ceil(log2(1/eps) + log2 log2 m)``.
    k:
        Explicit override of the number of interpolation intervals.
    node_width:
        Override of the node cluster width (see module docstring).
    """

    name = "EntropyEstimator"
    supports = frozenset({QueryKind.ENTROPY})
    draws_coins = True

    def __init__(
        self,
        m: int,
        epsilon: float = 0.25,
        k: int | None = None,
        node_width: float | None = None,
        num_rows: int | None = None,
        morris_a: float = 0.02,
        seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> None:
        if m < 2:
            raise ValueError(f"stream-length hint must be >= 2: {m}")
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1]: {epsilon}")
        super().__init__(tracker)
        self.m = m
        self.epsilon = epsilon
        self.nodes = entropy_nodes(m, epsilon, k, node_width)
        self.k = len(self.nodes) - 1

        base_seed = 0 if seed is None else seed
        # All node sketches share one variate seed (common random
        # numbers): their errors are correlated across p, which is
        # what keeps the numerical derivative G'(1) stable.
        self._sketches = [
            PStableFpEstimator(
                p=node,
                epsilon=epsilon,
                num_rows=num_rows,
                morris_a=morris_a,
                seed=base_seed + 7919 * i,
                variate_seed=base_seed,
                tracker=self.tracker,
            )
            for i, node in enumerate(self.nodes)
        ]
        # ... and so one table of regenerated columns, drawn once per
        # item for every node order.
        table = VariateTable(base_seed, self._sketches[0].num_rows, self.nodes)
        for sketch in self._sketches:
            sketch._table = table
        self._length, self._length_row = length_counter(self.tracker, seed)

    def _update(self, item: int) -> None:
        for sketch in self._sketches:
            sketch._update(item)
        self._length.add(self._length_row)

    def _update_chunk(self, chunk: np.ndarray) -> None:
        # Node sketches settle as one set and share one audit: a chunk
        # position is dirty iff any sketch (or the length counter)
        # mutated on that arrival, exactly as the scalar loop would
        # have ticked it.
        audit = ChunkAudit(len(chunk), self.tracker.needs_cell_ids)
        absorb_chunk(self._sketches, chunk, audit)
        count_arrivals(self._length, self._length_row, len(chunk), audit)
        audit.commit(self.tracker, len(chunk))

    # ------------------------------------------------------------------
    # Entropy
    # ------------------------------------------------------------------
    def entropy_estimate(self) -> float:
        """Estimated Shannon entropy (bits) of the stream so far."""
        return self.query(Entropy()).value

    def _answer_entropy(self, q: Entropy) -> ScalarAnswer:
        """Estimated Shannon entropy (bits) of the stream so far."""
        moments = [s.fp_estimate(estimator="log-mean") for s in self._sketches]
        length = self._length.estimate(self._length_row)
        return ScalarAnswer(
            QueryKind.ENTROPY, hno08_entropy(self.nodes, moments, length)
        )
