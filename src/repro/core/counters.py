"""Approximate counters with few state changes (Theorem 1.5).

The paper's algorithms replace every exact per-item counter with a
*Morris counter* [Mor78, NY22]: a register holding only a level ``X``
that increments with probability ``(1+a)^{-X}``, so that counting to
``n`` costs ``O(log(a*n)/log(1+a))`` state changes instead of ``n``.
The estimate ``((1+a)^X - 1)/a`` is an unbiased estimator of the true
count with ``Var <= a * n^2 / 2``; choosing ``a = 2*eps^2*delta`` gives
a ``(1+eps)``-approximation with probability ``1 - delta`` (Chebyshev),
and a median over ``O(log 1/delta)`` copies upgrades the failure
probability exponentially (the NY22 parameterization behind Thm 1.5).

Four counter flavours share the :class:`ApproximateCounter` interface:

* :class:`ExactCounter` — writes on every update (the baseline).
* :class:`MorrisCounter` — the textbook counter: unit and weighted
  increments, few writes, coins from a caller-supplied sequential
  ``random.Random``.  Experiment E8 studies it directly.
* :class:`SkipMorrisCounter` — the unit counter every coin family
  holds: the same distribution, but driven by index-addressable
  :class:`~repro.hashing.coins.PhiloxCoins` draws via geometric
  *skip-sampling* — instead of flipping one ``(1+a)^{-X}`` coin per
  arrival, it draws how many arrivals the current level survives
  (a geometric variate, by inversion from the coin at index ``X``)
  and counts down, so a chunk kernel can absorb ``k`` arrivals in
  ``O(levels climbed)`` work.
* :class:`MedianMorrisCounter` — median of independent textbook Morris
  copies.

All of them store their registers in tracked cells so state changes are
audited by the enclosing algorithm's
:class:`~repro.state.tracker.StateTracker`.

:func:`weighted_morris_step` is the weighted-increment kernel on
indexed coins, shared verbatim by the scalar and the chunked p-stable
paths so their levels agree bit for bit.  :func:`skip_morris_step` is
its unit-increment sibling: it advances many skip counters at once,
reading their level coins lane-wise and inverting them with the libm
calls of :func:`geometric_threshold`.  :class:`HeldTable` keeps many
unit counters -- the sample-and-hold stack's held counters -- as numpy
columns, so a wave of arrivals steps its rows in one
:func:`skip_morris_step`; :class:`SkipMorrisCounter` stays the
per-object form (and the table's test oracle).
"""

from __future__ import annotations

import abc
import functools
import math
import random

import numpy as np

from repro.hashing.coins import PhiloxCoins, lane_block_uniforms, stream_uniforms
from repro.state.registers import TrackedValue
from repro.state.tracker import StateTracker

#: Geometric thresholds are clipped here; beyond it a level is never
#: left within any feasible stream.
_MAX_THRESHOLD = 1 << 62


def weighted_morris_step(
    a: float,
    levels: np.ndarray,
    weights: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Vectorized weighted Morris increment on indexed coins.

    For each position: weight ``w`` climbs ``d`` whole levels
    deterministically (the largest ``d`` with
    ``consumed(d) = gap * ((1+a)^d - 1)/a <= w``, found in closed form
    with ``floor(log1p(a*w/gap)/log1p(a))`` plus one-step fix-ups for
    float rounding), then the remainder flips the coin
    ``u * gap_new < remainder`` for one final level — the same
    distribution as :meth:`MorrisCounter._climbed_level`, but a pure
    function of ``(level, weight, uniform)``.  Zero-weight positions
    never change and consume no coin semantics.

    Both the scalar update and the chunk kernels call *this*
    function, so chunked ≡ scalar holds bit for bit by construction.
    """
    levels = np.asarray(levels, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    u = np.asarray(uniforms, dtype=np.float64)
    la = math.log1p(a)
    gap = np.power(1.0 + a, levels.astype(np.float64))
    positive = w > 0.0
    ratio = np.divide(a * w, gap, out=np.zeros_like(w), where=positive)
    d = np.floor(np.log1p(ratio) / la)
    d = np.where(positive, np.maximum(d, 0.0), 0.0)
    # consumed(d) <= w < consumed(d+1) must hold exactly; the closed
    # form can be off by one ulp-driven step in either direction.
    for _ in range(2):
        consumed = gap * np.expm1(d * la) / a
        d = np.where((consumed > w) & (d > 0.0), d - 1.0, d)
    for _ in range(2):
        consumed_next = gap * np.expm1((d + 1.0) * la) / a
        d = np.where(positive & (consumed_next <= w), d + 1.0, d)
    remainder = w - gap * np.expm1(d * la) / a
    new_levels = levels + d.astype(np.int64)
    new_gap = np.power(1.0 + a, new_levels.astype(np.float64))
    coin = positive & (remainder > 0.0) & (u * new_gap < remainder)
    return new_levels + coin.astype(np.int64)


def climbed_level(a: float, level: int, weight: float, u: float) -> int:
    """Scalar wrapper over :func:`weighted_morris_step` (merge path)."""
    return int(
        weighted_morris_step(
            a,
            np.array([level], dtype=np.int64),
            np.array([float(weight)]),
            np.array([float(u)]),
        )[0]
    )


@functools.lru_cache(maxsize=4096)
def _survival_log(a: float, level: int) -> float:
    """``log1p(-(1+a)^-level)``: the log of the probability that level
    ``level`` survives one arrival."""
    return math.log1p(-((1.0 + a) ** (-level)))


def geometric_threshold(a: float, level: int, u: float) -> int:
    """Arrivals level ``level >= 1`` survives: Geometric((1+a)^-level),
    by inversion from the coin ``u``.

    The logarithms and the power are libm's (``math`` and ``**``), not
    numpy's: numpy's SIMD ``log1p`` and ``power`` can differ from libm
    in the last ulp, which would move a threshold.
    :func:`skip_morris_step` inverts its lanes with the same libm calls;
    only the division, ``ceil`` and clipping -- exact in both -- run
    in numpy there.
    """
    g = math.ceil(math.log1p(-u) / _survival_log(a, level))
    return min(max(1, int(g)), _MAX_THRESHOLD)


def skip_morris_step(
    a: float,
    keys0: np.ndarray,
    keys1: np.ndarray,
    levels: np.ndarray,
    since: np.ndarray,
    thresholds: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lane-wise :meth:`SkipMorrisCounter.absorb`: lane ``i`` is one
    counter with Morris parameter ``a`` -- the Philox key
    ``(keys0[i], keys1[i])`` of its level-coin stream and its
    ``(level, since, threshold)`` -- absorbing ``counts[i]`` unit
    arrivals.

    Returns the new levels, ``since`` and thresholds, and every
    transition as two parallel arrays: its lane and its 1-based arrival
    ordinal within that lane's count, in ascending order per lane --
    exactly what ``counts[i]`` scalar adds would have written on.  The
    lanes climb together, one level per round; a climbing lane reads
    the coin of its new level from a cached block of four, and only
    lanes that leave their block go back to
    :func:`~repro.hashing.coins.lane_block_uniforms`.  Lanes with
    count 0 pass through unchanged.
    """
    keys = np.array(
        [np.asarray(keys0, dtype=np.uint64), np.asarray(keys1, dtype=np.uint64)]
    )
    levels = np.array(levels, dtype=np.int64)
    since = np.array(since, dtype=np.int64)
    thresholds = np.array(thresholds, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    # The climbing lanes: indices, levels, thresholds, arrivals left.
    active = np.arange(len(levels))
    level, threshold, left = levels, thresholds, counts
    need = threshold - since
    coins = cached = None  # each lane's block of level coins, on demand
    moved: list[np.ndarray] = []
    ordinals: list[np.ndarray] = []
    while len(active):
        climb = left >= need
        if not climb.all():
            stay = ~climb
            done = active[stay]
            levels[done] = level[stay]
            since[done] += left[stay]
            thresholds[done] = threshold[stay]
            active, level, left, need = (
                active[climb], level[climb], left[climb], need[climb]
            )
            if not len(active):
                break
        left = left - need
        level = level + 1
        moved.append(active)
        ordinals.append(counts[active] - left)
        if coins is None:
            coins = np.empty((4, len(levels)))
            cached = np.full(len(levels), -1, dtype=np.int64)
        block = level >> 2
        stale = cached[active] != block
        if stale.any():
            fetch = active[stale]
            coins[:, fetch] = lane_block_uniforms(
                *keys[:, fetch], block[stale]
            )
            cached[fetch] = block[stale]
        # geometric_threshold, lane-wise: libm logs, exact numpy rest.
        u = coins[level & 3, active]
        survival = [_survival_log(a, x) for x in level.tolist()]
        logs = np.fromiter(map(math.log1p, (-u).tolist()), float, len(u))
        g = np.ceil(logs / np.array(survival))
        threshold = np.minimum(np.maximum(g, 1.0), float(_MAX_THRESHOLD)).astype(
            np.int64
        )
        since[active] = 0
        need = threshold
    if moved:
        lanes = np.concatenate(moved)
        at = np.concatenate(ordinals)
        order = np.argsort(lanes, kind="stable")
        lanes, at = lanes[order], at[order]
    else:
        lanes = at = np.zeros(0, dtype=np.int64)
    return levels, since, thresholds, lanes, at


#: Rows a table makes room for at its first growth.
_FIRST_ROWS = 64

#: The table's numpy columns and their dtypes.
_COLUMNS = (
    ("level", np.int64),
    ("since", np.int64),
    ("threshold", np.int64),
    ("key0", np.uint64),
    ("key1", np.uint64),
    ("created_at", np.int64),
    ("cell", np.int64),
)


class HeldTable:
    """Unit counters as numpy columns: the held counters of a set of
    sample-and-hold leaves.

    Row ``i`` is one counter -- a :class:`SkipMorrisCounter` with
    parameter ``a``, or an :class:`ExactCounter` when ``exact`` -- kept
    as column entries instead of objects: ``level`` (the one tracked
    word; an exact row's count), the untracked skip shadows ``since``
    and ``threshold``, the Philox key ``(key0, key1)`` of its
    level-coin stream, its ``created_at`` clock and its tracker
    ``cell`` number.  Leaves map held items to rows, and the leaves of
    one composite share one table, so a wave of arrivals over many
    leaves' counters gathers and scatters its rows with one fancy
    index each.  Rows freed by evictions are reused; storage grows by
    doubling.

    A row is the counter object, word for word: :meth:`open` allocates
    its level word and reserves one cell number (labelled ``morris#k``
    or ``exact#k``, formatted only when the backend needs cell ids),
    :meth:`add` is the counter's tracked ``add`` -- a budget refusal
    included -- :meth:`absorb` its untracked ``absorb``, and
    :meth:`release` frees the word.  Threshold draws invert the level
    coins with :func:`geometric_threshold`, estimates use ``**`` (not
    ``np.power``, which differs from it in the last ulp), so every
    level, threshold and estimate equals the object's.
    """

    __slots__ = (
        "a",
        "exact",
        *(name for name, _ in _COLUMNS),
        "_tracker",
        "_rows",
        "_free",
    )

    def __init__(
        self, tracker: StateTracker, a: float, exact: bool = False
    ) -> None:
        if not exact and a <= 0:
            raise ValueError(f"Morris parameter a must be positive: {a}")
        self.a = a
        self.exact = exact
        for name, dtype in _COLUMNS:
            setattr(self, name, np.zeros(0, dtype=dtype))
        self._tracker = tracker
        self._rows = 0  # rows ever opened: row numbers stay below it
        self._free: list[int] = []

    def label(self, cell: int) -> str:
        """The trace label of cell number ``cell``."""
        return f"{'exact' if self.exact else 'morris'}#{cell}"

    def open(self, key: tuple[int, int], created_at: int) -> int:
        """A fresh row at level 0 counting on the level-coin stream
        keyed ``key`` (see :func:`~repro.hashing.coins.stream_key`;
        exact rows read no coins), created at clock ``created_at``."""
        tracker = self._tracker
        cell = tracker.fresh_cell_number()
        tracker.allocate(1)
        if self._free:
            row = self._free.pop()
        else:
            row = self._rows
            if row == len(self.level):
                self._grow()
            self._rows = row + 1
        self.level[row] = 0
        self.since[row] = 0
        self.threshold[row] = 1
        self.key0[row], self.key1[row] = key
        self.created_at[row] = created_at
        self.cell[row] = cell
        return row

    def _grow(self) -> None:
        size = max(_FIRST_ROWS, 2 * len(self.level))
        for name, dtype in _COLUMNS:
            column = np.zeros(size, dtype=dtype)
            old = getattr(self, name)
            column[: len(old)] = old
            setattr(self, name, column)

    def release(self, row: int) -> None:
        """Free ``row``'s word (on eviction); the row is reused."""
        self._tracker.free(1)
        self._free.append(row)

    def add(self, row: int) -> None:
        """One unit arrival at ``row``, written through the tracker."""
        if self.exact:
            if self._write(row):
                self.level[row] += 1
            return
        since = self.since[row] + 1
        self.since[row] = since
        if since >= self.threshold[row] and self._write(row):
            level = int(self.level[row]) + 1
            self.level[row] = level
            self.since[row] = 0
            key = int(self.key0[row]), int(self.key1[row])
            self.threshold[row] = geometric_threshold(
                self.a, level, float(stream_uniforms(key, level, 1)[0])
            )

    def _write(self, row: int) -> bool:
        """One mutating write on ``row``'s level; False if refused."""
        tracker = self._tracker
        if tracker.needs_cell_ids:
            return tracker.record_write(self.label(int(self.cell[row])), True)
        return tracker.count_write(True)

    def absorb(
        self, rows: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Absorb ``counts[i]`` unit arrivals into row ``rows[i]`` (rows
        distinct), untracked: the chunk kernels' counting pass.

        Returns every transition as two parallel arrays -- its lane
        ``i`` and its 1-based arrival ordinal within ``counts[i]`` --
        exactly the arrivals scalar :meth:`add` calls would have
        written on.  Exact rows write on every arrival; Morris rows
        climb together in one :func:`skip_morris_step`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if self.exact:
            self.level[rows] += counts
            lanes = np.repeat(np.arange(len(rows)), counts)
            at = np.arange(1, len(lanes) + 1) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            return lanes, at
        levels, since, thresholds, lanes, at = skip_morris_step(
            self.a,
            self.key0[rows],
            self.key1[rows],
            self.level[rows],
            self.since[rows],
            self.threshold[rows],
            counts,
        )
        self.level[rows] = levels
        self.since[rows] = since
        self.threshold[rows] = thresholds
        return lanes, at

    def estimates(self, rows: np.ndarray) -> np.ndarray:
        """The estimates of ``rows``, as floats: ``((1 + a) ** L - 1) /
        a`` with Python floats, once per distinct level ``L``."""
        levels = self.level[rows]
        if self.exact:
            return levels.astype(np.float64)
        distinct, inverse = np.unique(levels, return_inverse=True)
        a = self.a
        by_level = [((1.0 + a) ** level - 1.0) / a for level in distinct.tolist()]
        return np.array(by_level, dtype=np.float64)[inverse]

    def estimate(self, row: int) -> float:
        """The estimate of ``row``."""
        return float(self.estimates(np.array([row]))[0])


class ApproximateCounter(abc.ABC):
    """A monotone counter supporting weighted increments."""

    @abc.abstractmethod
    def add(self, weight: float = 1.0) -> None:
        """Increase the counted quantity by ``weight >= 0``."""

    @property
    @abc.abstractmethod
    def estimate(self) -> float:
        """Current estimate of the total added weight."""

    @abc.abstractmethod
    def release(self) -> None:
        """Free the counter's tracked memory (on eviction)."""


class ExactCounter(ApproximateCounter):
    """An exact counter: one state change per (effective) increment."""

    __slots__ = ("_cell",)

    def __init__(self, tracker: StateTracker, cell_id: str | None = None) -> None:
        cell_id = cell_id or tracker.fresh_cell_id("exact")
        self._cell: TrackedValue[float] = TrackedValue(tracker, cell_id, 0.0)

    def add(self, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"counter increments must be >= 0: {weight}")
        if weight == 0:
            return
        self._cell.set(self._cell.value + weight)

    @property
    def estimate(self) -> float:
        return self._cell.value

    def release(self) -> None:
        self._cell.release()


class MorrisCounter(ApproximateCounter):
    """Base-``(1+a)`` Morris counter with unbiased weighted increments.

    Parameters
    ----------
    tracker:
        State tracker charged for the level register.
    a:
        Growth parameter; smaller ``a`` means more accuracy and more
        state changes.  ``a -> 0`` degenerates to an exact counter.
    rng:
        Source of the increment coin flips.

    Notes
    -----
    Weighted increments generalize the classical unit increment while
    preserving unbiasedness: weight ``w`` first climbs whole levels
    deterministically while ``w`` exceeds the current level gap
    ``a*(1+a)^X``, then flips a coin with probability
    ``w_remainder / gap`` for the final level.  Unit increments with
    ``w=1`` reduce to the textbook behaviour once the gap exceeds 1.
    Monotone inner products maintained this way are exactly the
    mechanism [JW19] uses for the ``p < 1`` moment sketch (Thm 3.2).
    """

    __slots__ = ("a", "_rng", "_level")

    def __init__(
        self,
        tracker: StateTracker,
        a: float,
        rng: random.Random,
        cell_id: str | None = None,
    ) -> None:
        if a <= 0:
            raise ValueError(f"Morris parameter a must be positive: {a}")
        cell_id = cell_id or tracker.fresh_cell_id("morris")
        self.a = a
        self._rng = rng
        self._level: TrackedValue[int] = TrackedValue(tracker, cell_id, 0)

    @classmethod
    def with_accuracy(
        cls,
        tracker: StateTracker,
        epsilon: float,
        delta: float,
        rng: random.Random,
        cell_id: str | None = None,
    ) -> "MorrisCounter":
        """Counter achieving ``(1+epsilon)`` accuracy w.p. ``1-delta``.

        Chebyshev on ``Var <= a*n^2/2`` gives failure probability
        ``a / (2*epsilon^2)``; solving for ``a`` yields
        ``a = 2*epsilon^2*delta``.
        """
        if not 0 < epsilon:
            raise ValueError(f"epsilon must be positive: {epsilon}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1): {delta}")
        return cls(tracker, a=2.0 * epsilon * epsilon * delta, rng=rng, cell_id=cell_id)

    def _gap(self, level: int) -> float:
        """Estimate increase from one more level.

        ``((1+a)^{X+1} - (1+a)^X)/a = (1+a)^X`` — the classical Morris
        increment probability is its reciprocal ``(1+a)^{-X}``.
        """
        return (1.0 + self.a) ** level

    def _climbed_level(self, weight: float) -> int:
        """Level reached after absorbing ``weight`` (unbiased).

        Weight ``w`` first climbs whole levels deterministically while
        ``w`` exceeds the current level gap, then flips a coin with
        probability ``w_remainder / gap`` for the final level.
        """
        level = self._level.value
        remaining = weight
        gap = self._gap(level)
        while remaining >= gap:
            remaining -= gap
            level += 1
            gap = self._gap(level)
        if remaining > 0 and self._rng.random() < remaining / gap:
            level += 1
        return level

    def add(self, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"counter increments must be >= 0: {weight}")
        if weight == 0:
            return
        level = self._climbed_level(weight)
        if level != self._level.value:
            self._level.set(level)

    @property
    def estimate(self) -> float:
        level = self._level.value
        return ((1.0 + self.a) ** level - 1.0) / self.a

    @property
    def level(self) -> int:
        """Current stored level ``X`` (the only persisted word)."""
        return self._level.value

    def release(self) -> None:
        self._level.release()


class SkipMorrisCounter(ApproximateCounter):
    """Unit Morris counter on indexed coins (skip-sampling).

    The stored state is the level ``X`` (one tracked word) plus two
    untracked shadows: ``since``, the arrivals absorbed at the current
    level, and the geometric ``threshold`` at which the level is left.
    Entering level ``X`` draws the threshold by inversion from the coin
    at index ``X`` of the counter's :class:`PhiloxCoins` stream —
    levels only increase, so each index is consumed at most once and
    any path (scalar adds, bulk absorbs, merges, restores) that enters
    a level sees the same threshold.  ``threshold`` is therefore
    recomputable and never serialized; checkpoints carry only
    ``(level, since)``.

    Level 0 keeps the textbook counter's deterministic first step: the
    increment probability is 1, so the threshold is 1 and no coin is
    spent.
    """

    __slots__ = ("a", "cell_id", "_coins", "_level", "_since", "_threshold")

    def __init__(
        self,
        tracker: StateTracker,
        a: float,
        coins: PhiloxCoins,
        cell_id: str | None = None,
    ) -> None:
        if a <= 0:
            raise ValueError(f"Morris parameter a must be positive: {a}")
        cell_id = cell_id or tracker.fresh_cell_id("morris")
        self.a = a
        self.cell_id = cell_id
        self._coins = coins
        self._level: TrackedValue[int] = TrackedValue(tracker, cell_id, 0)
        self._since = 0
        self._threshold = 1

    def _geometric(self, level: int) -> int:
        """Arrivals level ``level`` survives: Geometric((1+a)^-level)."""
        if level <= 0:
            return 1
        return geometric_threshold(self.a, level, self._coins.uniform(level))

    def add(self, weight: float = 1.0) -> None:
        if weight != 1.0:
            raise ValueError(
                f"SkipMorrisCounter only supports unit increments: {weight}"
            )
        self._since += 1
        if self._since >= self._threshold:
            level = self._level.value + 1
            if self._level.set(level):
                self._since = 0
                self._threshold = self._geometric(level)

    def absorb(self, count: int) -> list[int]:
        """Bulk-apply ``count`` unit arrivals (untracked; kernel path).

        Returns the 1-based arrival ordinals at which the level
        transitioned — exactly the arrivals a scalar :meth:`add` loop
        would have written on — so the caller can charge the enclosing
        chunk positions.  Work is ``O(levels climbed)``, not
        ``O(count)``.
        """
        transitions: list[int] = []
        consumed = 0
        while True:
            need = self._threshold - self._since
            if count - consumed < need:
                self._since += count - consumed
                return transitions
            consumed += need
            level = self._level.value + 1
            self._level.load(level)
            transitions.append(consumed)
            self._since = 0
            self._threshold = self._geometric(level)

    @property
    def estimate(self) -> float:
        level = self._level.value
        return ((1.0 + self.a) ** level - 1.0) / self.a

    @property
    def level(self) -> int:
        """Current stored level ``X`` (the only persisted word)."""
        return self._level.value

    @property
    def since(self) -> int:
        """Arrivals absorbed at the current level (untracked shadow)."""
        return self._since

    @property
    def threshold(self) -> int:
        """Arrivals the current level survives (untracked shadow)."""
        return self._threshold

    def merge_weight(self, weight: float, u: float) -> bool:
        """Absorb a merged-in estimate via one weighted climb.

        ``u`` comes from the enclosing sketch's dedicated merge stream
        (the level-indexed stream stays single-consumer).  Entering a
        new level redraws the threshold at that level's index; an
        unchanged level keeps ``since``/``threshold`` as they are,
        which is exact by geometric memorylessness.  Untracked, like
        every merge.  Returns whether the level changed.
        """
        level = climbed_level(self.a, self._level.value, weight, u)
        if level == self._level.value:
            return False
        self._level.load(level)
        self._since = 0
        self._threshold = self._geometric(level)
        return True

    def restore(self, level: int, since: int) -> None:
        """Load a checkpointed ``(level, since)`` pair (untracked)."""
        level = int(level)
        self._level.load(level)
        self._threshold = self._geometric(level)
        self._since = int(since)

    def release(self) -> None:
        self._level.release()


class MedianMorrisCounter(ApproximateCounter):
    """Median of independent Morris counters (high-probability Thm 1.5).

    ``copies = O(log 1/delta)`` counters, each tuned for constant
    failure probability, are updated independently; the median estimate
    fails only if half the copies fail, i.e. with probability
    ``exp(-Omega(copies))``.
    """

    __slots__ = ("_copies",)

    def __init__(
        self,
        tracker: StateTracker,
        epsilon: float,
        delta: float,
        rng: random.Random,
        cell_id: str | None = None,
    ) -> None:
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1): {delta}")
        cell_id = cell_id or tracker.fresh_cell_id("medmorris")
        num_copies = max(1, int(math.ceil(4.0 * math.log(1.0 / delta))))
        if num_copies % 2 == 0:
            num_copies += 1
        self._copies = [
            # Each copy targets failure probability 1/5; the median
            # boosts it to delta.
            MorrisCounter.with_accuracy(
                tracker, epsilon, 0.2, rng, cell_id=f"{cell_id}.{i}"
            )
            for i in range(num_copies)
        ]

    def add(self, weight: float = 1.0) -> None:
        for copy in self._copies:
            copy.add(weight)

    @property
    def estimate(self) -> float:
        estimates = sorted(copy.estimate for copy in self._copies)
        return estimates[len(estimates) // 2]

    @property
    def num_copies(self) -> int:
        """Number of independent Morris copies behind the median."""
        return len(self._copies)

    @property
    def levels(self) -> list[int]:
        """Stored levels of every copy (the persisted words)."""
        return [copy.level for copy in self._copies]

    def release(self) -> None:
        for copy in self._copies:
            copy.release()
