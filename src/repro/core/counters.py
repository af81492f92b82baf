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

The unit counter is a :class:`HeldTable` row: unit Morris counters
held as numpy columns, driven by index-addressable Philox level coins
via geometric *skip-sampling* -- instead of flipping one
``(1+a)^{-X}`` coin per arrival, a counter draws how many arrivals its
level survives (a geometric variate, by inversion from the coin at
index ``X``) and counts down, so a chunk kernel absorbs ``k`` arrivals
in ``O(levels climbed)`` work.  The sample-and-hold stack's held
counters, CountMin-Morris's cells, the substream length counters and
experiment E8's trials are all table rows, and each row's level is one
tracked word, so state changes are audited by the enclosing
algorithm's :class:`~repro.state.tracker.StateTracker`.
:func:`skip_morris_step` climbs many rows at once, reading their level
coins lane-wise and inverting them with the libm calls of
:func:`geometric_threshold`, and finishes its last few climbing rows
one at a time.

:func:`weighted_morris_step` is the weighted-increment kernel on
indexed coins, shared verbatim by the scalar and the chunked p-stable
paths and by every merge (a table's and a p-stable sketch's), so their
levels agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hashing.coins import lane_block_uniforms, lane_uniforms, stream_uniforms
from repro.state.algorithm import ChunkAudit
from repro.state.tracker import StateTracker

#: Geometric thresholds are clipped here; beyond it a level is never
#: left within any feasible stream.
_MAX_THRESHOLD = 1 << 62

#: The least climb probability ``(1+a)^-L`` of a level a row can hold.
#: No feasible stream climbs past a level this unlikely to be left, and
#: a level below it has a survival log too small to invert (a zero one
#: once the power underflows), so :meth:`HeldTable.restore` refuses it
#: before a survival-log table grows to reach it.
_LEAST_CLIMB = 2.0**-1000


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
    ``u * gap_new < remainder`` for one final level, so the expected
    estimate ``((1+a)^L - 1)/a`` rises by exactly ``w``: the textbook
    weighted Morris increment, as a pure function of ``(level, weight,
    uniform)``.  Zero-weight positions never change and consume no coin
    semantics.

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


#: Survival logs by Morris parameter: entry ``L`` of ``_SURVIVAL[a]`` is
#: ``log1p(-(1+a)^-L)``, the log of the probability that level ``L``
#: survives one arrival (entry 0, never read, is NaN).  Each table is
#: filled on first use and grows by doubling, so levels that one run
#: climbs -- entropy's length counter (``a = 0.001``) alone climbs
#: ~4,200 in 65,536 arrivals -- are computed once per process.
_SURVIVAL: dict[float, np.ndarray] = {}


def _survival_logs(a: float, top: int) -> np.ndarray:
    """``a``'s survival-log table, holding at least levels ``0..top``.

    The logs are libm's (``math.log1p`` of ``**``), one level at a time,
    as :func:`geometric_threshold` has always inverted them."""
    table = _SURVIVAL.get(a)
    if table is None or top >= len(table):
        known = 0 if table is None else len(table)
        grown = np.empty(max(64, 2 * known, top + 1))
        grown[:known] = table
        grown[known:] = [
            math.log1p(-((1.0 + a) ** (-level))) if level else math.nan
            for level in range(known, len(grown))
        ]
        _SURVIVAL[a] = table = grown
    return table


def geometric_threshold(a: float, level: int, u: float) -> int:
    """Arrivals level ``level >= 1`` survives: Geometric((1+a)^-level),
    by inversion from the coin ``u``.

    The logarithms and the power are libm's (``math`` and ``**``), not
    numpy's: numpy's SIMD ``log1p`` and ``power`` can differ from libm
    in the last ulp, which would move a threshold.
    :func:`skip_morris_step` inverts its lanes with the same libm calls
    and the same survival-log table; only the division, ``ceil`` and
    clipping -- exact in both -- run in numpy there.
    """
    g = math.ceil(math.log1p(-u) / float(_survival_logs(a, level)[level]))
    return min(max(1, int(g)), _MAX_THRESHOLD)


#: Climbing lanes below which :func:`skip_morris_step` finishes one lane
#: at a time: a lane-wise round costs ~25 us however few lanes it
#: climbs, a lane's own count-down a few us per level.
_FEW_LANES = 16

#: Level coins a lane counting down on its own reads per Philox call.
_COIN_BLOCK = 64


def _count_down(
    a: float, key: tuple[int, int], level: int, left: int, need: int
) -> tuple[int, int, int, list[int]]:
    """One counter's own count-down: from ``level``, with ``left``
    arrivals to absorb and its next climb ``need`` of them away.
    Returns the new level, ``since`` and threshold, and the climbs'
    ordinals within ``left``."""
    at: list[int] = []
    coins: list[float] = []
    start = taken = 0
    while left - taken >= need:
        taken += need
        level += 1
        at.append(taken)
        if level - start >= len(coins):
            start, coins = level, stream_uniforms(key, level, _COIN_BLOCK).tolist()
        need = geometric_threshold(a, level, coins[level - start])
    return level, left - taken, need, at


def skip_morris_step(
    a: float,
    keys0: np.ndarray,
    keys1: np.ndarray,
    levels: np.ndarray,
    since: np.ndarray,
    thresholds: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Skip-sampled Morris counters absorbing unit arrivals: lane ``i``
    is one counter with Morris parameter ``a`` -- the Philox key
    ``(keys0[i], keys1[i])`` of its level-coin stream and its ``(level,
    since, threshold)`` -- absorbing ``counts[i]`` arrivals.  A climb
    needs at least one arrival, so a ``since`` at or past the threshold
    (a restore's, or a budget refusal's) climbs on the next one, as a
    scalar add does.

    Returns the new levels, ``since`` and thresholds, and every
    transition as two parallel arrays: its lane and its 1-based arrival
    ordinal within that lane's count, in ascending order per lane --
    exactly what ``counts[i]`` scalar adds would have written on.  The
    lanes climb together, one level per round; a climbing lane reads
    the coin of its new level from a cached block of four, and only
    lanes that leave their block go back to
    :func:`~repro.hashing.coins.lane_block_uniforms`.  Once fewer than
    ``_FEW_LANES`` lanes still climb, each finishes on its own
    (:func:`_count_down`).  Lanes with count 0 pass through unchanged.
    """
    keys0 = np.asarray(keys0, dtype=np.uint64)
    keys1 = np.asarray(keys1, dtype=np.uint64)
    levels = np.array(levels, dtype=np.int64)
    since = np.array(since, dtype=np.int64)
    thresholds = np.array(thresholds, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    # The climbing lanes: indices, levels, thresholds, arrivals left and
    # arrivals needed before the next climb.
    active = np.arange(len(levels))
    level, threshold, left = levels, thresholds, counts
    need = np.maximum(threshold - since, 1)
    coins = cached = None  # each lane's block of level coins, on demand
    moved: list[np.ndarray] = []
    ordinals: list[np.ndarray] = []
    while True:
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
        if len(active) < _FEW_LANES:
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
                keys0[fetch], keys1[fetch], block[stale]
            )
            cached[fetch] = block[stale]
        # geometric_threshold, lane-wise: libm logs, exact numpy rest.
        u = coins[level & 3, active]
        survival = _survival_logs(a, int(level.max()))[level]
        logs = np.fromiter(map(math.log1p, (-u).tolist()), float, len(u))
        g = np.ceil(logs / survival)
        threshold = np.minimum(np.maximum(g, 1.0), float(_MAX_THRESHOLD)).astype(
            np.int64
        )
        since[active] = 0
        need = threshold
    for lane, start, rest, first in zip(
        active.tolist(), level.tolist(), left.tolist(), need.tolist()
    ):
        key = int(keys0[lane]), int(keys1[lane])
        levels[lane], since[lane], thresholds[lane], at = _count_down(
            a, key, start, rest, first
        )
        moved.append(np.full(len(at), lane))
        ordinals.append(int(counts[lane]) - rest + np.array(at, dtype=np.int64))
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
    """Unit counters as numpy columns -- the package's one unit counter:
    the sample-and-hold stack's held counters, CountMin-Morris's cells
    and the substream length counters are its rows.

    Row ``i`` is a skip-sampled Morris counter with parameter ``a`` (an
    exact counter when ``exact``): ``level`` (the one tracked word; an
    exact row's count), the untracked shadows ``since`` (arrivals
    absorbed at the level) and ``threshold`` (arrivals the level
    survives: 1 at level 0, else drawn on entering the level from the
    coin at that index of the stream keyed ``(key0, key1)``), its
    ``created_at`` clock and its tracker ``cell`` number.  Levels only
    increase, so every path into a level -- adds, absorbs, merges,
    restores -- sees the same threshold, and checkpoints carry only
    ``(level, since)``.  Rows freed by evictions are reused; storage
    grows by doubling.

    :meth:`open` allocates a row's word and reserves its cell number
    (:meth:`label` formats the id, ``morris#k`` or ``exact#k``, only
    when the backend needs ids); :meth:`add` is the tracked scalar add,
    budget refusals included; :meth:`settle` absorbs a chunk's arrivals
    and charges them to its audit; :meth:`merge` and :meth:`restore`
    are the untracked offline loads.  Thresholds invert the coins with
    :func:`geometric_threshold` and estimates use ``**`` (not
    ``np.power``, which differs from it in the last ulp), so every
    level, threshold and estimate equals the per-object counter's that
    ``tests/test_counters.py`` keeps as the oracle.
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

    def open(
        self, key: tuple[int, int], created_at: int, cell: int | None = None
    ) -> int:
        """A fresh row at level 0 counting on the level-coin stream
        keyed ``key`` (see :func:`~repro.hashing.coins.stream_key`;
        exact rows read no coins), created at clock ``created_at``.
        Its cell number is the tracker's next unless ``cell`` is
        given."""
        tracker = self._tracker
        if cell is None:
            cell = tracker.fresh_cell_number()
        tracker.allocate(1)
        row = self._free.pop() if self._free else self._append(1)
        self.level[row] = 0
        self.since[row] = 0
        self.threshold[row] = 1
        self.key0[row], self.key1[row] = key
        self.created_at[row] = created_at
        self.cell[row] = cell
        return row

    def open_many(
        self, keys: list[tuple[int, int]], created_at: np.ndarray
    ) -> np.ndarray:
        """Fresh rows for ``keys`` and clocks ``created_at``, as one
        :meth:`open` per key in order: the same rows, cell numbers and
        words."""
        count = len(keys)
        tracker = self._tracker
        cells = [tracker.fresh_cell_number() for _ in range(count)]
        tracker.allocate(count)
        free = self._free
        rows = [free.pop() for _ in range(min(count, len(free)))]
        if len(rows) < count:
            rows.extend(range(self._append(count - len(rows)), self._rows))
        rows = np.array(rows, dtype=np.int64)
        self.level[rows] = 0
        self.since[rows] = 0
        self.threshold[rows] = 1
        self.key0[rows], self.key1[rows] = np.array(keys, dtype=np.uint64).reshape(-1, 2).T
        self.created_at[rows] = created_at
        self.cell[rows] = cells
        return rows

    def _append(self, count: int) -> int:
        """Room for ``count`` rows past the last one (storage grows by
        doubling); returns the first of them."""
        first = self._rows
        self._rows = first + count
        if self._rows > len(self.level):
            size = max(_FIRST_ROWS, 2 * len(self.level), self._rows)
            for name, dtype in _COLUMNS:
                column = np.zeros(size, dtype=dtype)
                old = getattr(self, name)
                column[: len(old)] = old
                setattr(self, name, column)
        return first

    def adopt(self, other: "HeldTable", rows: np.ndarray) -> np.ndarray:
        """Move ``other``'s rows ``rows`` -- counters of the same kind on
        the same tracker -- into this table and return their new row
        numbers.  Every column moves as is: no word is allocated and no
        cell number reserved, so ids and ``peak_words`` stay put."""
        rows = np.asarray(rows, dtype=np.int64)
        moved = np.arange(self._append(len(rows)), self._rows)
        for name, _ in _COLUMNS:
            getattr(self, name)[moved] = getattr(other, name)[rows]
        return moved

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

    def settle(
        self, rows: np.ndarray, positions: np.ndarray, audit: ChunkAudit
    ) -> None:
        """Absorb a chunk's arrivals -- arrival ``i`` at row ``rows[i]``
        and chunk position ``positions[i]``, each row's arrivals in
        ascending positions -- and charge every transition to ``audit``
        at the position of the arrival that made it: what one scalar
        :meth:`add` per arrival would have written, in one
        :meth:`absorb`."""
        rows = np.asarray(rows, dtype=np.int64)
        if not len(rows):
            return
        # A stable sort keeps each row's arrivals in stream order, so a
        # row's j-th arrival is its j-th position.  Keyed by the
        # narrowest unsigned type that holds every row number: numpy's
        # stable sort of 8- and 16-bit keys is a radix sort.
        key = rows.astype(np.min_scalar_type(self._rows))
        order = np.argsort(key, kind="stable")
        rows = rows[order]
        # Where each row's run of arrivals starts, and where the last ends.
        edge = np.ones(len(rows) + 1, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=edge[1:-1])
        edges = np.flatnonzero(edge)
        starts, counts = edges[:-1], edges[1:] - edges[:-1]
        distinct = rows[starts]
        lanes, at = self.absorb(distinct, counts)
        audit.write_many(
            np.asarray(positions)[order[starts[lanes] + at - 1]],
            self.cell[distinct[lanes]],
            self.label,
        )

    def merge(
        self, rows: np.ndarray, weights: np.ndarray, uniforms: np.ndarray
    ) -> None:
        """Absorb merged-in estimates, untracked: row ``rows[i]`` takes
        one weighted climb (:func:`weighted_morris_step`) by
        ``weights[i]`` on the merge coin ``uniforms[i]``, from the
        enclosing sketch's own merge stream (the level-coin streams stay
        single-consumer).  A row that enters a new level draws that
        level's threshold; one that stays keeps ``since`` and its
        threshold, exact by geometric memorylessness."""
        rows = np.asarray(rows, dtype=np.int64)
        levels = weighted_morris_step(self.a, self.level[rows], weights, uniforms)
        climbed = levels != self.level[rows]
        self.restore(rows[climbed], levels[climbed], 0)

    def restore(
        self, rows: np.ndarray, levels: np.ndarray, since: np.ndarray | int
    ) -> None:
        """Load ``(level, since)`` pairs into ``rows``, untracked; each
        threshold is drawn from its level's coin (1 at level 0).  A
        level whose climb probability is below ``_LEAST_CLIMB`` raises
        a ``ValueError`` naming ``'levels'``."""
        rows = np.asarray(rows, dtype=np.int64)
        levels = np.asarray(levels, dtype=np.int64)
        top = int(levels.max(initial=0))
        if (1.0 + self.a) ** -top < _LEAST_CLIMB:
            raise ValueError(
                f"'levels': level {top} is past any level a Morris counter "
                f"with a={self.a} reaches"
            )
        self.level[rows] = levels
        self.since[rows] = since
        uniforms = lane_uniforms(self.key0[rows], self.key1[rows], levels)
        self.threshold[rows] = [
            geometric_threshold(self.a, level, u) if level else 1
            for level, u in zip(levels.tolist(), uniforms.tolist())
        ]

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
        """The estimate of ``row``, as :meth:`estimates` computes it."""
        level = int(self.level[row])
        if self.exact:
            return float(level)
        return ((1.0 + self.a) ** level - 1.0) / self.a
