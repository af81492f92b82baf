"""``Fp`` estimation for ``p in (0, 1]`` via p-stable sketches (Thm 3.2).

The [JW19] construction quoted in Section 3.1: a sketch matrix ``D``
with p-stable entries is split row-wise into its positive part
``D^{(+)}`` and negative part ``D^{(-)}``.  On an insertion-only stream
both inner products ``<D^{(+)}, f>`` and ``<D^{(-)}, f>`` are monotone
non-decreasing, so each can be maintained by a *weighted Morris
counter* with ``poly(log, 1/eps)`` state changes; the signed sketch
coordinate is recovered as their difference.  For ``p < 1`` the key
bound ``|<D^{(+)},f>| + |<D^{(-)},f>| = O(||f||_p)`` ensures the Morris
approximation error on the two halves does not swamp the difference.

Two estimators over the ``k`` sketch coordinates are provided:

* ``"median"`` — Indyk's estimator: ``median_i |s_i| / median(|D_p|)``.
* ``"log-cosine"`` — the [KNW10] estimator
  ``-lambda^p * ln(mean_i cos(s_i / lambda))`` seeded with the median
  estimate as the scale ``lambda`` (more robust when ``p`` is close
  to 1).

The sketch matrix is never stored: column ``D[:, j]`` is regenerated on
demand from a per-item generator, numpy's default generator (PCG64)
seeded with ``hash((variate_seed, j))``, which draws the column's
``(theta, r)`` uniforms for the Chambers–Mallows–Stuck transform.  This
stands in for the ``O(log(1/eps)/log log(1/eps))``-wise independent
generation of [JW19] (docs/ARCHITECTURE.md §2, deviation 4).  A
:class:`VariateTable` keeps the regenerated columns of recently seen
items, at every order ``p`` its sketches use, so each item's uniforms
are drawn once; it runs the new items' generators lane-wise, all in
one :func:`~repro.hashing.coins.seeded_uniforms` call.

Coins: the Morris levels live in ``int64`` arrays and every weighted
climb draws from an indexed Philox stream — update ``t`` row ``i``
consumes the coin at flat index ``t * num_rows + i`` — through the
shared :func:`~repro.core.counters.weighted_morris_step` kernel.  The
chunk kernel exploits that the climb condition is *monotone decreasing
in the level*: a screen computed against block-start levels is
conservative, so the (increasingly rare, as gaps outgrow the variate
magnitudes) flagged cells are settled row-vectorized while everything
else is provably a no-op — bit-identical to the scalar loop by
construction.  The kernel (:func:`absorb_chunk`) settles any set of
sketches over one table at once — a single sketch, or the entropy
estimator's node sketches: one column draw per chunk, then blocks of
up to 1,024 positions (shorter at the stream head, where levels climb
fastest), each screened per distinct item (:func:`screen_thresholds`)
and settled in waves.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

import numpy as np

from repro.core.counters import weighted_morris_step
from repro.hashing.coins import PhiloxCoins, seeded_uniforms
from repro.hashing.pstable import (
    cms_transforms,
    stable_abs_median,
    stable_log_abs_mean,
)
from repro.query import Moment, MomentAnswer, QueryKind
from repro.state.algorithm import ChunkAudit, StreamAlgorithm, payload_counts
from repro.state.tracker import StateTracker

_HALF_PI = math.pi / 2.0

#: Cells (items x rows) a column draw transforms at once: bigger draws
#: go in pieces, so the transform's temporaries -- a few arrays of this
#: many floats per order -- stay small at any row count.  At 20 rows up
#: to 6,553 new items are one piece.
_DRAW_CELLS = 1 << 17


class VariateTable:
    """Regenerated columns ``D[:, item]`` of one ``(variate_seed,
    rows)`` sketch matrix, at each of the orders ``p`` in ``orders``.

    Item ``j``'s ``(theta, r)`` uniforms are the first ``2 * rows``
    draws of numpy's default generator seeded with ``hash((variate_seed,
    j)) & 0x7FFFFFFF`` (``theta`` scaled as ``Generator.uniform`` scales
    it); they do not depend on ``p``, so one draw serves every order
    (common random numbers).  :meth:`slots` numbers items in first-seen
    order, drawing the new ones' uniforms once -- in one lane-wise
    :func:`~repro.hashing.coins.seeded_uniforms` call per piece of at
    most ``_DRAW_CELLS`` cells -- and filling every order's columns
    with one elementwise :func:`~repro.hashing.pstable.cms_transforms`
    pass per piece, which computes ``cos(theta)`` and ``-log(r)`` once
    for all orders; the sketches then gather ``columns(p)[slots]``.

    The table is a cache: reads are free in the cost model and every
    column regenerates identically, so it starts over (rather than
    grow without bound) once it would hold more than :attr:`CAPACITY`
    items.  Storage grows by doubling.  A table belongs to one
    estimator: it is never shared across estimators or threads.
    """

    #: Items held before the table starts over.
    CAPACITY = 8192

    def __init__(
        self, variate_seed: int, rows: int, orders: Iterable[float]
    ) -> None:
        self.variate_seed = variate_seed
        self.rows = rows
        self._slots: dict[int, int] = {}
        self._columns = {p: np.empty((0, rows)) for p in orders}

    def reset(self) -> None:
        """Forget every item (storage is kept for reuse)."""
        self._slots.clear()

    def slots(self, items: list[int]) -> list[int]:
        """Slots of the distinct ``items``, drawing the new ones."""
        slots = self._slots
        new = [item for item in items if item not in slots]
        if new:
            if len(slots) + len(new) > self.CAPACITY:
                self.reset()
                new = items
            self._draw(new)
        return [slots[item] for item in items]

    def columns(self, p: float) -> np.ndarray:
        """Order ``p``'s columns, one row per slot (rows past the
        last slot are unused storage)."""
        return self._columns[p]

    def _draw(self, items: list[int]) -> None:
        rows = self.rows
        start = len(self._slots)
        stop = start + len(items)
        self._slots.update(zip(items, range(start, stop)))
        orders = list(self._columns)
        for p in orders:
            columns = self._columns[p]
            if stop > len(columns):
                grown = np.empty((max(stop, 2 * len(columns), 64), rows))
                grown[:start] = columns[:start]
                self._columns[p] = grown
        step = max(1, _DRAW_CELLS // rows)
        for first in range(start, stop, step):
            last = min(stop, first + step)
            uniforms = seeded_uniforms(
                [
                    hash((self.variate_seed, item)) & 0x7FFFFFFF
                    for item in items[first - start:last - start]
                ],
                2 * rows,
            )
            # Generator.uniform(low, high): low + (high - low) * u.
            theta = -_HALF_PI + (_HALF_PI - -_HALF_PI) * uniforms[:, :rows]
            r = uniforms[:, rows:]
            for p, variates in zip(orders, cms_transforms(orders, theta, r)):
                self._columns[p][first:last] = variates


class PStableFpEstimator(StreamAlgorithm):
    """``(1+eps)``-approximate ``Fp`` for ``p in (0, 2)`` with few writes.

    Theorem 3.2 covers ``p in (0, 1]``; values up to 2 are accepted
    because the entropy estimator (Theorem 3.8) evaluates moments at
    interpolation nodes slightly above 1, where the construction still
    behaves well empirically.

    Parameters
    ----------
    p:
        Moment order in ``(0, 2)``.
    epsilon:
        Target relative accuracy; sets the default number of rows
        ``k ~ 1/eps^2``.
    num_rows:
        Explicit override of the sketch width.
    morris_a:
        Growth parameter of the two weighted Morris counters per row;
        smaller is more accurate and more write-hungry.
    variate_seed:
        Seed of the underlying ``(theta, r)`` uniforms.  Distinct
        sketches sharing a ``variate_seed`` evaluate *the same* random
        matrix at different ``p`` (common random numbers) — the entropy
        estimator relies on this to differentiate across ``p`` stably.
    """

    name = "PStableFp"
    mergeable = True
    supports = frozenset({QueryKind.MOMENT})
    draws_coins = True

    def __init__(
        self,
        p: float,
        epsilon: float = 0.3,
        num_rows: int | None = None,
        morris_a: float = 0.02,
        seed: int | None = None,
        variate_seed: int | None = None,
        tracker: StateTracker | None = None,
    ) -> None:
        if not 0.0 < p < 2.0:
            raise ValueError(f"p must be in (0, 2): {p}")
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1]: {epsilon}")
        super().__init__(tracker)
        self.p = p
        self.epsilon = epsilon
        if num_rows is None:
            num_rows = min(400, max(20, int(math.ceil(4.0 / epsilon**2))))
        self.num_rows = num_rows
        self.morris_a = morris_a
        self.seed = 0 if seed is None else seed
        self.variate_seed = self.seed if variate_seed is None else variate_seed

        self._pos_levels = np.zeros(num_rows, dtype=np.int64)
        self._neg_levels = np.zeros(num_rows, dtype=np.int64)
        self._coins = PhiloxCoins(self.seed, "pstable.climb")
        self._merge_coins = PhiloxCoins(self.seed, "pstable.merge")
        self._merge_draws = 0
        self._updates = 0
        # One word per level register: two per row.
        self.tracker.allocate(2 * num_rows)
        # The matrix is regenerated from the seed, never stored; the
        # table only caches recent columns (the entropy estimator hands
        # its node sketches one shared table over all node orders).
        self._table = VariateTable(self.variate_seed, num_rows, (p,))

    # ------------------------------------------------------------------
    # Sketch maintenance
    # ------------------------------------------------------------------
    def _variates(self, item: int) -> np.ndarray:
        """Column ``D[:, item]``, regenerated deterministically.

        The ``(theta, r)`` uniforms depend only on ``(variate_seed,
        item)`` — not on ``p`` — so sketches sharing a variate seed see
        a common random matrix smoothly parameterized by ``p``.
        """
        (slot,) = self._table.slots([item])
        return self._table.columns(self.p)[slot]

    def _step_levels(
        self, column: np.ndarray, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Post-update (pos, neg) level arrays for one arrival.

        One coin per row drives whichever half the signed variate hits
        (the other half sees weight 0 and never reads its coin); both
        halves step as the lanes of one :func:`weighted_morris_step`.
        """
        rows = self.num_rows
        new = weighted_morris_step(
            self.morris_a,
            np.concatenate((self._pos_levels, self._neg_levels)),
            np.concatenate(
                (
                    np.where(column >= 0.0, column, 0.0),
                    np.where(column < 0.0, -column, 0.0),
                )
            ),
            np.concatenate((uniforms, uniforms)),
        )
        return new[:rows], new[rows:]

    def _update(self, item: int) -> None:
        column = self._variates(item)
        t = self._updates
        self._updates = t + 1
        uniforms = self._coins.uniform_block(
            t * self.num_rows, self.num_rows
        )
        new_pos, new_neg = self._step_levels(column, uniforms)
        tracker = self.tracker
        needs = tracker.needs_cell_ids
        for prefix, levels, new in (
            ("pstable.pos", self._pos_levels, new_pos),
            ("pstable.neg", self._neg_levels, new_neg),
        ):
            for i in np.nonzero(new != levels)[0].tolist():
                applied = (
                    tracker.record_write(f"{prefix}[{i}]", True)
                    if needs
                    else tracker.count_write(True)
                )
                if applied:
                    levels[i] = new[i]

    def _update_chunk(self, chunk: np.ndarray) -> None:
        audit = ChunkAudit(len(chunk), self.tracker.needs_cell_ids)
        absorb_chunk((self,), chunk, audit)
        audit.commit(self.tracker, len(chunk))

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def coordinates(self) -> list[float]:
        """Signed sketch coordinates ``s_i = <D^{(i)}, f>`` (approx)."""
        a = self.morris_a
        pos = (np.power(1.0 + a, self._pos_levels.astype(np.float64)) - 1.0) / a
        neg = (np.power(1.0 + a, self._neg_levels.astype(np.float64)) - 1.0) / a
        return [float(p) - float(q) for p, q in zip(pos, neg)]

    def lp_norm_estimate(self, estimator: str = "median") -> float:
        """``||f||_p`` estimate via the chosen estimator.

        ``"median"`` — Indyk's estimator (default);
        ``"log-cosine"`` — [KNW10]-style refinement;
        ``"log-mean"`` — ``exp(mean_i ln|s_i| - E[ln|Z_p|])``, exactly
        unbiased in log-space and maximally correlated across ``p``
        under common random numbers (the entropy estimator's choice).
        """
        if estimator not in ("median", "log-cosine", "log-mean"):
            raise ValueError(f"unknown estimator: {estimator!r}")
        coords = self.coordinates()
        if estimator == "log-mean":
            nonzero = [abs(value) for value in coords if value != 0.0]
            if not nonzero:
                return 0.0
            log_mean = sum(math.log(value) for value in nonzero) / len(nonzero)
            return math.exp(log_mean - stable_log_abs_mean(self.p))
        scale = stable_abs_median(self.p)
        median_estimate = float(
            statistics.median(abs(value) for value in coords)
        ) / scale
        if estimator == "median" or median_estimate == 0.0:
            return median_estimate
        # Log-cosine refinement around the median estimate's scale.
        lam = median_estimate
        mean_cos = float(np.mean(np.cos(np.asarray(coords) / lam)))
        if mean_cos <= 0.05:  # out of the estimator's reliable range
            return median_estimate
        norm_p = -(lam**self.p) * math.log(mean_cos)
        return norm_p ** (1.0 / self.p)

    def _answer_moment(self, q: Moment) -> MomentAnswer:
        """``Fp`` at the sketch's configured order (median estimator)."""
        if q.p is not None and q.p != self.p:
            raise ValueError(
                f"this sketch is configured for p={self.p}, not p={q.p}"
            )
        return MomentAnswer(
            QueryKind.MOMENT, self.lp_norm_estimate() ** self.p, p=self.p
        )

    def fp_estimate(self, estimator: str = "median") -> float:
        """``Fp = ||f||_p^p`` estimate.

        The default (median) estimator is the moment query; explicit
        estimator choices bypass the protocol's single answer shape.
        """
        if estimator == "median":
            return self.query(Moment()).value
        return self.lp_norm_estimate(estimator) ** self.p

    # ------------------------------------------------------------------
    # Mergeable sketch protocol
    # ------------------------------------------------------------------
    # Each row's positive/negative halves are monotone inner products
    # ``<D^{(+/-)}, f>``, which add across stream shards; two sketches
    # sharing a variate seed see the same matrix ``D``, so merging the
    # Morris counters row-wise merges the sketches.
    def _merge_same_type(self, other: "PStableFpEstimator") -> None:
        if (
            other.p,
            other.num_rows,
            other.morris_a,
            other.variate_seed,
        ) != (
            self.p,
            self.num_rows,
            self.morris_a,
            self.variate_seed,
        ):
            raise ValueError(
                f"incompatible p-stable sketches: "
                f"p={self.p}/rows={self.num_rows}/a={self.morris_a}"
                f"/variates={self.variate_seed} vs "
                f"p={other.p}/rows={other.num_rows}/a={other.morris_a}"
                f"/variates={other.variate_seed}"
            )
        # One merge coin per row the other sketch counted, in row
        # order: the positive half's rows first, then the negative's.
        a = self.morris_a
        for levels, other_levels in (
            (self._pos_levels, other._pos_levels),
            (self._neg_levels, other._neg_levels),
        ):
            weights = np.array(
                [(math.pow(1.0 + a, L) - 1.0) / a for L in other_levels.tolist()]
            )
            rows = np.flatnonzero(weights > 0)
            uniforms = self._merge_coins.uniform_block(
                self._merge_draws, len(rows)
            )
            self._merge_draws += len(rows)
            levels[rows] = weighted_morris_step(
                a, levels[rows], weights[rows], uniforms
            )

    def _config_state(self) -> dict:
        return {
            "p": self.p,
            "epsilon": self.epsilon,
            "num_rows": self.num_rows,
            "morris_a": self.morris_a,
            "seed": self.seed,
            "variate_seed": self.variate_seed,
        }

    def _payload_state(self) -> dict:
        return {
            "positive": self._pos_levels.tolist(),
            "negative": self._neg_levels.tolist(),
            "updates": self._updates,
            "merge_draws": self._merge_draws,
        }

    def _load_payload(self, payload: dict) -> None:
        shape = (self.num_rows,)
        self._pos_levels = payload_counts(payload, "positive", shape)
        self._neg_levels = payload_counts(payload, "negative", shape)
        self._updates = int(payload_counts(payload, "updates", ()))
        self._merge_draws = int(payload_counts(payload, "merge_draws", ()))


#: Screening-block length once the sketches have absorbed that many
#: arrivals.  The screen freezes its gaps at block start, so blocks
#: bound how stale the gaps can get, while a block's fixed cost (its
#: coin blocks, its column gather, its wave sort) is paid per block.
_SCREEN_BLOCK = 1024

#: Shortest screening block.  Levels climb fastest at the stream head,
#: where a block screened against level-0 gaps flags nearly every
#: cell; so a block is never longer than the arrivals the sketches
#: have absorbed before it (16, 16, 32, 64, ... from a fresh sketch),
#: and the screen tightens as the levels rise.
_HEAD_BLOCK = 16

#: The screen's relative slack: thresholds are rounded, and a rounding
#: must never unflag a cell that moves.  False positives settle as
#: no-ops in their waves.
_SCREEN_SLACK = 1.0 + 2.0**-40


def screen_thresholds(weights: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Each cell's screening threshold: a cell whose uniform ``u`` is
    above it is a no-op of :func:`weighted_morris_step` at any level
    whose gap is at least ``gaps``.

    The step moves a level only if its coin comes up (``u * gap < w``)
    or the weight climbs a whole level (``w`` at least about ``gap``,
    where any ``u < 1`` passes too), so ``u <= w / gap`` -- with slack
    for the rounding of the division -- flags every cell that moves.
    Gaps only grow with the level, so thresholds against block-start
    gaps stay conservative for the whole block.
    """
    return weights / gaps * _SCREEN_SLACK


def absorb_chunk(
    sketches: Sequence[PStableFpEstimator],
    chunk: np.ndarray,
    audit: ChunkAudit,
) -> None:
    """Absorb a chunk's arrivals into every sketch of ``sketches``.

    The sketches must share one :class:`VariateTable` and one
    ``morris_a`` (a lone sketch, or an entropy estimator's node
    sketches); each consumes its own coins.  Writes are charged to
    ``audit`` at their chunk positions, so a position is dirty iff any
    sketch mutated on that arrival.

    The chunk settles in pieces of :attr:`VariateTable.CAPACITY`
    positions (a chunk no longer than that is one piece), so each
    piece's distinct items fit the table and take one
    :meth:`VariateTable.slots` call.
    """
    capacity = VariateTable.CAPACITY
    for low in range(0, len(chunk), capacity):
        items, inverse = np.unique(
            chunk[low:low + capacity], return_inverse=True
        )
        _absorb_piece(sketches, items, inverse, audit, low)


def _absorb_piece(
    sketches: Sequence[PStableFpEstimator],
    items: np.ndarray,
    inverse: np.ndarray,
    audit: ChunkAudit,
    offset: int,
) -> None:
    """Settle the positions ``inverse`` (indices into the distinct
    ``items``, chunk positions from ``offset``) block by block, over
    one column draw.  Any block partition settles the same levels."""
    first = sketches[0]
    table = first._table
    slots = np.asarray(table.slots(items.tolist()), dtype=np.intp)
    columns = [table.columns(sketch.p) for sketch in sketches]
    low, n = 0, len(inverse)
    while low < n:
        length = min(_SCREEN_BLOCK, max(_HEAD_BLOCK, first._updates))
        high = min(n, low + length)
        block = inverse[low:high]
        block_slots = slots
        if high - low < n:
            # The block's own distinct items, renumbered in order.
            present = np.zeros(len(items), dtype=bool)
            present[block] = True
            block_slots = slots[present]
            block = (np.cumsum(present) - 1)[block]
        _absorb_block(sketches, columns, block_slots, block, audit, offset + low)
        low = high


def _absorb_block(
    sketches: Sequence[PStableFpEstimator],
    columns: Sequence[np.ndarray],
    slots: np.ndarray,
    inverse: np.ndarray,
    audit: ChunkAudit,
    offset: int,
) -> None:
    """One screening block of the chunk kernel, settled in waves.

    The block's positions hold the items whose table slots are
    ``slots[inverse]``.  The screen reads each (sketch, distinct item,
    row) variate once: its magnitude ``|X|`` is the weight of the
    (row, sign) counter its sign picks, and its threshold
    :func:`screen_thresholds` against that counter's block-start gap.
    A position's cell is flagged iff its uniform is at most its item's
    threshold; the climb condition is monotone decreasing in the level
    and levels only rise mid-block, so an unflagged cell stays a no-op
    under any later levels.  Each sketch has ``2 * rows`` (row, sign)
    counters, numbered ``sketch * 2 * rows + counter`` across the set;
    they are independent -- each cell feeds exactly one of them -- so
    only flagged *cells* settle: sorted by (counter, position), wave
    ``k`` steps the ``k``-th flagged cell of every counter at once
    through the lane-wise :func:`weighted_morris_step` (each counter
    sees the same steps in the same order as it would alone), and each
    changed cell is charged at its own position.
    """
    first = sketches[0]
    a, rows = first.morris_a, first.num_rows
    count, width, n = len(sketches), 2 * rows, len(inverse)
    # Every index is in range: mode="clip" only spares take() the
    # buffered copy that bounds checking makes of ``out``.
    variates = np.empty((count, len(slots), rows))
    for index, table_columns in enumerate(columns):
        np.take(table_columns, slots, axis=0, out=variates[index], mode="clip")
    negative = variates < 0.0
    magnitudes = np.abs(variates, out=variates)
    # Counter c of sketch s is row c's positive half when c < rows and
    # row (c - rows)'s negative half otherwise; its number is
    # s * width + c.
    levels = np.concatenate(
        [
            half
            for sketch in sketches
            for half in (sketch._pos_levels, sketch._neg_levels)
        ]
    )
    gaps = np.power(1.0 + a, levels.astype(np.float64)).reshape(
        count, 2, 1, rows
    )
    thresholds = screen_thresholds(
        magnitudes, np.where(negative, gaps[:, 1], gaps[:, 0])
    )
    # Each sketch's coin block is screened where it lies, against its
    # items' thresholds gathered to positions.
    flags = np.empty((count, n, rows), dtype=bool)
    screen = np.empty((n, rows))
    blocks = []
    for index, sketch in enumerate(sketches):
        t0 = sketch._updates
        sketch._updates = t0 + n
        block = sketch._coins.uniform_block(t0 * rows, n * rows)
        np.take(thresholds[index], inverse, axis=0, out=screen, mode="clip")
        np.less_equal(block.reshape(n, rows), screen, out=flags[index])
        blocks.append(block)
    flagged = np.flatnonzero(flags)  # sketch-, then position-major
    if len(flagged) == 0:
        return
    # Each flagged cell's sketch and its index in that sketch's block.
    which, flat = np.divmod(flagged, n * rows)
    by_sketch = np.searchsorted(which, np.arange(count + 1)).tolist()
    coins = np.concatenate(
        [
            block[flat[low:high]]
            for block, low, high in zip(blocks, by_sketch, by_sketch[1:])
        ]
    )
    local, row = np.divmod(flat, rows)
    item = inverse[local]
    cells = which * width + row + rows * negative[which, item, row]
    # Stable sorts: by counter (positions stay ascending), then by
    # each cell's rank among its counter's cells -- its wave.  Both
    # keys take the narrowest unsigned type that holds them: numpy's
    # stable sort of 8- and 16-bit keys is a radix sort.
    order = np.argsort(
        cells.astype(np.min_scalar_type(count * width)), kind="stable"
    )
    grouped = cells[order]
    # Where each counter's run of cells starts, and where the last ends.
    edge = np.ones(len(cells) + 1, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=edge[1:-1])
    edges = np.flatnonzero(edge)
    wave = np.arange(len(cells)) - np.repeat(edges[:-1], np.diff(edges))
    order = order[
        np.argsort(wave.astype(np.min_scalar_type(n)), kind="stable")
    ]
    cells = cells[order]
    weights = magnitudes[which, item, row][order]
    coins = coins[order]
    positions = local[order] + offset
    moved_cells, moved_positions = [], []
    bounds = [0, *np.cumsum(np.bincount(wave)).tolist()]
    for low, high in zip(bounds, bounds[1:]):
        counter = cells[low:high]
        before = levels[counter]
        after = weighted_morris_step(
            a, before, weights[low:high], coins[low:high]
        )
        moved = np.flatnonzero(after != before)
        if len(moved) == 0:
            continue
        levels[counter[moved]] = after[moved]
        moved_cells.append(counter[moved])
        moved_positions.append(positions[low:high][moved])
    if moved_cells:
        audit.write_many(
            np.concatenate(moved_positions),
            np.concatenate(moved_cells) % width,
            lambda c: (
                f"pstable.pos[{c}]" if c < rows else f"pstable.neg[{c - rows}]"
            ),
        )
    for index, sketch in enumerate(sketches):
        base = index * width
        sketch._pos_levels = levels[base:base + rows]
        sketch._neg_levels = levels[base + rows:base + width]
