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
in the level*: a screen computed against chunk-start levels is
conservative, so the (increasingly rare, as gaps outgrow the variate
magnitudes) flagged positions are settled row-vectorized while
everything else is provably a no-op — bit-identical to the scalar loop
by construction.  The kernel (:func:`absorb_chunk`) settles any set of
sketches over one table at once — a single sketch, or the entropy
estimator's node sketches — in one sequence of waves.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

import numpy as np

from repro.core.counters import weighted_morris_step
from repro.hashing.coins import PhiloxCoins, seeded_uniforms
from repro.hashing.pstable import (
    cms_transform,
    stable_abs_median,
    stable_log_abs_mean,
)
from repro.query import Moment, MomentAnswer, QueryKind
from repro.state.algorithm import ChunkAudit, StreamAlgorithm, payload_counts
from repro.state.tracker import StateTracker

_HALF_PI = math.pi / 2.0


class VariateTable:
    """Regenerated columns ``D[:, item]`` of one ``(variate_seed,
    rows)`` sketch matrix, at each of the orders ``p`` in ``orders``.

    Item ``j``'s ``(theta, r)`` uniforms are the first ``2 * rows``
    draws of numpy's default generator seeded with ``hash((variate_seed,
    j)) & 0x7FFFFFFF`` (``theta`` scaled as ``Generator.uniform`` scales
    it); they do not depend on ``p``, so one draw serves every order
    (common random numbers).  :meth:`slots` numbers items in first-seen
    order, drawing the new ones' uniforms once -- every new item's in
    one lane-wise :func:`~repro.hashing.coins.seeded_uniforms` call --
    and filling every order's columns with one elementwise
    :func:`~repro.hashing.pstable.cms_transform` call; the sketches
    then gather ``columns(p)[slots]``.

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
        uniforms = seeded_uniforms(
            [hash((self.variate_seed, item)) & 0x7FFFFFFF for item in items],
            2 * rows,
        )
        # Generator.uniform(low, high): low + (high - low) * u.
        theta = -_HALF_PI + (_HALF_PI - -_HALF_PI) * uniforms[:, :rows]
        r = uniforms[:, rows:]
        self._slots.update(zip(items, range(start, stop)))
        for p, columns in self._columns.items():
            if stop > len(columns):
                grown = np.empty((max(stop, 2 * len(columns), 64), rows))
                grown[:start] = columns[:start]
                self._columns[p] = columns = grown
            columns[start:stop] = cms_transform(p, theta, r)


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


#: Screening-block length: the no-op screen freezes its gaps at block
#: start, so blocks bound how stale the gaps can get.  Levels climb
#: fastest early in a stream — a whole-stream chunk screened once
#: against level-0 gaps flags *every* position — while per-block
#: refreshes let the screen tighten as the levels rise.
_SCREEN_BLOCK = 1024


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
    """
    for start in range(0, len(chunk), _SCREEN_BLOCK):
        _absorb_block(
            sketches, chunk[start:start + _SCREEN_BLOCK], audit, start
        )


def _absorb_block(
    sketches: Sequence[PStableFpEstimator],
    chunk: np.ndarray,
    audit: ChunkAudit,
    offset: int,
) -> None:
    """One screening block of the chunk kernel, settled in waves.

    The screen against block-start gaps is conservative: the climb
    condition ``(w >= gap) | (u * gap < w)`` is monotone decreasing in
    the level, and levels only rise mid-block, so an unflagged cell
    stays a no-op under any later levels.  Each sketch has ``2 * rows``
    (row, sign) counters, numbered ``sketch * 2 * rows + counter``
    across the set; they are independent — each cell feeds exactly one
    of them — so only flagged *cells* settle: sorted by (counter,
    position), wave ``k`` steps the ``k``-th flagged cell of every
    counter at once through the lane-wise :func:`weighted_morris_step`
    (each counter sees the same steps in the same order as it would
    alone), and each changed cell is charged at its own position.
    """
    first = sketches[0]
    table, a, rows = first._table, first.morris_a, first.num_rows
    width = 2 * rows
    n = len(chunk)
    uniq, inverse = np.unique(chunk, return_inverse=True)
    slots = np.asarray(table.slots(uniq.tolist()), dtype=np.intp)[inverse]
    uniforms = np.empty((len(sketches), n, rows))
    variates = np.empty((len(sketches), n, rows))
    for index, sketch in enumerate(sketches):
        t0 = sketch._updates
        sketch._updates = t0 + n
        uniforms[index] = sketch._coins.uniform_block(
            t0 * rows, n * rows
        ).reshape(n, rows)
        np.take(table.columns(sketch.p), slots, axis=0, out=variates[index])
    magnitudes = np.abs(variates)
    negative = variates < 0.0
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
        len(sketches), 2, 1, rows
    )
    gaps = np.where(negative, gaps[:, 1], gaps[:, 0])
    flagged = (magnitudes >= gaps) | (uniforms * gaps < magnitudes)
    which, local, row = np.nonzero(flagged)  # sketch-, then position-major
    if len(local) == 0:
        return
    cells = which * width + row + rows * negative[which, local, row]
    # Stable sorts: by counter (positions stay ascending), then by
    # each cell's rank among its counter's cells — its wave.
    order = np.argsort(cells, kind="stable")
    grouped = cells[order]
    firsts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    wave = np.arange(len(cells)) - np.repeat(
        firsts, np.diff(np.r_[firsts, len(cells)])
    )
    order = order[np.argsort(wave, kind="stable")]
    which, local, row = which[order], local[order], row[order]
    cells = cells[order]
    weights = magnitudes[which, local, row]
    coins = uniforms[which, local, row]
    positions = local + offset
    moved_cells, moved_positions = [], []
    bounds = np.r_[0, np.cumsum(np.bincount(wave))].tolist()
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
