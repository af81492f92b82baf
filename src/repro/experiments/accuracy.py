"""Experiments E2/E3/E5/E6/E8: accuracy trials for every theorem.

Each theorem promises an approximation guarantee with probability at
least 2/3; the trials here replay the estimator over independent seeds
and report the empirical success rate together with the error
distribution, which is the measurable counterpart of the guarantee.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

import numpy as np

from repro import registry
from repro.baselines import ExactFrequencyCounter
from repro.core import FpEstimator, HeavyHitters
from repro.core.counters import HeldTable
from repro.core.entropy import (
    EntropyEstimator,
    count_arrivals,
    entropy_nodes,
    hno08_entropy,
    length_counter,
)
from repro.core.fp_estimation import LevelSets
from repro.core.fp_pstable import PStableFpEstimator
from repro.hashing.coins import stream_key
from repro.query import Moment
from repro.state import StateTracker
from repro.state.algorithm import ChunkAudit
from repro.streams import FrequencyVector, planted_heavy_hitter_stream, zipf_stream


@dataclass(frozen=True)
class TrialStats:
    """Success rate and error spread over repeated runs."""

    label: str
    trials: int
    successes: int
    median_rel_error: float
    max_rel_error: float
    mean_state_changes: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def format(self) -> str:
        return (
            f"{self.label:<40} success {self.successes}/{self.trials} "
            f"({self.success_rate:.2f}); rel err median "
            f"{self.median_rel_error:.3f} max {self.max_rel_error:.3f}; "
            f"state changes ~{self.mean_state_changes:.0f}"
        )


def _stats(label, errors, successes, state_changes) -> TrialStats:
    return TrialStats(
        label=label,
        trials=len(errors),
        successes=successes,
        median_rel_error=float(statistics.median(errors)),
        max_rel_error=float(max(errors)),
        mean_state_changes=float(statistics.mean(state_changes)),
    )


def heavy_hitter_accuracy(
    n: int = 1024,
    m: int = 16384,
    p: float = 2.0,
    epsilon: float = 0.5,
    trials: int = 10,
    seed: int = 0,
) -> TrialStats:
    """E2: does ``||fhat - f||_inf <= (eps/2) ||f||_p`` hold (Thm 1.1)?

    The error is evaluated on the heavy-hitter support (items the
    theorem's guarantee is about: everything above ``(eps/4)||f||_p``);
    light items are estimated 0 by design and contribute at most their
    own (sub-threshold) frequency.
    """
    errors, state_changes = [], []
    successes = 0
    for t in range(trials):
        heavy_fraction = 0.25 + 0.05 * (t % 3)
        heavy = {7: int(heavy_fraction * m), 11: int(0.1 * m)}
        stream = planted_heavy_hitter_stream(n, m, heavy, seed=seed + t)
        f = FrequencyVector.from_stream(stream)
        threshold = 0.5 * epsilon * f.lp_norm(p)

        algo = HeavyHitters(
            n=n, m=m, p=p, epsilon=epsilon, seed=seed + 100 + t,
            # Finer Morris counters (a ~ 0.016) keep the per-item noise
            # well inside the (eps/2)||f||_p band at these scales.
            inner_kwargs={
                "repetitions": 1,
                "counter_epsilon": 0.2,
                "counter_delta": 0.2,
            },
        )
        algo.process_stream(stream)
        estimates = algo.estimates()

        watched = {
            item
            for item, count in f.items()
            if count >= 0.25 * epsilon * f.lp_norm(p)
        }
        err = max(
            abs(f[item] - estimates.get(item, 0.0)) for item in watched
        )
        errors.append(err / f.lp_norm(p))
        successes += err <= threshold
        state_changes.append(algo.state_changes)
    return _stats(
        f"E2 heavy hitters p={p} eps={epsilon}", errors, successes, state_changes
    )


def level_set_estimate(levels: LevelSets, counts: dict[int, float]) -> float:
    """Algorithm 3's level-set step (lines 8-14) fed exact ``counts``:
    copy ``r``'s level ``l`` holds every counted item its universe
    sampler keeps at ``l``, in the counts' (first-arrival) order."""
    deepest = [
        {item: sampler.level_of(item) for item in counts}
        for sampler in levels.samplers
    ]
    contributions = levels.contributions(
        lambda r, level: {
            item: count for item, count in counts.items() if deepest[r][item] >= level
        }
    )
    return sum(contributions.values())


def fp_accuracy(
    n: int = 1024,
    m: int = 8192,
    p: float = 2.0,
    epsilon_target: float = 0.5,
    trials: int = 10,
    backend: str = "sample-hold",
    seed: int = 0,
) -> TrialStats:
    """E3: is ``|Fp_hat - Fp| <= eps * Fp`` (Thm 1.3)?  The oracle arm
    feeds the estimator's level-set step the ``exact`` family's counts."""
    if backend not in ("sample-hold", "oracle"):
        raise ValueError(f"unknown backend: {backend!r}")
    # Both arms are built from one shape, so they cannot drift apart.
    shape = {"n": n, "m": m, "p": p, "epsilon": epsilon_target, "repetitions": 3}
    errors, state_changes = [], []
    successes = 0
    for t in range(trials):
        stream = zipf_stream(n, m, skew=1.3, seed=seed + t)
        truth = FrequencyVector.from_stream(stream).fp_moment(p)
        if backend == "oracle":
            algo = registry.create("exact")
            algo.process_stream(stream)
            levels = LevelSets(**shape, rng=random.Random(seed + 100 + t))
            estimate = level_set_estimate(levels, algo.estimates())
        else:
            algo = FpEstimator(
                **shape, seed=seed + 100 + t, inner_kwargs={"repetitions": 1}
            )
            algo.process_stream(stream)
            estimate = algo.fp_estimate()
        rel = abs(estimate - truth) / truth
        errors.append(rel)
        successes += rel <= epsilon_target
        state_changes.append(algo.state_changes)
    return _stats(
        f"E3 Fp p={p} backend={backend}", errors, successes, state_changes
    )


def pstable_accuracy(
    n: int = 512,
    m: int = 8192,
    p: float = 0.5,
    epsilon_target: float = 0.3,
    num_rows: int = 150,
    trials: int = 10,
    seed: int = 0,
) -> TrialStats:
    """E5: p < 1 moment accuracy of the p-stable Morris sketch (Thm 3.2)."""
    errors, state_changes = [], []
    successes = 0
    for t in range(trials):
        stream = zipf_stream(n, m, skew=1.2, seed=seed + t)
        truth = FrequencyVector.from_stream(stream).fp_moment(p)
        algo = PStableFpEstimator(p=p, num_rows=num_rows, seed=seed + 100 + t)
        algo.process_stream(stream)
        rel = abs(algo.fp_estimate() - truth) / truth
        errors.append(rel)
        successes += rel <= epsilon_target
        state_changes.append(algo.state_changes)
    return _stats(f"E5 p-stable Fp p={p}", errors, successes, state_changes)


def exact_entropy(
    exact: ExactFrequencyCounter, nodes: list[float], seed: int
) -> float:
    """Theorem 3.8's interpolation step fed the ``exact`` sketch's
    moments at ``nodes`` and the Morris stream length an
    :class:`EntropyEstimator` with ``seed`` would read over the same
    stream."""
    moments = [exact.query(Moment(p)).value for p in nodes]
    table, row = length_counter(StateTracker(), seed)
    arrivals = exact.items_processed
    audit = ChunkAudit(arrivals, needs_cell_ids=False)  # never committed
    count_arrivals(table, row, arrivals, audit)
    return hno08_entropy(nodes, moments, table.estimate(row))


def entropy_accuracy(
    n: int = 256,
    m: int = 6000,
    skew: float = 1.5,
    additive_target: float = 1.0,
    num_rows: int = 200,
    trials: int = 8,
    backend: str = "pstable",
    seed: int = 0,
) -> TrialStats:
    """E6: additive entropy error of the HNO08 estimator (Thm 3.8); the
    oracle arm feeds its interpolation step exact moments.

    Errors here are *absolute* (bits), reported in the rel-error fields.
    """
    if backend not in ("pstable", "oracle"):
        raise ValueError(f"unknown backend: {backend!r}")
    # Both arms are built from one shape, so they cannot drift apart.
    shape = {"m": m, "epsilon": 0.25, "k": 2, "node_width": 0.4}
    errors, state_changes = [], []
    successes = 0
    for t in range(trials):
        stream = zipf_stream(n, m, skew=skew, seed=seed + t)
        truth = FrequencyVector.from_stream(stream).shannon_entropy()
        if backend == "oracle":
            algo = registry.create("exact")
            algo.process_stream(stream)
            estimate = exact_entropy(algo, entropy_nodes(**shape), seed + 100 + t)
        else:
            algo = EntropyEstimator(
                **shape, num_rows=num_rows, morris_a=0.008, seed=seed + 100 + t
            )
            algo.process_stream(stream)
            estimate = algo.entropy_estimate()
        err = abs(estimate - truth)
        errors.append(err)
        successes += err <= additive_target
        state_changes.append(algo.state_changes)
    return _stats(
        f"E6 entropy backend={backend} (abs bits)", errors, successes, state_changes
    )


@dataclass(frozen=True)
class MorrisTradeoffRow:
    """One point of the Morris accuracy/write trade-off curve (E8).

    A trial's relative error is ``(estimate - count) / count``.  The
    counter is unbiased with variance ``a * count * (count - 1) / 2``
    (Theorem 1.5), so the signed mean sits near 0 and the standard
    deviation near ``sqrt(a / 2)``.
    """

    a: float
    count: int
    mean_rel_error: float
    signed_mean_rel_error: float
    sd_rel_error: float
    mean_state_changes: float


def morris_tradeoff(
    count: int = 100_000,
    a_values: tuple[float, ...] = (0.5, 0.125, 0.03, 0.008),
    trials: int = 10,
    seed: int = 0,
) -> list[MorrisTradeoffRow]:
    """E8: Theorem 1.5's trade-off — state changes vs accuracy.

    Each trial counts on the unit counter the algorithms run: one
    Morris :class:`~repro.core.counters.HeldTable` row on its own
    level-coin stream, which absorbs ``count`` arrivals in one
    :meth:`~repro.core.counters.HeldTable.settle` charged to the
    trial's own tracker.  The sd needs ``trials >= 2`` (NaN otherwise).
    """
    positions = np.arange(count)
    rows = []
    for a in a_values:
        errors, changes = [], []
        for t in range(trials):
            tracker = StateTracker()
            table = HeldTable(tracker, a)
            row = table.open(stream_key(seed, f"e8.trial{t}"), 0)
            audit = ChunkAudit(count, tracker.needs_cell_ids)
            table.settle(np.full(count, row), positions, audit)
            audit.commit(tracker, count)
            errors.append((table.estimate(row) - count) / count)
            changes.append(tracker.state_changes)
        rows.append(
            MorrisTradeoffRow(
                a=a,
                count=count,
                mean_rel_error=float(statistics.mean(map(abs, errors))),
                signed_mean_rel_error=float(statistics.mean(errors)),
                sd_rel_error=(
                    float(statistics.stdev(errors)) if trials > 1 else math.nan
                ),
                mean_state_changes=float(statistics.mean(changes)),
            )
        )
    return rows


def format_morris_tradeoff(rows: list[MorrisTradeoffRow]) -> str:
    lines = [
        f"E8 Morris counter trade-off (count to {rows[0].count}):",
        f"{'a':>10}{'mean |rel err|':>16}{'signed mean':>13}"
        f"{'sd':>9}{'sqrt(a/2)':>11}{'state changes':>16}",
    ]
    for row in rows:
        lines.append(
            f"{row.a:>10.4f}{row.mean_rel_error:>16.4f}"
            f"{row.signed_mean_rel_error:>13.4f}{row.sd_rel_error:>9.4f}"
            f"{math.sqrt(row.a / 2):>11.4f}{row.mean_state_changes:>16.1f}"
        )
    return "\n".join(lines)
