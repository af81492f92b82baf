"""Sharded-ingestion scaling experiment (the runtime's accuracy audit).

Runs a registry sketch at 1/2/4/8 shards over the same stream and
compares the merge-reduced estimates against the single-instance
baseline and the exact ground truth.  The theory being checked:

* linear sketches (CountMin, CountSketch, AMS) merge losslessly, so
  the merged estimates must be *identical* to the single-instance run
  at every shard count;
* summary-based families (Misra-Gries, SpaceSaving) stay within their
  additive error bound (which sums across shards);
* the merged state-change total equals the sum of the shard totals —
  sharding redistributes, but does not create, state changes.

All runs go through the :class:`~repro.api.Engine` facade and scoring
goes through the unified query protocol: a sketch declaring ``POINT``
is scored on the top-``k`` true items via
:class:`~repro.query.PointQuery`; otherwise its best scalar kind
(moment, distinct, entropy — in that preference order) is queried and
compared against the matching exact statistic.  No per-family
special-casing: the declared capabilities drive the scoring, and the
error columns keep the same meaning either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import registry, workloads
from repro.api import Engine
from repro.query import (
    Answer,
    Distinct,
    Entropy,
    Moment,
    PointQuery,
    Query,
    QueryKind,
)
from repro.streams import FrequencyVector

#: Query kinds a sketch can be scored on, most informative first.
_SCORING_KINDS: tuple[QueryKind, ...] = (
    QueryKind.POINT,
    QueryKind.MOMENT,
    QueryKind.DISTINCT,
    QueryKind.ENTROPY,
)


@dataclass(frozen=True)
class ShardScalingRow:
    """One shard count's accuracy/state-change measurements."""

    num_shards: int
    state_changes: int
    sum_shard_state_changes: int
    peak_words: int
    skew: float
    #: Mean |estimate - truth| over the top items (point-capable
    #: sketches) or |scalar estimate - exact statistic| (scalar kinds).
    mean_abs_error: float
    #: Max |estimate - single-instance estimate| over the same queries.
    max_dev_from_single: float


def is_scorable(sketch_cls: type) -> bool:
    """Whether :func:`shard_scaling` can score this sketch class.

    Scoring needs a declared ``POINT`` capability or one of the scalar
    kinds (moment/distinct/entropy); samplers like ``reservoir``
    declare none of them.
    """
    supports = frozenset(getattr(sketch_cls, "supports", ()))
    return any(kind in supports for kind in _SCORING_KINDS)


def _scoring_kind(supports: frozenset[QueryKind]) -> QueryKind:
    """The preferred scorable kind among the declared capabilities."""
    for kind in _SCORING_KINDS:
        if kind in supports:
            return kind
    raise TypeError(
        f"no scorable query kind among {sorted(str(k) for k in supports)}"
    )


def _scalar_query(kind: QueryKind) -> Query:
    """The parameter-free scalar query for a scoring kind."""
    return {
        QueryKind.MOMENT: Moment(),
        QueryKind.DISTINCT: Distinct(),
        QueryKind.ENTROPY: Entropy(),
    }[kind]


def _scalar_truth(
    kind: QueryKind, answer: Answer, truth: FrequencyVector
) -> float:
    """Exact statistic matching a scalar answer.

    Moment answers carry the order ``p`` they resolved, so the truth
    is computed at exactly that order.
    """
    if kind is QueryKind.MOMENT:
        return truth.fp_moment(answer.p)
    if kind is QueryKind.DISTINCT:
        return truth.fp_moment(0.0)
    return truth.shannon_entropy()


def shard_scaling(
    sketch: str = "count-min",
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    n: int = 4096,
    m: int = 65536,
    epsilon: float = 0.1,
    skew: float = 1.2,
    top_k: int = 20,
    seed: int = 0,
    workload: str = "zipf",
    executor: str = "serial",
    workload_params: dict | None = None,
    chunk_size: int | None = None,
) -> list[ShardScalingRow]:
    """Compare shard counts against the single-instance baseline.

    All runs (including the 1-shard baseline) share the same stream —
    any scenario registered in :mod:`repro.workloads` — and the same
    sketch seed, so differences are attributable to the
    routing/merge pipeline alone.  ``executor="process"`` runs the
    multi-shard rows on the pipelined shared-memory pool; results are
    bit-identical to serial by construction, making this sweep a live
    equivalence audit.
    """
    spec = workloads.scenario_spec(workload)
    params = dict(workload_params or {})
    if "skew" in spec.param_names:
        params.setdefault("skew", skew)
    stream = workloads.generate(workload, n=n, m=m, seed=seed, **params)
    truth = FrequencyVector.from_stream(stream)
    top_items = [
        item
        for item, _ in sorted(truth.items(), key=lambda kv: -kv[1])[:top_k]
    ]

    def engine_for(num_shards: int) -> Engine:
        return Engine(
            sketch,
            n=n,
            m=m,
            epsilon=epsilon,
            seed=seed,
            shards=num_shards,
            executor=executor if num_shards > 1 else "serial",
        )

    kind = _scoring_kind(registry.spec(sketch).supports)
    single = engine_for(1)
    single_report = single.run(stream, queries=(), chunk_size=chunk_size)
    if kind is QueryKind.POINT:
        single_estimates = {
            item: single.query(PointQuery(item)).value for item in top_items
        }
    else:
        single_answer = single.query(_scalar_query(kind))
        single_scalar = single_answer.value
        truth_scalar = _scalar_truth(kind, single_answer, truth)

    rows = []
    for num_shards in shard_counts:
        if num_shards == 1:
            # The 1-shard row is byte-identical to the baseline run
            # (same sketch, seed, stream, and ingestion path) — reuse
            # it instead of re-ingesting the whole stream.
            engine, report = single, single_report
        else:
            engine = engine_for(num_shards)
            report = engine.run(stream, queries=(), chunk_size=chunk_size)
        if kind is QueryKind.POINT:
            estimates = {
                item: engine.query(PointQuery(item)).value
                for item in top_items
            }
            mean_abs_error = sum(
                abs(estimates[item] - truth[item]) for item in top_items
            ) / max(1, len(top_items))
            max_dev = max(
                (
                    abs(estimates[item] - single_estimates[item])
                    for item in top_items
                ),
                default=0.0,
            )
        else:
            merged_answer = engine.query(_scalar_query(kind))
            mean_abs_error = abs(merged_answer.value - truth_scalar)
            max_dev = abs(merged_answer.value - single_scalar)
        rows.append(
            ShardScalingRow(
                num_shards=num_shards,
                state_changes=report.audit.state_changes,
                sum_shard_state_changes=sum(
                    shard.state_changes for shard in report.shard_reports
                ),
                peak_words=report.audit.peak_words,
                skew=report.skew,
                mean_abs_error=mean_abs_error,
                max_dev_from_single=max_dev,
            )
        )
    return rows


def format_shard_scaling(
    rows: Sequence[ShardScalingRow], sketch: str
) -> str:
    """Render the scaling sweep as an aligned text table."""
    lines = [
        f"Sharded ingestion scaling — {sketch} (hash-partitioned)",
        f"{'shards':>7}{'state chg':>12}{'sum(shards)':>13}"
        f"{'peak words':>12}{'skew':>7}{'mae(truth)':>12}{'dev(single)':>13}",
    ]
    for row in rows:
        lines.append(
            f"{row.num_shards:>7}{row.state_changes:>12}"
            f"{row.sum_shard_state_changes:>13}{row.peak_words:>12}"
            f"{row.skew:>7.2f}{row.mean_abs_error:>12.2f}"
            f"{row.max_dev_from_single:>13.2f}"
        )
    return "\n".join(lines)
