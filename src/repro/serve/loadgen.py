"""Load generator: a measurable serving workload against a LiveEngine.

"Serves heavy traffic" is a claim about *mixed* load — appends and
queries interleaved — and this module makes it measurable: feed a
stream to a :class:`~repro.serve.engine.LiveEngine` in fixed-size
appends, fire a configurable mix of queries between appends, and
report sustained rates (``items/s`` ingested, ``queries/s`` answered)
plus the staleness distribution the queries actually observed.  The
serving benchmark (``benchmarks/bench_serving.py``) runs this harness
at a fixed ingest rate and records queries/sec as the repo's next
in-tree trend file.

The query mix is a ``kind name -> weight`` mapping over the unified
query protocol's kinds; queries are drawn with a seeded RNG, so a load
run is as reproducible as everything else in the repo.  Point queries
draw a random item from the universe; parameterized kinds use their
defaults.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.query import (
    AllEstimates,
    Distinct,
    Entropy,
    HeavyHitters,
    Moment,
    PointQuery,
    Query,
    QueryKind,
)
from repro.serve.engine import LiveEngine
from repro.streams.chunked import as_chunk

#: kind name → parameter-free constructor (point queries need an item
#: and are built separately).
_MIX_QUERIES: dict[str, type] = {
    str(QueryKind.ALL_ESTIMATES): AllEstimates,
    str(QueryKind.HEAVY_HITTERS): HeavyHitters,
    str(QueryKind.MOMENT): Moment,
    str(QueryKind.ENTROPY): Entropy,
    str(QueryKind.DISTINCT): Distinct,
}


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generator run.

    Rates are computed over the run's wall time; staleness fields
    summarize the ``updates_behind`` every answered query observed
    (how far the answering snapshot trailed the head).  The
    ``refresh_*`` / ``append_lock_*`` / ``snapshot_*`` fields mirror
    :meth:`~repro.serve.engine.LiveEngine.stats` at the end of the
    run: snapshot-merge timings, time appends spent stalled on the
    ingest lock, and the memoized merge-tree's reuse counters.  The
    refresh count itself is ``snapshots``.
    """

    items: int
    appends: int
    queries: int
    wall_time_s: float
    snapshots: int
    mean_staleness: float
    max_staleness: int
    query_mix: tuple[tuple[str, float], ...]
    batch_size: int = 1
    refresh_mean_ms: float = 0.0
    refresh_max_ms: float = 0.0
    append_lock_wait_ms: float = 0.0
    append_lock_held_ms: float = 0.0
    snapshot_nodes_built: int = 0
    snapshot_nodes_reused: int = 0
    snapshot_leaves_cloned: int = 0
    snapshot_leaves_reused: int = 0

    @property
    def items_per_s(self) -> float:
        """Sustained ingest rate over the whole run."""
        return self.items / self.wall_time_s if self.wall_time_s else 0.0

    @property
    def queries_per_s(self) -> float:
        """Sustained query-answer rate over the whole run."""
        return (
            self.queries / self.wall_time_s if self.wall_time_s else 0.0
        )

    def summary(self) -> str:
        """One-line human-readable load summary."""
        return (
            f"items={self.items} ({self.items_per_s:,.0f}/s) "
            f"queries={self.queries} ({self.queries_per_s:,.0f}/s) "
            f"snapshots={self.snapshots} "
            f"staleness mean={self.mean_staleness:.0f} "
            f"max={self.max_staleness} "
            f"refresh mean={self.refresh_mean_ms:.2f}ms "
            f"append-stall={self.append_lock_wait_ms:.1f}ms"
        )


def default_query_mix(engine: LiveEngine) -> dict[str, float]:
    """An even mix over the engine's declared query capabilities.

    Point queries are included whenever the family answers them;
    ``all-estimates`` is excluded (it materializes the full item map
    on every call, which drowns the per-query timing signal — opt in
    explicitly to measure it).
    """
    mix: dict[str, float] = {}
    for kind in engine.supports:
        name = str(kind)
        if name == str(QueryKind.ALL_ESTIMATES):
            continue
        mix[name] = 1.0
    if not mix:
        raise ValueError(
            f"{engine.sketch_name!r} declares no mixable query kind; "
            f"pass an explicit query_mix"
        )
    return mix


def _draw_query(
    rng: random.Random,
    names: list[str],
    weights: list[float],
    universe: int,
) -> Query:
    """One query drawn from the mix (seeded)."""
    name = rng.choices(names, weights=weights)[0]
    if name == str(QueryKind.POINT):
        return PointQuery(rng.randrange(universe))
    return _MIX_QUERIES[name]()


def generate_load(
    engine: LiveEngine,
    stream: Iterable[int] | np.ndarray,
    *,
    append_size: int = 2048,
    queries_per_append: int = 8,
    batch_size: int = 1,
    query_mix: Mapping[str, float] | None = None,
    max_staleness: int | None = None,
    seed: int = 0,
) -> LoadReport:
    """Drive ``engine`` with interleaved appends and queries.

    ``stream`` is consumed in ``append_size`` slices (the ingest
    rate knob: items per serving batch); after every append,
    ``queries_per_append`` queries drawn from ``query_mix`` are
    answered (the query-rate knob).  ``query_mix`` maps query-kind
    names to weights (default: an even mix over the engine's
    capabilities, minus ``all-estimates``); ``max_staleness`` is
    forwarded to every query.  ``batch_size > 1`` groups the drawn
    queries into :meth:`~repro.serve.engine.LiveEngine.queries`
    calls of that size — the batch read path (one consistent cut per
    group, point queries through the vectorized kernel) under the
    exact same query sequence, so batch and scalar runs answer
    identical queries.  Returns the measured rates and the staleness
    distribution.
    """
    if append_size < 1:
        raise ValueError(f"append_size must be >= 1: {append_size}")
    if queries_per_append < 0:
        raise ValueError(
            f"queries_per_append must be >= 0: {queries_per_append}"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1: {batch_size}")
    mix = dict(query_mix) if query_mix is not None else default_query_mix(
        engine
    )
    for name in mix:
        if name != str(QueryKind.POINT) and name not in _MIX_QUERIES:
            raise ValueError(
                f"unknown query kind {name!r} in query_mix; choose "
                f"from {sorted([*_MIX_QUERIES, str(QueryKind.POINT)])}"
            )
    names = sorted(mix)
    weights = [float(mix[name]) for name in names]
    rng = random.Random(seed)
    chunks = getattr(stream, "to_array", None)
    array = chunks() if chunks is not None else as_chunk(
        stream if isinstance(stream, np.ndarray) else list(stream)
    )

    items = 0
    appends = 0
    queries = 0
    staleness_total = 0
    staleness_max = 0
    start = time.perf_counter()
    for low in range(0, len(array), append_size):
        items += engine.append(array[low:low + append_size])
        appends += 1
        # The queries are drawn up front (one RNG draw sequence no
        # matter the batching) and answered in batch_size groups.
        drawn = [
            _draw_query(rng, names, weights, engine.n)
            for _ in range(queries_per_append)
        ]
        for group_low in range(0, len(drawn), batch_size):
            group = drawn[group_low:group_low + batch_size]
            if batch_size == 1:
                answers = (
                    engine.query(group[0], max_staleness=max_staleness),
                )
            else:
                answers = engine.queries(
                    group, max_staleness=max_staleness
                )
            for answer in answers:
                queries += 1
                staleness_total += answer.updates_behind
                staleness_max = max(
                    staleness_max, answer.updates_behind
                )
    wall_time_s = time.perf_counter() - start
    stats = engine.stats()
    return LoadReport(
        items=items,
        appends=appends,
        queries=queries,
        wall_time_s=wall_time_s,
        snapshots=engine.snapshots_taken,
        mean_staleness=staleness_total / queries if queries else 0.0,
        max_staleness=staleness_max,
        query_mix=tuple((name, float(mix[name])) for name in names),
        batch_size=batch_size,
        refresh_mean_ms=stats["refresh_mean_ms"],
        refresh_max_ms=stats["refresh_max_ms"],
        append_lock_wait_ms=stats["append_lock_wait_ms"],
        append_lock_held_ms=stats["append_lock_held_ms"],
        snapshot_nodes_built=stats["snapshot_nodes_built"],
        snapshot_nodes_reused=stats["snapshot_nodes_reused"],
        snapshot_leaves_cloned=stats["snapshot_leaves_cloned"],
        snapshot_leaves_reused=stats["snapshot_leaves_reused"],
    )
