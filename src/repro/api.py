"""Top-level ``Engine`` facade: one object from stream to answers.

Before this module existed every caller rebuilt the same pipeline by
hand: look a sketch up in the registry, decide between a bare instance
and a :class:`~repro.runtime.sharded.ShardedRunner`, ingest, then
probe the sketch with ``hasattr`` ladders to extract answers.  The
``Engine`` composes those steps once, on top of the unified query
protocol (:mod:`repro.query`)::

    from repro.api import Engine
    from repro.query import HeavyHitters, Moment

    engine = Engine("heavy-hitters", n=4096, m=65536, epsilon=0.8, seed=7)
    report = engine.run(stream, queries=[HeavyHitters(), Moment()])
    report.answer(QueryKind.MOMENT).value   # the F2 estimate
    report.audit.state_changes              # the paper's sum_t X_t
    report.wall_time_s                      # ingest + reduce wall time

``shards=K`` switches ingestion to the sharded runtime transparently
(items are routed to shards by a hash of their identity); answers
still come from one merged sketch, and ``executor="process"``
additionally fans the shards out over the pipelined shared-memory
``multiprocessing`` pool (one worker per shard, capped by the usable
CPUs), with bit-identical results.  One ``seed`` drives the registry
factory (sketch randomness), the routing hash, and the
stream-independent RNGs, so two engines built with the same arguments
produce identical reports end to end.

Streams can be passed explicitly or named: ``run(workload="bursty")``
materializes a registered scenario (:mod:`repro.workloads`) sized by
the engine's ``n``/``m``/``seed``, and ``run(workload=Workload(...))``
replays a fully-pinned spec — the spec string is echoed in the
:class:`RunReport` as provenance.

Accounting is pluggable per run: ``run(tracking="trace")`` keeps the
full per-cell wear histogram, ``run(budget=WriteBudget(2048,
"freeze"))`` enforces a cap on the run's state changes (split across
shards), and ``run(nvm="pcm")`` prices the run on a memory technology
via a simulated wear-leveled device — all surfaced as typed
``RunReport`` fields (``budget``, ``shard_budgets``, ``nvm``).  The
default is the scalar-counter aggregate backend, the fast path.

Capability discovery needs no instance: :attr:`Engine.supports`
mirrors the registry's :class:`~repro.registry.SketchSpec.supports`
declaration, and :meth:`Engine.default_queries` builds one
parameter-free query per supported kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro import registry
from repro.nvm import (
    NVMCostModel,
    NVMDevice,
    NVMRunReport,
    price_run,
    resolve_nvm,
)
from repro.query import (
    AllEstimates,
    Answer,
    Distinct,
    Entropy,
    HeavyHitters,
    Moment,
    MultiPointQuery,
    Query,
    QueryKind,
    UnsupportedQueryError,
)
from repro.runtime.sharded import ShardedRunner, check_executor
from repro.state.algorithm import Sketch, check_coin_protocol
from repro.state.budget import BudgetReport, WriteBudget
from repro.state.report import StateChangeReport
from repro.state.tracker import BudgetBackend, resolve_tracking
from repro.workloads import Workload

#: Wear-leveling policy of the NVM device a priced run attaches (an
#: ideal remapping layer; see :mod:`repro.nvm.device`).
NVM_WEAR_LEVELING = "round-robin"

#: Parameter-free query constructors, in presentation order (point
#: queries need an item, so they cannot be defaulted).
_DEFAULT_QUERIES: tuple[tuple[QueryKind, type], ...] = (
    (QueryKind.HEAVY_HITTERS, HeavyHitters),
    (QueryKind.ALL_ESTIMATES, AllEstimates),
    (QueryKind.MOMENT, Moment),
    (QueryKind.DISTINCT, Distinct),
    (QueryKind.ENTROPY, Entropy),
)


@dataclass(frozen=True)
class RunReport:
    """Everything one :meth:`Engine.run` produced.

    Attributes
    ----------
    sketch:
        Registry name of the algorithm that ran.
    num_shards / seed:
        The ingestion configuration, echoed for provenance.
    items_processed:
        Stream updates consumed.
    wall_time_s:
        Wall-clock seconds spent ingesting and merge-reducing
        (queries are timed separately by callers that care).
    answers:
        ``(query, answer)`` pairs, in the order requested.
    audit:
        The merged run's state-change report (the paper's cost model).
    shard_reports:
        Per-shard audits (length 1 when unsharded).
    skew:
        Max-over-mean shard load (1.0 = perfectly balanced).
    executor:
        ``"serial"`` or ``"process"`` — where shard ingest ran.
    workload:
        Spec string of the named workload that generated the stream
        (``None`` when the caller passed an explicit stream).
    tracking:
        Accounting backend the shards ran on (``"aggregate"``,
        ``"trace"``, or ``"budget"``).
    budget:
        The distributed run's combined
        :class:`~repro.state.budget.BudgetReport` (limits and denials
        summed over shards); ``None`` for unbudgeted runs.
    shard_budgets:
        Per-shard budget outcomes (empty for unbudgeted runs).
    nvm:
        The run priced on a memory technology
        (:class:`~repro.nvm.NVMRunReport`) when ``nvm=`` was given.
    """

    sketch: str
    num_shards: int
    seed: int
    items_processed: int
    wall_time_s: float
    answers: tuple[tuple[Query, Answer], ...]
    audit: StateChangeReport
    shard_reports: tuple[StateChangeReport, ...]
    skew: float
    executor: str = "serial"
    workload: str | None = None
    tracking: str = "aggregate"
    budget: BudgetReport | None = None
    shard_budgets: tuple[BudgetReport, ...] = ()
    nvm: NVMRunReport | None = None
    chunk_size: int | None = None

    def answer(self, kind: QueryKind) -> Answer:
        """The first answer of the given kind.

        Raises ``KeyError`` when no requested query had that kind.
        """
        for query, answer in self.answers:
            if query.kind is kind:
                return answer
        raise KeyError(f"no {kind!s} answer in this report")

    def summary(self) -> str:
        """One-line human-readable run summary."""
        workload = f" workload={self.workload}" if self.workload else ""
        budget = f" [{self.budget.summary()}]" if self.budget else ""
        nvm = f" [{self.nvm.summary()}]" if self.nvm else ""
        return (
            f"{self.sketch}: items={self.items_processed} "
            f"shards={self.num_shards} ({self.executor}) "
            f"state_changes={self.audit.state_changes} "
            f"peak_words={self.audit.peak_words} "
            f"wall={self.wall_time_s:.3f}s{workload}{budget}{nvm}"
        )


class Engine:
    """Facade composing registry lookup, (sharded) ingestion, queries.

    Parameters
    ----------
    sketch:
        Registry name (see :func:`repro.registry.names`).
    n, m, epsilon:
        Sizing hints forwarded to the registry factory.
    seed:
        The single randomness seed: it reaches the sketch factory of
        every shard (so shards share hash functions and merge
        losslessly) and the shard routing hash.  Runs with equal
        arguments are reproducible end to end.
    shards:
        Number of ingestion shards ``K >= 1``; ``K > 1`` requires a
        mergeable sketch.
    executor:
        ``"serial"`` (default) or ``"process"`` (the pipelined
        shared-memory pool).  Results are bit-identical; only the
        wall-clock changes.
    coin_protocol:
        Optional check of the coin protocol (see
        :data:`~repro.state.algorithm.COIN_PROTOCOL`): ``"v2"``, the
        only one, is accepted for sketches that draw coins; ``"v1"``
        was retired and raises, as does any value on a coin-free
        sketch.  ``None`` skips the check.
    """

    def __init__(
        self,
        sketch: str,
        *,
        n: int = 4096,
        m: int = 65536,
        epsilon: float = 0.5,
        seed: int = 0,
        shards: int = 1,
        executor: str = "serial",
        coin_protocol: str | None = None,
    ) -> None:
        self.spec = registry.spec(sketch)
        if shards < 1:
            raise ValueError(f"need at least one shard: {shards}")
        if coin_protocol is not None:
            if not self.spec.cls.draws_coins:
                raise ValueError(
                    f"{sketch!r} has no coin protocol; coin_protocol= "
                    f"applies only to sketches that draw coins"
                )
            check_coin_protocol(coin_protocol, f"Engine({sketch!r})")
        check_executor(executor)
        if executor == "process" and (
            self.spec.cls._config_state is Sketch._config_state
        ):
            # Fail at construction, not deep inside run(): the process
            # executor round-trips shards through to_state/from_state,
            # which this family does not implement.
            raise ValueError(
                f"{sketch!r} does not support state serialization and "
                f"cannot use the process executor; use executor='serial'"
            )
        if shards > 1 and not self.spec.mergeable:
            raise ValueError(
                f"{sketch!r} is not mergeable and cannot be sharded; "
                f"mergeable sketches: {registry.mergeable_names()}"
            )
        self.sketch_name = sketch
        self.n = n
        self.m = m
        self.epsilon = epsilon
        self.seed = seed
        self.shards = shards
        self.executor = executor
        self._merged: Sketch | None = None

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    @property
    def supports(self) -> frozenset[QueryKind]:
        """Query kinds the configured sketch declares."""
        return self.spec.supports

    def default_queries(self) -> list[Query]:
        """One parameter-free query per supported kind.

        Point queries are omitted (they need an item); pass explicit
        :class:`~repro.query.PointQuery` objects to :meth:`run` for
        those.
        """
        return [
            query_cls()
            for kind, query_cls in _DEFAULT_QUERIES
            if kind in self.spec.supports
        ]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        stream: Iterable[int] | None = None,
        queries: Sequence[Query] | None = None,
        *,
        workload: Workload | str | None = None,
        tracking: str = "aggregate",
        budget: WriteBudget | int | None = None,
        budget_split: str = "even",
        nvm: str | NVMCostModel | None = None,
        nvm_cells: int = 1024,
        chunk_size: int | None = None,
    ) -> RunReport:
        """Ingest a stream, merge-reduce, answer ``queries``.

        The stream comes from exactly one of two places: an explicit
        ``stream`` iterable, or a named ``workload`` — either a
        registered scenario name (materialized with the engine's
        ``n``/``m``/``seed``, so the whole run hangs off one seed) or a
        fully-pinned :class:`~repro.workloads.Workload` spec.

        ``queries=None`` runs :meth:`default_queries`; pass an explicit
        (possibly empty) sequence to control exactly what is asked.
        The ingestion always goes through the sharded runtime — one
        shard degenerates to plain chunked ingestion — so audits are
        comparable across shard counts by construction.

        Accounting is pluggable per run: ``tracking`` selects the
        backend (``"aggregate"`` — the fast-path default — ``"trace"``
        for per-cell wear histograms, ``"budget"``), ``budget`` caps
        the run's state changes with a
        :class:`~repro.state.budget.WriteBudget` (an int means
        ``WriteBudget(limit)`` with the default ``raise`` policy),
        split across shards per ``budget_split``
        (``"even"``/``"replicate"``), and ``nvm`` prices the run on a
        memory technology (``"pcm"``/``"nand"``/``"dram"`` or an
        :class:`~repro.nvm.NVMCostModel`) by attaching an
        :class:`~repro.nvm.NVMDevice` of ``nvm_cells`` physical cells
        (wear-leveled per :data:`NVM_WEAR_LEVELING`) to every shard's
        write trace — which requires the trace
        backend (implied) and the serial executor (listeners cannot
        cross a process pool), and is incompatible with a budget.

        Ingestion is columnar: every stream flows chunk-wise through
        the vectorized router and ``process_chunk`` kernels,
        bit-identical to the scalar path.  ``chunk_size`` sets the
        chunk length; ``None`` keeps a chunked stream's own chunking.
        A plain iterable is pulled lazily, one chunk at a time, so a
        generator is never materialized.
        """
        if (stream is None) == (workload is None):
            raise ValueError(
                "pass exactly one of stream= or workload= to Engine.run"
            )
        tracking = resolve_tracking(tracking, budget)
        device = None
        nvm_model = None
        if nvm is not None:
            nvm_model = resolve_nvm(nvm)
            if tracking == "budget":
                raise ValueError(
                    "nvm= needs the write trace of the trace backend; "
                    "it cannot be combined with a write budget"
                )
            if self.executor != "serial":
                raise ValueError(
                    "nvm= attaches write listeners, which cannot cross "
                    "a process pool; use executor='serial'"
                )
            tracking = "trace"
            device = NVMDevice(
                nvm_cells,
                nvm_model,
                wear_leveling=NVM_WEAR_LEVELING,
                seed=self.seed,
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
        workload_name = None
        if workload is not None:
            if isinstance(workload, str):
                workload = Workload(
                    workload, n=self.n, m=self.m, seed=self.seed
                )
            workload_name = workload.describe()
            stream = workload.materialize()
        runner = ShardedRunner.from_registry(
            self.sketch_name,
            self.shards,
            n=self.n,
            m=self.m,
            epsilon=self.epsilon,
            seed=self.seed,
            executor=self.executor,
            tracking=tracking,
            budget=budget,
            budget_split=budget_split,
            chunk_size=chunk_size,
        )
        if device is not None:
            for shard in runner.shards:
                device.attach(shard.tracker)
        start = time.perf_counter()
        result = runner.run(stream)
        wall_time_s = time.perf_counter() - start
        self._merged = result.merged

        merged_budget = None
        merged_tracker = result.merged.tracker
        if isinstance(merged_tracker, BudgetBackend):
            merged_budget = merged_tracker.budget_report()
        nvm_report = None
        if device is not None and nvm_model is not None:
            nvm_report = price_run(nvm_model, result.merged_report, device)

        if queries is None:
            queries = self.default_queries()
        answers = tuple((q, result.merged.query(q)) for q in queries)
        return RunReport(
            sketch=self.sketch_name,
            num_shards=self.shards,
            seed=self.seed,
            items_processed=result.merged.items_processed,
            wall_time_s=wall_time_s,
            answers=answers,
            audit=result.merged_report,
            shard_reports=result.shard_reports,
            skew=result.skew,
            executor=self.executor,
            workload=workload_name,
            tracking=tracking,
            budget=merged_budget,
            shard_budgets=tuple(
                report
                for report in result.budget_reports
                if report is not None
            ),
            nvm=nvm_report,
            chunk_size=chunk_size,
        )

    # ------------------------------------------------------------------
    # Live serving
    # ------------------------------------------------------------------
    def live(
        self,
        *,
        snapshot_every: int | None = None,
        tracking: str = "aggregate",
        budget: WriteBudget | int | None = None,
        budget_split: str = "even",
        chunk_size: int | None = None,
        answer_cache: int = 256,
    ):
        """A :class:`~repro.serve.LiveEngine` with this engine's config.

        The live engine shares the sketch/sizing/seed/shard
        configuration, so a mid-stream snapshot it serves is
        bit-identical to what :meth:`run` would report over the same
        stream prefix.  The executor is always serial — live ingest is
        in-process by construction.  ``snapshot_every=None`` keeps the
        serving default cadence.
        """
        from repro.serve.engine import DEFAULT_SNAPSHOT_EVERY, LiveEngine

        return LiveEngine(
            self.sketch_name,
            n=self.n,
            m=self.m,
            epsilon=self.epsilon,
            seed=self.seed,
            shards=self.shards,
            snapshot_every=(
                DEFAULT_SNAPSHOT_EVERY
                if snapshot_every is None
                else snapshot_every
            ),
            tracking=tracking,
            budget=budget,
            budget_split=budget_split,
            chunk_size=chunk_size,
            answer_cache=answer_cache,
        )

    # ------------------------------------------------------------------
    # Post-run queries
    # ------------------------------------------------------------------
    @property
    def merged(self) -> Sketch:
        """The merged sketch of the last :meth:`run`."""
        if self._merged is None:
            raise RuntimeError("Engine.run() has not been called yet")
        return self._merged

    def query(self, q: Query) -> Answer:
        """Ask the merged sketch of the last run one more question."""
        return self.merged.query(q)

    def query_many(self, q: MultiPointQuery) -> tuple[Answer, ...]:
        """Batch point queries against the merged sketch of the last
        run — bit-identical to a loop of :meth:`query` calls over
        ``PointQuery(item)`` but answered through the family's
        vectorized kernel."""
        return self.merged.query_many(q)

    def can_answer(self, q: Query | QueryKind) -> bool:
        """Whether the configured sketch declares this query's kind."""
        kind = q if isinstance(q, QueryKind) else q.kind
        return kind in self.spec.supports


__all__ = ["Engine", "RunReport", "UnsupportedQueryError"]
