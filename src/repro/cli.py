"""Command-line interface: audit algorithms and reproduce experiments.

Six subcommands::

    python -m repro audit --algorithm heavy-hitters --workload zipf \
        --n 4096 --m 65536            # run one algorithm, print audit
    python -m repro run --algorithm count-min --workload bursty \
        --shards 4 --executor process # scenario x sketch x shards
    python -m repro shard --sketch count-min --shards 1,2,4,8 \
        --epsilon 0.1                 # sharded vs single-instance runs
    python -m repro serve --algorithm count-min --port 7391 \
        --snapshot-every 1024         # live JSON-lines serving socket
    python -m repro table1            # regenerate Table 1
    python -m repro reproduce --quick # run the main experiment suite

``audit`` can also read a stream of integers from a file (one item per
line) via ``--input``, which is how external traces are replayed; any
workload flag accepts every scenario registered in
:mod:`repro.workloads` (``bursty``, ``phase-shift``, ``trace-replay``,
...).

Subcommands run through the :class:`~repro.api.Engine` facade and the
unified query protocol: what gets printed for an algorithm follows its
declared capabilities (:attr:`~repro.registry.SketchSpec.supports`),
not ``hasattr`` probes, so every registered name works with ``audit``
and (if mergeable) ``shard``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import sys
from typing import Sequence

from repro import registry, workloads
from repro.api import Engine
from repro.nvm import NVM_PRESETS
from repro.query import (
    AllEstimates,
    Distinct,
    Entropy,
    HeavyHitters,
    Moment,
    QueryKind,
)
from repro.runtime.sharded import EXECUTORS
from repro.state import (
    BUDGET_POLICIES,
    TRACKING_MODES,
    WriteBudget,
    WriteBudgetExceededError,
)
from repro.streams import FrequencyVector


def _version() -> str:
    """Installed distribution version, falling back to the package's
    own ``__version__`` for PYTHONPATH-based checkouts."""
    try:
        return importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        from repro import __version__

        return __version__


def _build_engine(name: str, **kwargs) -> Engine:
    """Construct an Engine, translating bad names into exit messages."""
    try:
        return Engine(name, **kwargs)
    except KeyError:
        raise SystemExit(
            f"unknown algorithm {name!r}; choose from {registry.names()}"
        ) from None
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _workload_params(args: argparse.Namespace) -> dict:
    """Scenario knobs the CLI exposes, filtered to what the scenario takes."""
    spec = workloads.scenario_spec(args.workload)
    available = {
        "skew": getattr(args, "skew", None),
        "path": getattr(args, "trace", None),
    }
    return {
        key: value
        for key, value in available.items()
        if value is not None and key in spec.param_names
    }


def _generate_workload(args: argparse.Namespace) -> list[int]:
    """Materialize the named --workload, exiting on bad names/params."""
    try:
        return workloads.generate(
            args.workload,
            n=args.n,
            m=args.m,
            seed=args.seed,
            **_workload_params(args),
        )
    except KeyError:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from "
            f"{workloads.scenario_names()}"
        ) from None
    except (ValueError, OSError) as error:
        # e.g. trace-replay without --trace, or an unreadable file.
        raise SystemExit(str(error)) from None


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    """The ``--budget``/``--budget-policy`` flags ``run`` and ``serve``
    share (read back by :func:`_budget`)."""
    parser.add_argument("--budget", type=int, default=None,
                        help="cap on state changes (enforced by the "
                             "budget backend)")
    parser.add_argument("--budget-policy", default="raise",
                        choices=list(BUDGET_POLICIES),
                        help="what happens past the budget")


def _budget(args: argparse.Namespace) -> WriteBudget | None:
    """The ``--budget``/``--budget-policy`` pair as a budget, if any."""
    if args.budget is None:
        return None
    if args.budget < 0:
        raise SystemExit(f"--budget must be >= 0: {args.budget}")
    return WriteBudget(args.budget, args.budget_policy)


def _load_stream(args: argparse.Namespace) -> list[int]:
    """Stream from --input file or a generated workload."""
    if args.input:
        from repro.streams.traceio import read_trace

        return read_trace(args.input)
    return _generate_workload(args)


def _print_answers(engine: Engine, stream: list[int] | None = None) -> None:
    """Print the most specific answer the sketch's capabilities declare.

    What to print follows the declared capabilities, most specific
    kind first — no hasattr probes.
    """
    supports = engine.supports
    if QueryKind.HEAVY_HITTERS in supports:
        found = engine.query(HeavyHitters()).values
        print(f"heavy hitters: "
              f"{ {k: round(v) for k, v in sorted(found.items())} }")
    elif QueryKind.ALL_ESTIMATES in supports:
        estimates = engine.query(AllEstimates()).values
        top = sorted(estimates.items(), key=lambda kv: -kv[1])[:5]
        print(f"top estimates: { {k: round(v) for k, v in top} }")
    elif QueryKind.DISTINCT in supports:
        truth = f" (true {len(set(stream))})" if stream is not None else ""
        print(f"distinct estimate: "
              f"{engine.query(Distinct()).value:.1f}{truth}")
    elif QueryKind.MOMENT in supports:
        answer = engine.query(Moment())
        print(f"F{answer.p:g} estimate: {answer.value:.4g}")
    elif QueryKind.ENTROPY in supports:
        print(f"entropy estimate: "
              f"{engine.query(Entropy()).value:.3f} bits")


def _cmd_audit(args: argparse.Namespace) -> int:
    stream = _load_stream(args)
    n = args.n if not args.input else max(stream) + 1
    engine = _build_engine(
        args.algorithm,
        n=n,
        m=len(stream),
        epsilon=args.epsilon,
        seed=args.seed,
    )
    # The audit is the whole point here, so run on the trace backend
    # (per-cell wear histograms are worth the slower ingest).
    report = engine.run(stream, queries=(), tracking="trace")
    print(f"algorithm: {args.algorithm}")
    print(f"audit:     {report.audit.summary()}")
    print(f"writes:    {report.audit.total_writes} "
          f"(max cell wear {report.audit.max_cell_wear})")
    _print_answers(engine, stream)
    if args.truth:
        f = FrequencyVector.from_stream(stream)
        print(f"ground truth: F2={f.fp_moment(2):.4g} "
              f"H={f.shannon_entropy():.3f} distinct={len(f)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """One reproducible scenario × sketch × shard-count run."""
    try:
        workloads.scenario_spec(args.workload)
    except KeyError:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from "
            f"{workloads.scenario_names()}"
        ) from None
    engine = _build_engine(
        args.algorithm,
        n=args.n,
        m=args.m,
        epsilon=args.epsilon,
        seed=args.seed,
        shards=args.shards,
        executor=args.executor,
    )
    workload = workloads.Workload(
        args.workload,
        n=args.n,
        m=args.m,
        seed=args.seed,
        params=_workload_params(args),
    )
    try:
        report = engine.run(
            workload=workload,
            tracking=args.tracking,
            budget=_budget(args),
            budget_split=args.budget_split,
            nvm=args.nvm,
            nvm_cells=args.nvm_cells,
            chunk_size=args.chunk_size,
        )
    except WriteBudgetExceededError as error:
        # policy="raise" doing its job: surface the abort, not a trace.
        raise SystemExit(f"aborted: {error}") from None
    except (ValueError, OSError) as error:
        # e.g. trace-replay without a file, or an unreadable trace.
        raise SystemExit(str(error)) from None
    # report.summary() already carries the bracketed budget/NVM
    # outcome, so only the audit and per-shard details get own lines.
    print(report.summary())
    print(f"audit:   {report.audit.summary()}")
    if args.shards > 1:
        per_shard = ", ".join(
            str(shard.state_changes) for shard in report.shard_reports
        )
        print(f"shards:  state_changes=[{per_shard}] "
              f"skew={report.skew:.2f}")
        if report.shard_budgets:
            per_budget = ", ".join(
                f"{b.state_changes}/"
                f"{'inf' if b.limit == float('inf') else int(b.limit)}"
                for b in report.shard_budgets
            )
            print(f"         budgets=[{per_budget}]")
    _print_answers(engine)
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.experiments import (
        format_shard_scaling,
        is_scorable,
        shard_scaling,
    )

    try:
        shard_counts = tuple(
            int(part) for part in args.shards.split(",") if part.strip()
        )
    except ValueError:
        raise SystemExit(
            f"--shards must be a comma-separated list of ints: "
            f"{args.shards!r}"
        ) from None
    if not shard_counts or any(count < 1 for count in shard_counts):
        raise SystemExit(f"shard counts must be >= 1: {args.shards!r}")
    try:
        spec = registry.spec(args.sketch)
    except KeyError:
        raise SystemExit(
            f"unknown sketch {args.sketch!r}; choose from {registry.names()}"
        ) from None
    if not spec.mergeable and max(shard_counts) > 1:
        raise SystemExit(
            f"{args.sketch!r} is not mergeable and cannot be sharded; "
            f"mergeable sketches: {registry.mergeable_names()}"
        )
    if not is_scorable(spec.cls):
        raise SystemExit(
            f"{args.sketch!r} declares no scorable query kind "
            f"(point/moment/distinct/entropy); its capabilities: "
            f"{sorted(str(k) for k in spec.supports) or 'none'}"
        )
    try:
        workloads.scenario_spec(args.workload)
    except KeyError:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from "
            f"{workloads.scenario_names()}"
        ) from None
    try:
        rows = shard_scaling(
            sketch=args.sketch,
            shard_counts=shard_counts,
            n=args.n,
            m=args.m,
            epsilon=args.epsilon,
            skew=args.skew,
            seed=args.seed,
            workload=args.workload,
            executor=args.executor,
            workload_params=_workload_params(args),
            chunk_size=args.chunk_size,
        )
    except (ValueError, OSError) as error:
        # e.g. trace-replay without --trace, or an unreadable file.
        raise SystemExit(str(error)) from None
    print(format_shard_scaling(rows, args.sketch))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the live serving engine behind the JSON-lines socket."""
    from repro.serve import LiveEngine, LiveSession
    from repro.serve.server import serve as serve_forever

    try:
        engine = LiveEngine(
            args.algorithm,
            n=args.n,
            m=args.m,
            epsilon=args.epsilon,
            seed=args.seed,
            shards=args.shards,
            snapshot_every=args.snapshot_every,
            tracking=args.tracking,
            budget=_budget(args),
            answer_cache=args.answer_cache,
        )
    except KeyError:
        raise SystemExit(
            f"unknown algorithm {args.algorithm!r}; "
            f"choose from {registry.names()}"
        ) from None
    except ValueError as error:
        raise SystemExit(str(error)) from None

    def ready(address: tuple[str, int]) -> None:
        host, port = address
        print(
            f"serving {args.algorithm} on {host}:{port} "
            f"(snapshot_every={args.snapshot_every}, "
            f"verbs: {', '.join(LiveSession.verbs())})",
            flush=True,
        )

    try:
        serve_forever(engine, host=args.host, port=args.port, ready=ready)
    except OSError as error:  # e.g. port already bound
        raise SystemExit(str(error)) from None
    except KeyboardInterrupt:
        pass
    print(f"shutdown: head={engine.head} "
          f"state_changes={engine.snapshot().report.state_changes}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import format_table1, run_table1

    rows = run_table1(n=args.n, m=args.m, epsilon=args.epsilon, seed=args.seed)
    print(format_table1(rows, args.n, args.m or 8 * args.n))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import (
        budget_advantage_curve,
        eviction_ablation,
        format_budget_curve,
        format_eviction_ablation,
        format_morris_tradeoff,
        format_table1,
        fp_accuracy,
        heavy_hitter_accuracy,
        morris_tradeoff,
        run_table1,
    )

    trials = 3 if args.quick else 10
    print(format_table1(run_table1(seed=args.seed), 2**14, 2**17))
    print()
    print(heavy_hitter_accuracy(trials=trials, seed=args.seed).format())
    print(fp_accuracy(trials=trials, epsilon_target=0.75, seed=args.seed).format())
    print()
    print(format_morris_tradeoff(morris_tradeoff(count=20000, trials=trials)))
    print()
    print(format_budget_curve(
        budget_advantage_curve(trials=5 if args.quick else 20, seed=args.seed),
        4096, 2.0,
    ))
    print()
    print(format_eviction_ablation(eviction_ablation(trials=trials, seed=args.seed)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming algorithms with few state changes "
        "(PODS 2024 reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="run one algorithm, print its audit")
    audit.add_argument("--algorithm", default="heavy-hitters")
    audit.add_argument("--workload", default="zipf",
                       help="registered workload scenario name")
    audit.add_argument("--trace",
                       help="trace file for --workload trace-replay")
    audit.add_argument("--input", help="file of integers, one per line")
    audit.add_argument("--n", type=int, default=4096)
    audit.add_argument("--m", type=int, default=65536)
    audit.add_argument("--skew", type=float, default=1.2)
    audit.add_argument("--epsilon", type=float, default=0.5)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--truth", action="store_true",
                       help="also compute exact ground truth")
    audit.set_defaults(func=_cmd_audit)

    run = sub.add_parser(
        "run",
        help="one scenario x sketch x shard-count run via the Engine",
    )
    run.add_argument("--algorithm", default="count-min")
    run.add_argument("--workload", default="zipf",
                     help="registered workload scenario name")
    run.add_argument("--trace",
                     help="trace file for --workload trace-replay")
    run.add_argument("--shards", type=int, default=1)
    run.add_argument("--executor", default="serial",
                     choices=list(EXECUTORS))
    run.add_argument("--n", type=int, default=4096)
    run.add_argument("--m", type=int, default=65536)
    run.add_argument("--skew", type=float, default=None,
                     help="skew override for skew-parameterized scenarios")
    run.add_argument("--epsilon", type=float, default=0.5)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--tracking", default="aggregate",
                     choices=list(TRACKING_MODES),
                     help="state-accounting backend for the run")
    _add_budget_flags(run)
    run.add_argument("--budget-split", default="even",
                     choices=["even", "replicate"],
                     help="divide the budget across shards, or give "
                          "each shard the full limit")
    run.add_argument("--nvm", default=None,
                     choices=sorted(NVM_PRESETS),
                     help="price the run on a memory technology "
                          "(implies --tracking trace, serial executor)")
    run.add_argument("--nvm-cells", type=int, default=1024,
                     help="physical cells of the simulated NVM device")
    run.add_argument("--chunk-size", type=int, default=None,
                     help="items per columnar ingest chunk (default: "
                          "the stream's own chunking)")
    run.set_defaults(func=_cmd_run)

    shard = sub.add_parser(
        "shard",
        help="compare sharded ingestion against a single instance",
    )
    shard.add_argument("--sketch", default="count-min")
    shard.add_argument("--shards", default="1,2,4,8",
                       help="comma-separated shard counts")
    shard.add_argument("--executor", default="serial",
                       choices=list(EXECUTORS))
    shard.add_argument("--workload", default="zipf",
                       help="registered workload scenario name")
    shard.add_argument("--trace",
                       help="trace file for --workload trace-replay")
    shard.add_argument("--n", type=int, default=4096)
    shard.add_argument("--m", type=int, default=65536)
    shard.add_argument("--skew", type=float, default=1.2)
    shard.add_argument("--epsilon", type=float, default=0.1)
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--chunk-size", type=int, default=None,
                       help="items per columnar ingest chunk (default: "
                            "the stream's own chunking)")
    shard.set_defaults(func=_cmd_shard)

    serve = sub.add_parser(
        "serve",
        help="live serving: JSON-lines socket over a LiveEngine",
    )
    serve.add_argument("--algorithm", default="count-min")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0: pick an ephemeral port and "
                            "print it)")
    serve.add_argument("--shards", type=int, default=1)
    serve.add_argument("--snapshot-every", type=int, default=8192,
                       dest="snapshot_every",
                       help="snapshot cadence in updates (collector "
                            "sampling interval)")
    serve.add_argument("--n", type=int, default=4096)
    serve.add_argument("--m", type=int, default=65536)
    serve.add_argument("--epsilon", type=float, default=0.5)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--tracking", default="aggregate",
                       choices=list(TRACKING_MODES),
                       help="state-accounting backend for the live run")
    _add_budget_flags(serve)
    serve.add_argument("--answer-cache", type=int, default=256,
                       dest="answer_cache",
                       help="snapshot-keyed answer cache capacity "
                            "(0: disable)")
    serve.set_defaults(func=_cmd_serve)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--n", type=int, default=2**14)
    table1.add_argument("--m", type=int, default=None)
    table1.add_argument("--epsilon", type=float, default=0.5)
    table1.add_argument("--seed", type=int, default=0)
    table1.set_defaults(func=_cmd_table1)

    reproduce = sub.add_parser(
        "reproduce", help="run the main experiment suite"
    )
    reproduce.add_argument("--quick", action="store_true")
    reproduce.add_argument("--seed", type=int, default=0)
    reproduce.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
