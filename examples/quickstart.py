"""Quickstart: heavy hitters and F2 through the Engine facade.

Runs the paper's heavy-hitter algorithm and a classical baseline on the
same Zipf stream via the unified query protocol, prints both answers
and — the point of the paper — both state-change audits.

Usage:  python examples/quickstart.py
"""

from repro import Engine, FrequencyVector, QueryKind, WriteBudget, zipf_stream
from repro.query import AllEstimates, HeavyHitters, Moment

N = 1 << 12          # universe size
M = 1 << 17          # stream length (long relative to n^{1/2} polylog,
                     # the regime where the sampling rate is sublinear)
EPSILON = 0.8        # heavy-hitter threshold (fraction of ||f||_2)


def main() -> None:
    stream = zipf_stream(N, M, skew=1.4, seed=7)
    truth = FrequencyVector.from_stream(stream)
    true_heavy = truth.heavy_hitters(p=2, epsilon=EPSILON)
    print(f"stream: Zipf(1.4), n={N}, m={M}")
    print(f"true L2 heavy hitters (eps={EPSILON}): {sorted(true_heavy)}\n")

    # --- the paper's algorithm -------------------------------------
    ours = Engine("heavy-hitters", n=N, m=M, epsilon=EPSILON, seed=0)
    report = ours.run(stream, queries=[HeavyHitters(), Moment()])
    found = report.answer(QueryKind.HEAVY_HITTERS).values
    print("FullSampleAndHold (this paper):")
    print(f"  reported: { {k: round(v) for k, v in sorted(found.items())} }")
    print(f"  F2 estimate: {report.answer(QueryKind.MOMENT).value:.3g} "
          f"(truth {truth.fp_moment(2):.3g})")
    print(f"  audit: {report.audit.summary()}\n")

    # --- a classical baseline --------------------------------------
    # epsilon=0.4 sizes the summary to k = 2/0.4 = 5 counters.
    baseline = Engine("misra-gries", n=N, m=M, epsilon=0.4)
    base_report = baseline.run(stream, queries=[AllEstimates()])
    estimates = base_report.answer(QueryKind.ALL_ESTIMATES).values
    print("Misra-Gries baseline:")
    top = dict(sorted(estimates.items(), key=lambda kv: -kv[1])[:5])
    print(f"  top counters: { {k: round(v) for k, v in top.items()} }")
    print(f"  audit: {base_report.audit.summary()}\n")

    ratio = base_report.audit.state_changes / max(
        1, report.audit.state_changes
    )
    print(f"state-change ratio (baseline / ours): {ratio:.1f}x\n")

    # --- named workloads + parallel shards --------------------------
    # Any registered scenario x any sketch x any shard count is one
    # reproducible call; executor="process" streams routed chunks into
    # per-shard shared-memory rings while pool workers ingest them
    # concurrently — bit-identical results, overlapped wall clock.
    engine = Engine("count-min", n=N, m=M, epsilon=0.1, seed=7,
                    shards=4, executor="process")
    flash = engine.run(workload="bursty")
    print("CountMin on the 'bursty' flash-crowd workload, 4 shards:")
    print(f"  {flash.summary()}")
    budgets = [shard.state_changes for shard in flash.shard_reports]
    print(f"  per-shard write costs: {budgets} (skew {flash.skew:.2f})\n")

    # --- columnar (chunked) ingest -----------------------------------
    # Streams are ChunkedStreams — lazy sequences of int64 ndarray
    # chunks — and the deterministic families ingest them through
    # vectorized kernels (~10-30x the scalar loop on CountMin) while
    # answers and state-change audits stay bit-identical at any chunk
    # size.  chunk_size re-chunks the stream per run.
    fast = Engine("count-min", n=N, m=M, epsilon=0.1, seed=7)
    wide = fast.run(workload="zipf", chunk_size=1 << 14)
    print("CountMin, columnar ingest at 16384-item chunks:")
    print(f"  {wide.summary()}")
    narrow = fast.run(workload="zipf", chunk_size=64)
    assert wide.audit == narrow.audit  # chunking never changes results
    print(f"  identical audit at 64-item chunks: "
          f"{wide.audit.state_changes} state changes either way\n")

    # --- indexed coins: vectorized randomized families ---------------
    # Every coin is a pure function of (seed, stream label, update
    # index), so the randomized families ingest chunks through
    # vectorized kernels too — geometric skip-sampling climbs a Morris
    # counter over a whole chunk in one step — and no chunking can
    # change a single coin.
    pstable = Engine("pstable-fp", n=N, m=M, epsilon=0.5, seed=7)
    big = pstable.run(workload="zipf", chunk_size=1 << 14)
    small = pstable.run(workload="zipf", chunk_size=512)
    assert big.audit == small.audit and big.answers == small.answers
    print(f"pstable-fp on indexed coins: {big.audit.state_changes} "
          f"state changes and the same F1 estimate at 16384- and "
          f"512-item chunks\n")

    # --- enforced write budgets --------------------------------------
    # The lower-bound cost measure as a runtime contract: cap the
    # run's state changes and pick what happens past the cap
    # (raise / freeze / degrade).  Here the adversarial budget-stress
    # workload exhausts a frozen budget, and the sketch keeps
    # answering from its frozen summary.
    capped = Engine("count-min", n=N, m=M, epsilon=0.1, seed=7).run(
        workload="budget-stress",
        budget=WriteBudget(2048, "freeze"),
        queries=[],
    )
    print("CountMin under an enforced 2048-state-change budget:")
    print(f"  {capped.budget.summary()}")
    print(f"  audit: {capped.audit.summary()}\n")

    # --- NVM pricing -------------------------------------------------
    # Attach a simulated phase-change-memory device to the write trace
    # and price the run (energy, latency, wear, lifetime).
    priced = Engine("heavy-hitters", n=N, m=M, epsilon=EPSILON, seed=0).run(
        stream, queries=[], nvm="pcm",
    )
    print("FullSampleAndHold priced on PCM:")
    print(f"  {priced.nvm.summary()}\n")

    # --- live serving: queries while the stream is still arriving ----
    # Engine.live() turns the same configuration into a LiveEngine:
    # append chunks as they arrive, query any time.  Answers come from
    # periodic merged snapshots (here every 16384 updates) and carry
    # their staleness; a subscribed StateChangesCollector samples the
    # paper's state-changes-over-time curve at each cadence boundary,
    # no matter how raggedly the stream is fed.
    from repro.query import PointQuery
    from repro.serve import StateChangesCollector

    live = Engine("count-min", n=N, m=M, epsilon=0.1, seed=7).live(
        snapshot_every=1 << 14
    )
    curve = live.subscribe(StateChangesCollector())
    hot = stream[0]
    print("CountMin served live (cadence 16384):")
    for start in range(0, M, 30_000):  # ragged appends, like a feed
        live.append(stream[start:start + 30_000])
        mid = live.query(PointQuery(hot))
        print(f"  head={live.head:>6}: f[{hot}] ~ {mid.answer.value:.0f} "
              f"({mid.updates_behind} updates behind)")
    live.finish()
    points = ", ".join(
        f"{index // 1024}k:{value}" for index, value in curve.series[:4]
    )
    print(f"  state-changes curve ({len(curve)} samples): {points}, ...")
    exact = live.query(PointQuery(hot), refresh=True)
    print(f"  fresh answer at head: f[{hot}] ~ {exact.answer.value:.0f} "
          f"(0 updates behind)")

    # --- batch queries: one consistent cut, vectorized ---------------
    # query_batch answers a whole item list through the family's
    # query_many kernel — bit-identical to a loop of scalar queries,
    # but one snapshot capture, one hash pass for all rows, and one answer
    # cache entry.  Every answer shares the batch's staleness.
    top = sorted(set(int(item) for item in stream[:50]))[:8]
    answers = live.query_batch(top)
    estimates = ", ".join(
        f"f[{item}]~{a.answer.value:.0f}"
        for item, a in zip(top, answers)
    )
    print(f"  batch of {len(top)} point queries "
          f"({answers[0].updates_behind} updates behind): {estimates}")


if __name__ == "__main__":
    main()
