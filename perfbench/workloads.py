"""The benchmark's workloads: sizes, families and why each was chosen.

Every size here is fixed; only ``--seed`` (input draws and sketch
randomness) and ``--seconds`` (how many timed rounds the batch workloads
repeat) vary between runs, so ``state_changes`` and ``peak_words``
repeat exactly for one seed.
"""

from __future__ import annotations

#: Chunk size of the batch workloads: the repo's ``DEFAULT_CHUNK_SIZE``.
CHUNK = 8192

#: Batch workloads, run by ``system_batch.py`` through ``Engine.run``.
BATCH = {
    # The paper's own algorithms, the slowest path in the repo: time
    # sits in the core kernels, the scalar Philox coins and the
    # tracker; routing and the wire do nothing.  Sized like the repo's
    # own throughput probe (m = 50,000, epsilon 0.5, default chunks),
    # rounded up to eight whole chunks: entropy's first chunks cost
    # several times its later ones (state changes thin out as the
    # stream grows), and with most chunks past that head the median
    # chunk latency sits among the steady ones.  The default queries
    # are asked three times per round, for enough read samples.
    "paper-batch": {
        "families": ("heavy-hitters", "pstable-fp", "entropy"),
        "n": 4096,
        "items": 8 * CHUNK,
        "chunk": CHUNK,
        "epsilon": 0.5,
        "shards": 1,
        "coin_protocol": "v2",
        "query_repeats": 3,
        "read_groups": 0,
    },
    # The fast linear path, where partition routing costs about as much
    # as the count-min kernel; most sensitive to instrumentation cost.
    "linear-sharded": {
        "families": ("count-min",),
        "n": 4096,
        "items": 1 << 21,
        "chunk": CHUNK,
        "epsilon": 0.01,
        "shards": 4,
        "coin_protocol": None,
        "query_repeats": 1,
        "read_groups": 32,
    },
}

#: Point queries per read group and items per batch query, in every
#: workload that reads (the serving mix of ``serve-mixed``).
POINTS_PER_GROUP = 15
BATCH_ITEMS = 256

#: ``serve-mixed``: ``repro serve --algorithm count-min --shards 4`` in
#: its own process, one client connection in a closed loop.  A cycle is
#: one append of ``append_items`` items, ``POINTS_PER_GROUP`` point
#: queries and one batch query.  The cycle count is fixed per second of
#: run length (not measured time), so the final state is exact.
SERVE = {
    "algorithm": "count-min",
    "shards": 4,
    "epsilon": 0.01,
    "append_items": 2048,
    "cycles_per_second": 150,
    "min_cycles": 1000,
}

NAMES = ("paper-batch", "linear-sharded", "serve-mixed")
