"""repro — reproduction of *Streaming Algorithms with Few State Changes*
(Jayaram, Woodruff, Zhou; PODS 2024, arXiv:2406.06821).

The package provides the paper's state-change-frugal streaming
algorithms (heavy hitters, ``Fp`` moments, entropy), the classical
baselines they are compared against, an instrumented-memory substrate
that measures the number of internal state changes, adversarial
instances from the lower-bound proofs, and an NVM wear simulator for
the motivating hardware model.

Quick start (the :class:`~repro.api.Engine` facade + typed queries)::

    from repro import Engine, zipf_stream
    from repro.query import HeavyHitters, Moment

    n, m = 1 << 14, 1 << 16
    engine = Engine("heavy-hitters", n=n, m=m, epsilon=0.5, seed=0)
    report = engine.run(
        zipf_stream(n, m, seed=0), queries=[HeavyHitters(), Moment()]
    )
    print(report.audit.summary())         # state-change audit
    print(report.answers)                 # typed (query, answer) pairs

Algorithm classes remain directly usable (``HeavyHitters(...)``,
``algo.process_stream(...)``, ``algo.query(...)``).  See
docs/ARCHITECTURE.md for the layer-by-layer design, its deviations
from the paper (§2) and the experiment index (§5).
"""

from repro.api import Engine, RunReport
from repro.core import (
    FpEstimator,
    FullSampleAndHold,
    HeavyHitters,
    SampleAndHold,
    SampleAndHoldParams,
)
from repro.core.entropy import EntropyEstimator
from repro.core.fp_pstable import PStableFpEstimator
from repro.core.support_recovery import SparseSupportRecovery
# The query/answer vocabulary deliberately stays namespaced under
# `repro.query` (one of its names, `HeavyHitters`, would collide with
# the algorithm class exported here); only the collision-free
# capability enum and the typed error are re-exported.
from repro.query import QueryKind, UnsupportedQueryError
from repro.runtime import (
    Checkpoint,
    ShardedRunner,
    ShardedRunResult,
    ShardIngestError,
)
from repro.state import (
    AggregateBackend,
    BudgetBackend,
    BudgetReport,
    NotMergeableError,
    NotSerializableError,
    Sketch,
    StateChangeReport,
    StateTracker,
    StreamAlgorithm,
    TraceBackend,
    TrackerBackend,
    WriteBudget,
    WriteBudgetExceededError,
    make_tracker,
)
from repro.streams import (
    ChunkedStream,
    FrequencyVector,
    bursty_stream,
    lower_bound_pair,
    permutation_stream,
    phase_shift_stream,
    planted_heavy_hitter_stream,
    pseudo_heavy_counterexample,
    round_robin_stream,
    uniform_stream,
    zipf_stream,
)
from repro.workloads import Workload

__version__ = "1.0.0"

__all__ = [
    # NOTE: `HeavyHitters` is the algorithm class; the query types
    # (incl. the query of the same name) live in `repro.query`.
    "AggregateBackend",
    "BudgetBackend",
    "BudgetReport",
    "Checkpoint",
    "ChunkedStream",
    "Engine",
    "EntropyEstimator",
    "FpEstimator",
    "FrequencyVector",
    "FullSampleAndHold",
    "HeavyHitters",
    "NotMergeableError",
    "NotSerializableError",
    "PStableFpEstimator",
    "QueryKind",
    "RunReport",
    "SampleAndHold",
    "SampleAndHoldParams",
    "ShardIngestError",
    "ShardedRunResult",
    "ShardedRunner",
    "Sketch",
    "SparseSupportRecovery",
    "StateChangeReport",
    "StateTracker",
    "StreamAlgorithm",
    "TraceBackend",
    "TrackerBackend",
    "UnsupportedQueryError",
    "Workload",
    "WriteBudget",
    "WriteBudgetExceededError",
    "bursty_stream",
    "make_tracker",
    "lower_bound_pair",
    "permutation_stream",
    "phase_shift_stream",
    "planted_heavy_hitter_stream",
    "pseudo_heavy_counterexample",
    "round_robin_stream",
    "uniform_stream",
    "zipf_stream",
]
