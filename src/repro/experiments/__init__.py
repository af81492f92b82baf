"""Experiment harness: one module per experiment family (see
docs/ARCHITECTURE.md §5 for the experiment index T1, E1-E10, A1-A4)."""

from repro.experiments.ablation import (
    counter_ablation,
    eviction_ablation,
    format_counter_ablation,
    format_eviction_ablation,
    format_nvm_wear,
    nvm_wear_comparison,
)
from repro.experiments.accuracy import (
    entropy_accuracy,
    format_morris_tradeoff,
    fp_accuracy,
    heavy_hitter_accuracy,
    morris_tradeoff,
    pstable_accuracy,
)
from repro.experiments.lower_bound import (
    budget_advantage_curve,
    format_budget_curve,
)
from repro.experiments.scaling import (
    fp_scaling,
    heavy_hitter_scaling,
    loglog_slope,
    state_change_scaling,
)
from repro.experiments.sharding import (
    format_shard_scaling,
    is_scorable,
    shard_scaling,
)
from repro.experiments.table1 import format_table1, run_table1

__all__ = [
    "budget_advantage_curve",
    "counter_ablation",
    "entropy_accuracy",
    "eviction_ablation",
    "format_budget_curve",
    "format_counter_ablation",
    "format_eviction_ablation",
    "format_morris_tradeoff",
    "format_nvm_wear",
    "format_shard_scaling",
    "is_scorable",
    "format_table1",
    "fp_accuracy",
    "fp_scaling",
    "heavy_hitter_accuracy",
    "heavy_hitter_scaling",
    "loglog_slope",
    "morris_tradeoff",
    "nvm_wear_comparison",
    "pstable_accuracy",
    "run_table1",
    "shard_scaling",
    "state_change_scaling",
]
