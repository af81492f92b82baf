"""Ablation experiments A1 (counters), A2 (eviction), A3 (NVM wear).

A1 — exact vs Morris hold-counters inside SampleAndHold: the accuracy /
state-change trade the paper buys with Theorem 1.5.

A2 — the Section 1.4 counterexample: global smallest-counter eviction
([EV02, BO13, BKSV14]-style) loses the true heavy hitter on the pseudo-
heavy stream; the paper's dyadic age-bucketed eviction keeps it.

A3 — the motivating NVM consequence: device lifetime under each
algorithm's measured write trace on a simulated device.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from repro.baselines import CountMin, MisraGries, SpaceSaving
from repro.core import FullSampleAndHold, SampleAndHold, SampleAndHoldParams
from repro.nvm import PCM, NVMDevice
from repro.streams import FrequencyVector, zipf_stream


# ----------------------------------------------------------------------
# A1: exact vs Morris hold counters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CounterAblationRow:
    counter_kind: str
    mean_state_changes: float
    mean_heavy_rel_error: float


def counter_ablation(
    n: int = 1024,
    m: int = 30000,
    p: float = 2.0,
    epsilon: float = 0.5,
    trials: int = 5,
    seed: int = 0,
) -> list[CounterAblationRow]:
    """A1: state changes and heavy-item error, exact vs Morris."""
    rows = []
    for use_morris, kind in ((True, "morris"), (False, "exact")):
        changes, errors = [], []
        for t in range(trials):
            stream = zipf_stream(n, m, skew=1.4, seed=seed + t)
            f = FrequencyVector.from_stream(stream)
            heavy_item = max(f.support, key=lambda item: f[item])
            params = SampleAndHoldParams.from_problem(
                n=n, m=m, p=p, epsilon=epsilon
            )
            algo = SampleAndHold(
                params, seed=seed + 50 + t, use_morris=use_morris
            )
            algo.process_stream(stream)
            changes.append(algo.state_changes)
            estimate = algo.estimate(heavy_item)
            errors.append(abs(estimate - f[heavy_item]) / f[heavy_item])
        rows.append(
            CounterAblationRow(
                counter_kind=kind,
                mean_state_changes=float(statistics.mean(changes)),
                mean_heavy_rel_error=float(statistics.mean(errors)),
            )
        )
    return rows


def format_counter_ablation(rows: list[CounterAblationRow]) -> str:
    lines = [
        "A1 counter ablation (SampleAndHold hold-counters):",
        f"{'counters':>10}{'state changes':>16}{'heavy rel err':>15}",
    ]
    for row in rows:
        lines.append(
            f"{row.counter_kind:>10}{row.mean_state_changes:>16.1f}"
            f"{row.mean_heavy_rel_error:>15.3f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# A2: eviction policy on the Section 1.4 counterexample
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvictionAblationRow:
    policy: str
    detection_rate: float
    mean_heavy_estimate: float
    heavy_frequency: float


def eviction_ablation(
    trials: int = 8,
    sample_probability: float = 0.1,
    budget: int = 48,
    seed: int = 0,
) -> list[EvictionAblationRow]:
    """A2: who finds the heavy hitter on the Section 1.4 stream?

    The *same* SampleAndHold code runs twice per instance — once with
    the paper's dyadic age-bucketed maintenance, once with the
    classical global smallest-half rule — so the eviction policy is the
    only variable.  The workload is the amplified finite-scale variant
    of the Section 1.4 counterexample (see
    :func:`~repro.streams.adversarial.amplified_counterexample`; the
    paper-exponent instance only separates asymptotically).
    """
    from repro.streams.adversarial import amplified_counterexample

    policies = ("age-bucketed", "global")
    labels = {
        "age-bucketed": "age-bucketed (paper)",
        "global": "global smallest (naive)",
    }
    detections = {policy: 0 for policy in policies}
    estimates = {policy: [] for policy in policies}
    heavy_freqs = []
    for t in range(trials):
        inst = amplified_counterexample(
            num_pseudo=100, pseudo_frequency=100, seed=seed + t
        )
        heavy_freqs.append(inst.heavy_frequency)
        # Detected = the heavy estimate exceeds half a pseudo-heavy
        # count (far below its true frequency, far above noise).
        detect_level = 0.5 * inst.pseudo_heavy_frequency
        params = SampleAndHoldParams(
            sample_probability=sample_probability,
            kappa=8,
            budget_low=budget,
            budget_high=budget + 2,
            counter_a=0.125,
        )
        for policy in policies:
            algo = SampleAndHold(
                params,
                seed=seed + 100 + t,
                eviction=policy,
                use_morris=False,
            )
            algo.process_stream(inst.stream)
            est = algo.estimate(inst.heavy_item)
            estimates[policy].append(est)
            detections[policy] += est >= detect_level

    return [
        EvictionAblationRow(
            policy=labels[policy],
            detection_rate=detections[policy] / trials,
            mean_heavy_estimate=float(statistics.mean(estimates[policy])),
            heavy_frequency=float(statistics.mean(heavy_freqs)),
        )
        for policy in policies
    ]


def format_eviction_ablation(rows: list[EvictionAblationRow]) -> str:
    lines = [
        "A2 eviction ablation (Section 1.4 pseudo-heavy stream):",
        f"{'policy':<28}{'detection rate':>15}{'heavy est':>12}"
        f"{'true freq':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row.policy:<28}{row.detection_rate:>15.2f}"
            f"{row.mean_heavy_estimate:>12.1f}{row.heavy_frequency:>11.1f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# A3: NVM device lifetime under each algorithm
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NVMWearRow:
    algorithm: str
    wear_policy: str
    total_writes: int
    max_cell_wear: int
    lifetime_workloads: float


def nvm_wear_comparison(
    n: int = 8192,
    m: int = 65536,
    epsilon: float = 0.5,
    num_cells: int = 4096,
    seed: int = 0,
) -> list[NVMWearRow]:
    """A3: run Table 1's contenders against a simulated PCM device."""
    stream = zipf_stream(n, m, skew=1.1, seed=seed)
    k = max(2, int(math.ceil(2.0 / epsilon)))
    rows = []
    for name, make in (
        ("Misra-Gries", lambda: MisraGries(k=k)),
        ("CountMin", lambda: CountMin.for_accuracy(epsilon, seed=seed)),
        ("SpaceSaving", lambda: SpaceSaving(k=k)),
        (
            "FullSampleAndHold",
            lambda: FullSampleAndHold(
                n=n, m=m, p=2, epsilon=epsilon, seed=seed, repetitions=1
            ),
        ),
    ):
        for policy in ("none", "round-robin"):
            algo = make()
            device = NVMDevice(
                num_cells, PCM, wear_leveling=policy, seed=seed
            )
            device.attach(algo.tracker)
            algo.process_stream(stream)
            rows.append(
                NVMWearRow(
                    algorithm=name,
                    wear_policy=policy,
                    total_writes=device.total_writes,
                    max_cell_wear=device.max_wear,
                    lifetime_workloads=device.lifetime_workloads(),
                )
            )
    return rows


def format_nvm_wear(rows: list[NVMWearRow]) -> str:
    lines = [
        "A3 NVM wear (PCM device, endurance 1e8 writes/cell):",
        f"{'algorithm':<20}{'leveling':<13}{'writes':>10}"
        f"{'max wear':>10}{'lifetime (workloads)':>22}",
    ]
    for row in rows:
        lifetime = (
            f"{row.lifetime_workloads:.3g}"
            if row.lifetime_workloads != float("inf")
            else "inf"
        )
        lines.append(
            f"{row.algorithm:<20}{row.wear_policy:<13}{row.total_writes:>10}"
            f"{row.max_cell_wear:>10}{lifetime:>22}"
        )
    return "\n".join(lines)
