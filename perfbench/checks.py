"""Correctness checks: the program's answers against exact answers
computed by the benchmark from the same generated input.

Each check returns a :class:`Check`; a failed check marks the
operations whose output it inspected as failed, which is what
``error_rate`` counts.  The bounds are the families' stated guarantees
where one holds at this scale on every seed:

* count-min never underestimates (deterministic), and its mean
  overestimate is within ``epsilon * F1`` (the expected per-row error is
  ``F1 / width = epsilon * F1 / e``);
* heavy-hitters reports every true ``epsilon``-heavy hitter (its stated
  reporting rule);
* the streaming moment and entropy estimators only promise their bound
  with constant probability, so they are checked against a sanity band
  that holds on every seed (:data:`MOMENT_BANDS`, entropy within its
  possible range widened by 1 bit) and their accuracy is reported, not
  gated, as ``answer_rel_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Sanity bands of the randomized moment estimates: (lowest, highest)
#: ratio to exact.
#:
#: * pstable-fp (p = 1, 20 rows) reports the median of 20 Cauchy
#:   coordinates; by the Cauchy draws alone it leaves ``[1/16, 16]`` with
#:   probability about 3e-9, while ``[1/4, 4]`` would fail about once in
#:   1500 seeds.  Over 200 seeds its ratios lay in [0.45, 2.7].
#: * heavy-hitters' F2 (Algorithm 3) sums per-band medians over three
#:   copies.  On a Zipf(1.2) stream one item holds about 70% of F2, and
#:   when the copies put its estimate in different bands every band's
#:   median drops it: seed 465633 gives exactly 0.  So only the upper
#:   side is checked.
MOMENT_BANDS = {"heavy-hitters": (0.0, 16.0), "pstable-fp": (1 / 16, 16.0)}
#: Additive slack of the entropy range check: the streaming estimator's
#: additive-error target in the repo's E6 benchmark.
ENTROPY_SLACK_BITS = 1.0
TOP_ITEMS = 64


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def exact_counts(stream: np.ndarray, universe: int) -> np.ndarray:
    return np.bincount(stream, minlength=universe).astype(np.int64)


def top_items(counts: np.ndarray, k: int = TOP_ITEMS) -> np.ndarray:
    """The ``k`` most frequent items (ties broken by item id)."""
    return np.argsort(-counts, kind="stable")[:k]


def audit_checks(family: str, entry: dict, items: int) -> list[Check]:
    """Invariants every audit satisfies (paper Section 1.5)."""
    audit = entry["audit"]
    changes = audit["state_changes"]
    return [
        Check(
            f"{family}: items processed",
            entry["items"] == items == audit["stream_length"],
            f"{entry['items']} of {items}",
        ),
        Check(
            f"{family}: audit invariants",
            0 < changes <= items
            and audit["total_writes"] >= changes
            and audit["total_write_attempts"] >= audit["total_writes"]
            and audit["peak_words"] >= 1,
            str(audit),
        ),
    ]


def check_paper(first: dict, stream: np.ndarray, epsilon: float):
    """Checks of one round of ``paper-batch``; returns (checks by
    family, answer_rel_error)."""
    m = len(stream)
    counts = exact_counts(stream, int(stream.max()) + 1)
    f2 = float((counts.astype(np.float64) ** 2).sum())
    nonzero = counts[counts > 0] / m
    entropy = float(-(nonzero * np.log2(nonzero)).sum())
    exact = {"heavy-hitters": f2, "pstable-fp": float(m), "entropy": entropy}
    checks: dict[str, list[Check]] = {}
    errors = []
    for family, entry in first.items():
        found = audit_checks(family, entry, m)
        answers = entry["answers"]
        if family == "heavy-hitters":
            reported = {int(item) for item in answers["heavy-hitters"]}
            heavy = set(
                np.flatnonzero(counts >= epsilon * math.sqrt(f2)).tolist()
            )
            found.append(
                Check(
                    "heavy-hitters: every epsilon-heavy hitter reported",
                    heavy <= reported,
                    f"missing {sorted(heavy - reported)}",
                )
            )
        estimate = answers["entropy" if family == "entropy" else "moment"]
        if family in MOMENT_BANDS:
            low, high = MOMENT_BANDS[family]
            ratio = estimate / exact[family]
            found.append(
                Check(
                    f"{family}: moment within [{low:g}, {high:g}] x exact",
                    low <= ratio <= high,
                    f"ratio {ratio:.4f}",
                )
            )
        else:
            found.append(
                Check(
                    "entropy: estimate within [0, log2 m + 1]",
                    0.0 <= estimate <= math.log2(m) + ENTROPY_SLACK_BITS,
                    f"{estimate:.4f}",
                )
            )
        errors.append(abs(estimate - exact[family]) / exact[family])
        checks[family] = found
    return checks, max(errors)


def check_point_answers(
    estimates, counts: np.ndarray, total: int, epsilon: float, label: str
) -> tuple[list[Check], float]:
    """Count-min point answers for every item of the universe against
    exact counts over the same ``total`` updates; returns (checks, mean
    relative error over the top items)."""
    estimates = np.asarray(estimates, dtype=np.float64)
    over = estimates - counts
    top = top_items(counts)
    top_over = over[top]
    checks = [
        Check(
            f"{label}: no underestimate",
            bool((over >= 0).all()),
            f"min overestimate {over.min():.1f}",
        ),
        Check(
            f"{label}: mean top-{len(top)} overestimate <= eps*F1",
            float(top_over.mean()) <= epsilon * total,
            f"{top_over.mean():.1f} vs {epsilon * total:.1f}",
        ),
    ]
    return checks, float((top_over / counts[top]).mean())


def check_linear(first: dict, stream: np.ndarray, epsilon: float):
    """Checks of one ``linear-sharded`` round; returns (checks,
    answer_rel_error)."""
    entry = first["count-min"]
    m = len(stream)
    point_all = entry["point_all"]
    counts = exact_counts(stream, len(point_all))
    checks = audit_checks("count-min", entry, m)
    checks.append(
        Check(
            "count-min: one state change per update",
            entry["audit"]["state_changes"] == m,
            str(entry["audit"]["state_changes"]),
        )
    )
    found, error = check_point_answers(
        point_all, counts, m, epsilon, "count-min"
    )
    checks += found
    checks.append(
        Check(
            "count-min: point and batch answers agree",
            entry["point_first"]
            == [point_all[i] for i in entry["point_first_items"]]
            and entry["batch_first"]
            == [point_all[i] for i in entry["batch_first_items"]],
        )
    )
    return checks, error


def read_mismatches(reads: list, entry: dict) -> int:
    """Timed reads of one family's round (records as
    ``system_batch.read_record`` writes them) whose answer differs from
    the answers checked above: a re-asked default query from the run
    report's answer of that kind, a point or batch read from
    ``point_all``, the whole-universe answers of the same sketch."""
    bad = 0
    for kind, key, value in reads:
        if kind == "answer":
            ok = entry["answers"].get(key) == value
        elif kind == "point":
            ok = entry["point_all"][key] == value
        else:
            ok = [entry["point_all"][i] for i in key] == value
        bad += not ok
    return bad


class PrefixCounts:
    """Exact count of an item within any prefix of a stream."""

    def __init__(self, stream: np.ndarray) -> None:
        self.length = len(stream)
        keys = stream.astype(np.int64) * (self.length + 1) + np.arange(
            self.length, dtype=np.int64
        )
        self.keys = np.sort(keys)

    def count(self, items, prefix) -> np.ndarray:
        base = np.asarray(items, dtype=np.int64) * (self.length + 1)
        return np.searchsorted(
            self.keys, base + np.asarray(prefix, dtype=np.int64)
        ) - np.searchsorted(self.keys, base)


def check_streamed_points(
    items, estimates, snapshots, prefix: PrefixCounts
) -> list[bool]:
    """Per-answer verdicts for point answers served from snapshots:
    each estimate is at least the item's exact count at its snapshot
    index and at most that index.  (The mean-error bound is checked on
    the final snapshot, over the whole universe.)"""
    estimates = np.asarray(estimates, dtype=np.float64)
    snapshots = np.asarray(snapshots, dtype=np.int64)
    exact = prefix.count(items, snapshots)
    ok = (estimates >= exact) & (estimates <= snapshots)
    return ok.tolist()
