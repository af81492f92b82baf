"""E8 — Theorem 1.5: the Morris counter's accuracy / state-change
trade-off (counting to 50k with 4 growth parameters, 256 trials each,
every trial one ``HeldTable`` row: the unit counter the algorithms
run)."""

import math

from repro.experiments import format_morris_tradeoff, morris_tradeoff

TRIALS = 256

#: Bounds on sd / sqrt(a/2).  Measured over seeds 0-99 at 256 trials
#: and these four values of a, the ratio ran from 0.750 to 1.353 (all
#: of that spread at a = 0.5, whose error is the most skewed; 0.853 to
#: 1.169 for a <= 0.125).
SD_RATIO_BAND = (0.7, 1.4)


def test_morris_tradeoff(benchmark, save_result):
    rows = benchmark.pedantic(
        morris_tradeoff,
        kwargs={
            "count": 50_000,
            "a_values": (0.5, 0.125, 0.03, 0.008),
            "trials": TRIALS,
            "seed": 0,
        },
        iterations=1,
        rounds=1,
    )
    save_result("E8_morris_tradeoff", format_morris_tradeoff(rows))
    # Monotone trade-off: smaller a => more writes, less error.
    changes = [row.mean_state_changes for row in rows]
    assert changes == sorted(changes)
    # Every configuration is exponentially cheaper than exact counting.
    assert all(row.mean_state_changes < 0.1 * row.count for row in rows)
    # And the coarsest setting still lands within ~3x of the truth.
    assert rows[0].mean_rel_error < 2.0
    low, high = SD_RATIO_BAND
    for row in rows:
        # Unbiased: the signed mean error is within 4 standard errors
        # of 0.
        standard_error = row.sd_rel_error / math.sqrt(TRIALS)
        assert abs(row.signed_mean_rel_error) <= 4 * standard_error
        # Var = a * n * (n - 1) / 2: the relative sd is about sqrt(a/2).
        assert low <= row.sd_rel_error / math.sqrt(row.a / 2) <= high
