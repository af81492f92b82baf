"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one paper artifact (Table 1 or a theorem-
shaped experiment; see the index in docs/ARCHITECTURE.md §5).  The
formatted result table is written to ``benchmarks/results/<id>.txt``
so that it survives pytest's stdout capture, and also printed for
``-s`` runs.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_result():
    """Write a formatted experiment table to the results directory."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(experiment_id: str, text: str) -> None:
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save
