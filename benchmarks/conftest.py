"""Benchmark harness support.

Each bench wraps one experiment from :mod:`repro.experiments`.  The
resulting tables are printed and written to ``benchmarks/results/`` so
the regenerated figures survive pytest's output capture.
"""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def record_table(table, name: str) -> None:
    """Print and persist an experiment table."""
    table.show()
    table.save(os.path.join(RESULTS_DIR, f"{name}.txt"))
