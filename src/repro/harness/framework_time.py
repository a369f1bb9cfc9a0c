"""In-framework execution time analysis (Fig. 1).

The paper profiles System G workloads and finds 76 % of execution time is
spent inside framework primitives on average, highest for traversal-based
workloads.  Here the tracer's per-region instruction attribution provides
the same split, weighted into time by the cycle model's IPC being roughly
uniform across a run's regions (documented approximation).
"""

from __future__ import annotations

from .runner import Row


def framework_fractions(rows: list[Row]) -> dict[str, float]:
    """Per-workload in-framework instruction fraction, as the CPU model
    recorded it (a row restored from a checkpoint carries it too)."""
    return {r.workload: r.cpu.framework_fraction
            for r in rows if r.cpu is not None}


def average_fraction(rows: list[Row]) -> float:
    fr = framework_fractions(rows)
    return sum(fr.values()) / len(fr) if fr else 0.0
