"""Data-sensitivity studies: workloads x the five Table 7 datasets.

Powers Fig. 9 (CPU: L1D hit rate, DTLB penalty, IPC per dataset) and
Fig. 13 (GPU: BDR/MDR per dataset) over the rows the figure benches
characterize.  The paper excludes workloads that cannot take every
dataset; :data:`~repro.harness.runner.DATA_SENSITIVE_WORKLOADS` encodes
that set.
"""

from __future__ import annotations

from .runner import Row


def pivot(rows: list[Row], metric: str, gpu: bool = False
          ) -> dict[str, dict[str, float]]:
    """``{workload: {dataset: value}}`` for one metric."""
    out: dict[str, dict[str, float]] = {}
    for r in rows:
        m = r.gpu if gpu else r.cpu
        if m is None:
            continue
        out.setdefault(r.workload, {})[r.dataset] = m.summary()[metric]
    return out


def spread(values: dict[str, float]) -> float:
    """Max/min ratio across datasets — the sensitivity magnitude."""
    vals = [v for v in values.values() if v > 0]
    if not vals:
        return 1.0
    return max(vals) / min(vals)
