"""Multicore CPU execution model — the 16-core baseline of Fig. 12.

Projects a workload's single-thread cycle count (from the trace-driven
:class:`~repro.arch.cpu.CPUModel`) onto ``p`` pinned cores:

``T_p = T_1 / p * imbalance + barriers * barrier_cost + T_serial``

* **imbalance** — max/mean per-core work under the block vertex split,
  computed from per-vertex weights (degrees for edge-dominated kernels);
* **barriers** — bulk-synchronous rounds (BFS levels, coloring rounds);
* **serial fraction** — the inherently sequential residue (Amdahl term);
  e.g. Dijkstra's priority queue and DFS's stack discipline make SPath and
  DFS mostly serial, which is part of why GPU speedups over the *16-core*
  CPU differ so much per workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import block_partition

#: Cycles per bulk-synchronous barrier across p cores (fixed cost model).
BARRIER_CYCLES = 4000

#: Default serial fraction per workload (queue/stack disciplines and
#: sequential phases that do not parallelize across vertices).  CComp's
#: CPU implementation is BFS labelling (Section 4.2) — sequential within
#: a component, and the giant component dominates — hence its large
#: serial fraction and, in turn, CComp's standout GPU speedup (Fig. 12).
SERIAL_FRACTION = {
    "BFS": 0.03, "DFS": 0.95, "GCons": 0.30, "GUp": 0.10, "TMorph": 0.15,
    "SPath": 0.15, "kCore": 0.40, "CComp": 0.85, "GColor": 0.05,
    "TC": 0.02, "Gibbs": 0.30, "DCentr": 0.01, "BCentr": 0.05,
}


@dataclass
class MulticoreResult:
    """Projected parallel execution of one workload."""

    p: int
    serial_cycles: float
    parallel_cycles: float
    imbalance: float
    barriers: int
    serial_fraction: float

    def time_seconds(self, freq_ghz: float) -> float:
        return self.parallel_cycles / (freq_ghz * 1e9)


def project_multicore(serial_cycles: float, *, p: int = 16,
                      weights: np.ndarray | None = None,
                      barriers: int = 0,
                      workload: str | None = None) -> MulticoreResult:
    """Project a serial cycle count onto ``p`` cores.

    ``weights`` are per-item work estimates (vertex degrees); ``workload``
    looks up the serial fraction (none without a workload).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    serial_fraction = (0.0 if workload is None
                       else SERIAL_FRACTION.get(workload, 0.1))
    if weights is not None and len(weights) and p > 1:
        w = np.asarray(weights, dtype=np.float64)
        imbalance = block_partition(len(w), p).imbalance(w)
    else:
        imbalance = 1.0
    serial_part = serial_cycles * serial_fraction
    par_part = serial_cycles * (1.0 - serial_fraction)
    parallel_cycles = (serial_part + par_part / p * imbalance
                       + barriers * BARRIER_CYCLES)
    return MulticoreResult(p=p, serial_cycles=serial_cycles,
                           parallel_cycles=parallel_cycles,
                           imbalance=imbalance, barriers=barriers,
                           serial_fraction=serial_fraction)
