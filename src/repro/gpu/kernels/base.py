"""GPU kernel base: thread-centric vs edge-centric SIMT kernels over CSR/COO.

GraphBIG's GPU benchmarks share the CPU core code but organize device data
as CSR/COO (Section 4.1).  Two mapping models appear (Section 5.3):

* **thread-centric** — one thread per vertex; the per-thread working set is
  the vertex's degree, whose warp-level variance produces branch
  divergence (BFS, SPath, kCore, GColor, DCentr, BCentr);
* **edge-centric** — one thread per edge; per-thread work is uniform, so
  BDR stays low and only memory divergence remains (CComp per Soman,
  TC per-edge intersection).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from ...formats.coo import COOGraph
from ...formats.csr import CSRGraph
from ..simt import KernelAccum, KernelStats, warp_of


class GPUKernel(ABC):
    """One GPU workload kernel; :meth:`run` returns (outputs, stats)."""

    NAME: str = ""
    MODEL: str = "thread-centric"       # or "edge-centric"

    def run(self, csr: CSRGraph, coo: COOGraph | None = None,
            l2_bytes: int = 32 * 1024,
            **params: Any) -> tuple[dict[str, Any], KernelStats]:
        """Execute the kernel over a cold ``l2_bytes`` device L2."""
        acc = KernelAccum(l2_bytes=l2_bytes)
        outputs = self.kernel(csr, coo, acc, **params)
        return outputs, acc.stats

    @abstractmethod
    def kernel(self, csr: CSRGraph, coo: COOGraph | None,
               acc: KernelAccum, **params: Any) -> dict[str, Any]:
        """Algorithm + SIMT accounting body."""


def frontier_expand(acc: KernelAccum, csr: CSRGraph,
                    active: np.ndarray, body_instrs: float = 4.0
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared thread-centric edge-expansion accounting.

    Every thread (vertex) checks its frontier membership (one coalesced
    property load + compare); active threads read their row pointers and
    walk their neighbour lists.  Returns ``(threads, steps, slots)`` flat
    arrays — one entry per traversed edge — for the caller's own
    neighbour-data accounting, plus the neighbour ids via
    ``csr.col_idx[csr.row_ptr[threads] + steps]``.
    """
    from ..simt import slots_for_loop
    n = csr.n
    all_threads = np.arange(n)
    # membership check: coalesced read of the per-vertex property array
    acc.uniform_op(np.ones(n, dtype=bool), 2.0)
    acc.mem_op(warp_of(all_threads), csr.base_vprop + 4 * all_threads)
    trips = np.where(active, np.diff(csr.row_ptr), 0)
    av = np.flatnonzero(active)
    if len(av):
        # row-pointer loads by active lanes (mostly coalesced)
        acc.mem_op(warp_of(av), csr.base_row + 4 * av)
        acc.mem_op(warp_of(av), csr.base_row + 4 * (av + 1))
    acc.loop(trips, body_instrs)
    threads, steps, slots = slots_for_loop(trips)
    if len(threads):
        epos = csr.row_ptr[threads] + steps
        # neighbour-id loads: sequential per lane, divergent across lanes
        acc.mem_op(slots, csr.base_col + 4 * epos)
    return threads, steps, slots
