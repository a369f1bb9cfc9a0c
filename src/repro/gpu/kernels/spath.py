"""GPU SPath: frontier-based Bellman-Ford-style SSSP.

Thread-centric relaxation: vertices whose distance improved last launch
expand their edges and relax neighbours (the standard GPU SSSP shape —
Dijkstra's priority queue does not parallelize).  Converges to the same
distances as the CPU Dijkstra workload on non-negative weights (tested).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..simt import KernelAccum
from .base import GPUKernel, frontier_expand


class GPUSpath(GPUKernel):
    NAME = "SPath"
    MODEL = "thread-centric"

    def kernel(self, csr, coo, acc: KernelAccum, *, root: int) -> dict[str, Any]:
        n = csr.n
        dist = np.full(n, np.inf)
        dist[root] = 0.0
        active = np.zeros(n, dtype=bool)
        active[root] = True
        launches = 0
        while active.any():
            acc.launch()
            launches += 1
            threads, steps, slots = frontier_expand(acc, csr, active,
                                                    body_instrs=6.0)
            active = np.zeros(n, dtype=bool)
            if len(threads) == 0:
                break
            epos = csr.row_ptr[threads] + steps
            nbr = csr.col_idx[epos]
            # weight loads parallel the col loads (every weight is 1: the
            # CSR is unweighted); dist reads scattered
            acc.mem_op(slots, csr.base_val + 4 * epos)
            acc.mem_op(slots, csr.base_vprop + 4 * nbr)
            cand = dist[threads] + 1.0
            better = cand < dist[nbr]
            if better.any():
                acc.atomic_op(slots[better],
                              csr.base_vprop + 4 * nbr[better])
                # apply min-reduction per neighbour
                order = np.lexsort((cand[better], nbr[better]))
                tb, cb = nbr[better][order], cand[better][order]
                first = np.concatenate(([True], tb[1:] != tb[:-1]))
                improved = cb[first] < dist[tb[first]]
                upd = tb[first][improved]
                dist[upd] = cb[first][improved]
                active[upd] = True
        return {"dist": dist, "launches": launches,
                "settled": int(np.isfinite(dist).sum())}
