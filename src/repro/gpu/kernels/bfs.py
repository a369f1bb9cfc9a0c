"""GPU BFS: level-synchronous thread-centric kernel.

One thread per vertex per launch; threads whose ``level`` equals the
current depth expand their neighbour lists and label undiscovered
neighbours.  Degree variance within warps plus the shrinking/growing
frontier ("varying working set size", Fig. 12 discussion) produce the
moderate divergence and lower speedup the paper reports for traversals.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..simt import KernelAccum
from .base import GPUKernel, frontier_expand


class GPUBfs(GPUKernel):
    NAME = "BFS"
    MODEL = "thread-centric"

    def kernel(self, csr, coo, acc: KernelAccum, *, root: int) -> dict[str, Any]:
        n = csr.n
        levels = np.full(n, -1, dtype=np.int64)
        levels[root] = 0
        cur = 0
        while True:
            acc.launch()
            active = levels == cur
            if not active.any():
                break
            threads, steps, slots = frontier_expand(acc, csr, active)
            if len(threads) == 0:
                break
            nbr = csr.col_idx[csr.row_ptr[threads] + steps]
            # neighbour level check: scattered property reads
            acc.mem_op(slots, csr.base_vprop + 4 * nbr)
            fresh = levels[nbr] < 0
            if fresh.any():
                # discovered neighbours: scattered property writes
                acc.mem_op(slots[fresh], csr.base_vprop + 4 * nbr[fresh],
                           is_write=True)
                levels[nbr[fresh]] = cur + 1
            cur += 1
        return {"levels": levels, "depth": cur,
                "visited": int((levels >= 0).sum())}
