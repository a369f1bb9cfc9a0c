"""GPU DCentr: degree centrality with atomic in-degree accumulation.

One thread per vertex writes its out-degree, then walks its out-edges
issuing ``atomicAdd`` on each target's in-degree counter: extremely
data-intensive, degree-variance-divergent, and address-scattered — the
paper's "extremely high divergence in both sides" corner of Fig. 10, with
throughput kept high by sheer access intensity but performance dragged
down by the atomics (Fig. 11 discussion).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..simt import KernelAccum, slots_for_loop, warp_of
from .base import GPUKernel


class GPUDcentr(GPUKernel):
    NAME = "DCentr"
    MODEL = "thread-centric"

    def kernel(self, csr, coo, acc: KernelAccum) -> dict[str, Any]:
        n = csr.n
        acc.launch()
        threads = np.arange(n)
        deg = np.diff(csr.row_ptr).astype(np.int64)
        # read own row pointers (coalesced), write own out-degree
        acc.uniform_op(np.ones(n, dtype=bool), 3.0)
        acc.mem_op(warp_of(threads), csr.base_row + 4 * threads)
        acc.mem_op(warp_of(threads), csr.base_row + 4 * (threads + 1))
        acc.mem_op(warp_of(threads), csr.base_vprop + 4 * threads,
                   is_write=True)
        # in-degree accumulation: degree-length loops + scattered atomics
        acc.loop(deg, 3.0)
        t_ids, steps, slots = slots_for_loop(deg)
        indeg = np.zeros(n, dtype=np.int64)
        if len(t_ids):
            epos = csr.row_ptr[t_ids] + steps
            nbr = csr.col_idx[epos]
            acc.mem_op(slots, csr.base_col + 4 * epos)
            acc.atomic_op(slots, csr.base_vprop + 4 * nbr)
            np.add.at(indeg, nbr, 1)
        dc = deg + indeg
        return {"dc": dc, "out_deg": deg, "in_deg": indeg}
