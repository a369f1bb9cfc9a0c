"""Edge-centric GPU BFS — the mapping-model counterpart of GPUBfs.

Section 5.3 attributes thread-centric kernels' branch divergence to the
"one thread per vertex, working set = degree" mapping and credits the
edge-centric model (CComp, TC) with balanced lanes.  This variant maps
one thread per *edge* each launch — uniform trip counts, so BDR collapses
while the frontier-membership gathers keep MDR high.  Paired with
:class:`~repro.gpu.kernels.bfs.GPUBfs` it isolates the mapping choice as
an ablation (``bench_ablations.py``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..simt import KernelAccum, warp_of
from .base import GPUKernel


class GPUBfsEdgeCentric(GPUKernel):
    NAME = "BFS-edge"
    MODEL = "edge-centric"

    def kernel(self, csr, coo, acc: KernelAccum, *, root: int = 0,
               **_: Any) -> dict[str, Any]:
        if coo is None:
            raise ValueError("edge-centric BFS requires the COO graph")
        n, m = coo.n, coo.m
        levels = np.full(n, -1, dtype=np.int64)
        levels[root] = 0
        cur = 0
        edge_threads = np.arange(m)
        while True:
            acc.launch()
            # every edge thread: uniform body — read src/dst ids
            # (coalesced) and both endpoint levels (scattered gathers)
            acc.uniform_op(np.ones(max(m, 1), dtype=bool), 4.0)
            acc.mem_op(warp_of(edge_threads),
                       coo.base_src + 4 * edge_threads)
            acc.mem_op(warp_of(edge_threads),
                       coo.base_dst + 4 * edge_threads)
            acc.mem_op(warp_of(edge_threads),
                       csr.base_vprop + 4 * coo.src)
            active = levels[coo.src] == cur
            fresh = active & (levels[coo.dst] < 0)
            if active.any():
                acc.mem_op(warp_of(edge_threads[active]),
                           csr.base_vprop + 4 * coo.dst[active])
            if not fresh.any():
                if not (levels[coo.src] == cur).any():
                    break
                cur += 1
                if cur > n:
                    break
                continue
            acc.mem_op(warp_of(edge_threads[fresh]),
                       csr.base_vprop + 4 * coo.dst[fresh],
                       is_write=True)
            levels[coo.dst[fresh]] = cur + 1
            cur += 1
        return {"levels": levels, "depth": cur,
                "visited": int((levels >= 0).sum())}
