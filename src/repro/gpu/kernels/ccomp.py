"""GPU CComp: Soman's connected-components algorithm (edge-centric).

Hooking + pointer-jumping over the COO edge array: each thread owns one
edge (uniform work → near-zero BDR) but reads/writes component labels of
random vertices (→ high MDR) at full memory intensity — the paper's
explanation for CComp's top throughput (Fig. 11) and top speedup
(Fig. 12, up to 121x).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..simt import KernelAccum, warp_of
from .base import GPUKernel


class GPUCcomp(GPUKernel):
    NAME = "CComp"
    MODEL = "edge-centric"

    def kernel(self, csr, coo, acc: KernelAccum) -> dict[str, Any]:
        if coo is None:
            raise ValueError("CComp (Soman) requires the COO graph")
        n = coo.n
        # symmetrize: hooking treats edges as undirected
        src = np.concatenate([coo.src, coo.dst])
        dst = np.concatenate([coo.dst, coo.src])
        comp = np.arange(n, dtype=np.int64)
        edge_threads = np.arange(len(src))
        vertex_threads = np.arange(n)
        changed = True
        while changed:
            acc.launch()
            # --- hooking: one thread per edge, uniform trip count
            acc.uniform_op(np.ones(len(src), dtype=bool), 4.0)
            acc.mem_op(warp_of(edge_threads),
                       coo.base_src + 4 * (edge_threads % max(coo.m, 1)))
            # label reads of both endpoints: scattered gathers
            acc.mem_op(warp_of(edge_threads), csr.base_vprop + 4 * src)
            acc.mem_op(warp_of(edge_threads), csr.base_vprop + 4 * dst)
            cs, cd = comp[src], comp[dst]
            hook = cs != cd
            changed = bool(hook.any())
            if changed:
                lo = np.minimum(cs[hook], cd[hook])
                hi = np.maximum(cs[hook], cd[hook])
                # Soman hooking writes are benign races (plain stores)
                acc.mem_op(warp_of(edge_threads[hook]),
                           csr.base_vprop + 4 * hi, is_write=True)
                # apply min-hook per representative
                order = np.lexsort((lo, hi))
                h, l = hi[order], lo[order]
                first = np.concatenate(([True], h[1:] != h[:-1]))
                comp[h[first]] = np.minimum(comp[h[first]], l[first])
            # --- pointer jumping: one thread per vertex, single pass per
            # iteration (Soman's multi-pointer-jumping round)
            acc.uniform_op(np.ones(n, dtype=bool), 2.0)
            acc.mem_op(warp_of(vertex_threads), csr.base_vprop + 4 * comp)
            nxt = comp[comp]
            if not np.array_equal(nxt, comp):
                acc.mem_op(warp_of(vertex_threads),
                           csr.base_vprop + 4 * vertex_threads,
                           is_write=True)
                comp = nxt
                changed = True
        # converged (comp[comp] == comp): each label is its own root
        n_components = int(np.count_nonzero(comp == vertex_threads))
        return {"comp": comp, "n_components": n_components}
