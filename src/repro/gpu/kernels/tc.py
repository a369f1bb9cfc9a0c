"""GPU TC: edge-centric triangle counting (Schank-style intersections).

One thread per (oriented) edge merge-intersects the two endpoints'
higher-ordered adjacency lists: per-thread work is list-length-bound and
similar within a warp (edges sorted by source), so BDR stays low; but the
paired list reads scatter (high MDR) while the loop body is almost all
*compares* — very low bytes per instruction.  That combination is exactly
TC's signature in Fig. 11: lowest read throughput (~2 GB/s) yet highest
IPC.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...core.memmodel import PACKED_HEAP, SimAllocator
from ..simt import KernelAccum, slots_for_loop
from .base import GPUKernel


class GPUTc(GPUKernel):
    NAME = "TC"
    MODEL = "edge-centric"

    def kernel(self, csr, coo, acc: KernelAccum) -> dict[str, Any]:
        # csr must be the symmetrized (undirected) graph.
        n = csr.n
        # build the degeneracy-oriented adjacency (Schank's ordering:
        # edges point toward the higher-degree endpoint, so every list —
        # including the hubs' — stays O(sqrt(m)))
        deg_all = np.diff(csr.row_ptr)
        order = np.lexsort((np.arange(n), deg_all))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        src = np.repeat(np.arange(n), deg_all)
        dst = csr.col_idx
        keep = rank[src] < rank[dst]
        hsrc, hdst = src[keep], dst[keep]
        order = np.lexsort((hdst, hsrc))
        hsrc, hdst = hsrc[order], hdst[order]
        hdeg = np.bincount(hsrc, minlength=n)
        hoff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(hdeg, out=hoff[1:])
        halloc = SimAllocator(PACKED_HEAP)
        hbase = halloc.alloc_array(max(len(hdst), 1), 8, tag="tc_higher")
        sets = [set() for _ in range(n)]
        for s, d in zip(hsrc.tolist(), hdst.tolist()):
            sets[s].add(d)

        acc.launch()
        m = len(hsrc)
        if m == 0:
            return {"triangles": 0}
        # each edge-thread scans the SHORTER of the two lists, binary-
        # searching the longer one: trips = min(|H(u)|, |H(v)|) with a
        # heavy compare/probe body.  Using the shorter list bounds the
        # per-thread work, which is why edge-centric TC keeps its BDR
        # stable across datasets (Fig. 13) and why the kernel is
        # compute-dominated (top IPC, ~2 GB/s read throughput, Fig. 11).
        short_deg = np.minimum(hdeg[hsrc], hdeg[hdst])
        long_deg = np.maximum(hdeg[hsrc], hdeg[hdst])
        trips = np.maximum(short_deg, 1)
        probe_cost = np.maximum(np.ceil(np.log2(long_deg + 2)), 1.0)
        acc.loop(trips * probe_cost.astype(np.int64), 18.0)
        threads, steps, slots = slots_for_loop(trips)
        if len(threads):
            # sequential scan of the shorter list: new memory instruction
            # only at 128 B boundaries (L1-buffered)
            eu, ev = hsrc[threads], hdst[threads]
            swap = hdeg[eu] > hdeg[ev]
            short = np.where(swap, ev, eu)
            longer = np.where(swap, eu, ev)
            i_s = np.minimum(steps, np.maximum(hdeg[short] - 1, 0))
            bs = (i_s % 32 == 0) | (steps == 0)
            acc.mem_op(slots[bs], hbase + 4 * (hoff[short[bs]] + i_s[bs]))
            # binary-search probes land pseudo-randomly in the long list
            probe = (steps * np.int64(2654435761)) % np.maximum(
                hdeg[longer], 1)
            acc.mem_op(slots, hbase + 4 * (hoff[longer] + probe))
        total = 0
        for s, d in zip(hsrc.tolist(), hdst.tolist()):
            total += len(sets[s] & sets[d])
        return {"triangles": total}
