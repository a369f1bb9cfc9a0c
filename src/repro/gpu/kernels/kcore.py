"""GPU kCore: iterative peel-flagging kernel.

Each launch, every live thread performs the same small check
(``deg <= k``?) against coalesced degree arrays — uniform work, which is
why kCore sits at the low-divergence corner of Fig. 10 ("kCore stays at
the lower-left corner").  Only the (few) peeled vertices walk their edges
to decrement neighbour degrees.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..simt import KernelAccum, slots_for_loop, warp_of
from .base import GPUKernel


class GPUKcore(GPUKernel):
    NAME = "kCore"
    MODEL = "thread-centric"

    def kernel(self, csr, coo, acc: KernelAccum) -> dict[str, Any]:
        # csr must be the symmetrized (undirected) graph
        n = csr.n
        deg = np.diff(csr.row_ptr).astype(np.int64)
        alive = np.ones(n, dtype=bool)
        core = np.zeros(n, dtype=np.int64)
        k = 0
        all_threads = np.arange(n)
        while alive.any():
            acc.launch()
            # uniform flag pass: coalesced degree read + compare
            acc.uniform_op(alive, 3.0)
            la = np.flatnonzero(alive)
            acc.mem_op(warp_of(la), csr.base_vprop + 4 * la)
            peel = alive & (deg <= k)
            if not peel.any():
                k += 1
                continue
            core[peel] = k
            alive &= ~peel
            # peeled lanes write their removal flag (compacted, coalesced)
            pc = np.flatnonzero(peel)
            acc.mem_op(np.arange(len(pc)) // 32,
                       csr.base_vprop + 4 * np.arange(len(pc)),
                       is_write=True)
            # peeled vertices form a *compacted* worklist (the standard
            # GPU formulation): dense lanes whose remaining degrees are
            # all <= k, so per-warp work is nearly uniform — the low-BDR
            # corner of Fig. 10
            peeled = np.flatnonzero(peel)
            trips = np.diff(csr.row_ptr)[peeled]
            acc.loop(trips, 4.0)
            threads, steps, slots = slots_for_loop(trips)
            if len(threads):
                vsrc = peeled[threads]
                epos = csr.row_ptr[vsrc] + steps
                nbr = csr.col_idx[epos]
                # sequential per-lane list scans: new memory instruction
                # only at 128 B segment boundaries (L1-buffered)
                bnd = (epos % 32 == 0) | (steps == 0)
                acc.mem_op(slots[bnd], csr.base_col + 4 * epos[bnd])
                live_nbr = alive[nbr]
                if live_nbr.any():
                    acc.atomic_op(slots[live_nbr],
                                  csr.base_vprop + 4 * nbr[live_nbr])
                np.subtract.at(deg, nbr[live_nbr], 1)
        return {"core": core, "max_core": int(core.max(initial=0))}
