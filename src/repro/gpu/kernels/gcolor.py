"""GPU GColor: Luby-Jones independent-set coloring (thread-centric).

Each round, every uncolored thread compares its random priority against
all uncolored neighbours (degree-dependent inner loop with an early exit)
— "heavier per-edge computation" and high warp imbalance put GColor on
the high-BDR side of Fig. 10.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..simt import KernelAccum, slots_for_loop, warp_of
from .base import GPUKernel


class GPUGcolor(GPUKernel):
    NAME = "GColor"
    MODEL = "thread-centric"

    def kernel(self, csr, coo, acc: KernelAccum) -> dict[str, Any]:
        # csr must be the symmetrized (undirected) graph
        n = csr.n
        rng = np.random.default_rng(0)
        colors = np.full(n, -1, dtype=np.int64)
        deg = np.diff(csr.row_ptr)
        rounds = 0
        while (colors < 0).any():
            acc.launch()
            rounds += 1
            uncolored = colors < 0
            prio = rng.random(n)
            # priority write, coalesced over uncolored lanes
            uc = np.flatnonzero(uncolored)
            acc.uniform_op(uncolored, 2.0)
            acc.mem_op(warp_of(uc), csr.base_vprop + 4 * uc, is_write=True)
            # neighbour priority scan: the loop exits early on the first
            # higher-priority uncolored neighbour, so the expected trip
            # count shrinks as the graph colors in
            frac = max(uncolored.mean(), 1.0 / max(n, 1))
            trips = np.where(uncolored,
                             np.maximum((deg * frac).astype(np.int64), 1), 0)
            acc.loop(trips, 5.0)
            threads, steps, slots = slots_for_loop(trips)
            winners = uncolored.copy()
            if len(threads):
                epos = csr.row_ptr[threads] + steps
                nbr = csr.col_idx[epos]
                acc.mem_op(slots, csr.base_col + 4 * epos)
                acc.mem_op(slots, csr.base_vprop + 4 * nbr)
                beaten = (uncolored[nbr]
                          & ((prio[nbr] > prio[threads])
                             | ((prio[nbr] == prio[threads])
                                & (nbr > threads))))
                winners[threads[beaten]] = False
            # winners pick the smallest color unused by their neighbours
            wv = np.flatnonzero(winners)
            if len(wv):
                wtrips = deg[wv]
                full = np.zeros(n, dtype=np.int64)
                full[wv] = wtrips
                acc.loop(full, 3.0)
                wthreads, wsteps, wslots = slots_for_loop(full)
                if len(wthreads):
                    wepos = csr.row_ptr[wthreads] + wsteps
                    acc.mem_op(wslots,
                               csr.base_vprop + 4 * csr.col_idx[wepos])
                for v in wv.tolist():
                    used = set(colors[csr.neighbors(v)].tolist())
                    c = 0
                    while c in used:
                        c += 1
                    colors[v] = c
                acc.mem_op(warp_of(wv), csr.base_vprop + 4 * wv,
                           is_write=True)
        return {"colors": colors, "rounds": rounds,
                "n_colors": int(colors.max(initial=-1)) + 1}
