"""GPU BCentr: Brandes betweenness with thread-centric BFS phases.

Per source: a forward level-synchronous phase accumulating path counts
(sigma) with scattered atomics, then a backward dependency phase with a
heavy floating-point body ("heavier per-edge computation", the paper's
reason for BCentr's high BDR in Fig. 10).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..simt import KernelAccum, slots_for_loop
from .base import GPUKernel, frontier_expand


class GPUBcentr(GPUKernel):
    NAME = "BCentr"
    MODEL = "thread-centric"

    def kernel(self, csr, coo, acc: KernelAccum, *,
               n_sources: int | None) -> dict[str, Any]:
        n = csr.n
        if n_sources is None or n_sources >= n:
            sources = list(range(n))
            scale = 1.0
        else:
            rng = np.random.default_rng(0)
            sources = sorted(rng.choice(n, n_sources,
                                        replace=False).tolist())
            scale = n / len(sources)
        bc = np.zeros(n)
        deg = np.diff(csr.row_ptr)
        for s in sources:
            dist = np.full(n, -1, dtype=np.int64)
            sigma = np.zeros(n)
            dist[s] = 0
            sigma[s] = 1.0
            cur = 0
            # forward phase
            while True:
                acc.launch()
                active = dist == cur
                if not active.any():
                    break
                threads, steps, slots = frontier_expand(acc, csr, active,
                                                        body_instrs=5.0)
                if len(threads) == 0:
                    break
                nbr = csr.col_idx[csr.row_ptr[threads] + steps]
                acc.mem_op(slots, csr.base_vprop + 4 * nbr)
                fresh = dist[nbr] < 0
                if fresh.any():
                    dist[nbr[fresh]] = cur + 1
                on_sp = dist[nbr] == cur + 1
                if on_sp.any():
                    acc.atomic_op(slots[on_sp],
                                  csr.base_vprop + 4 * nbr[on_sp])
                    np.add.at(sigma, nbr[on_sp], sigma[threads[on_sp]])
                cur += 1
            # backward dependency phase (heavy FP body)
            delta = np.zeros(n)
            for level in range(cur - 1, -1, -1):
                acc.launch()
                active = dist == level
                trips = np.where(active, deg, 0)
                acc.loop(trips, 12.0)
                threads, steps, slots = slots_for_loop(trips)
                if len(threads) == 0:
                    continue
                epos = csr.row_ptr[threads] + steps
                nbr = csr.col_idx[epos]
                acc.mem_op(slots, csr.base_col + 4 * epos)
                acc.mem_op(slots, csr.base_vprop + 4 * nbr)
                succ = dist[nbr] == dist[threads] + 1
                if succ.any():
                    contrib = (sigma[threads[succ]]
                               / np.maximum(sigma[nbr[succ]], 1e-300)
                               * (1.0 + delta[nbr[succ]]))
                    np.add.at(delta, threads[succ], contrib)
                    acc.atomic_op(slots[succ],
                                  csr.base_vprop + 4 * threads[succ])
            mask = np.arange(n) != s
            bc[mask] += delta[mask] * scale
        return {"bc": bc, "n_sources": len(sources)}
