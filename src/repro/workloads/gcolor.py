"""GColor — graph coloring (topological analytics, CompStruct).

Luby-Jones parallel coloring (the paper's stated algorithm): every round,
each uncolored vertex draws a random priority; local maxima among
uncolored neighbours take the smallest color unused by colored neighbours.
Rounds are bulk-synchronous — exactly the structure the GPU kernel
parallelizes per-vertex (its degree-dependent inner loop is why GColor
sits high on the branch-divergence axis of Fig. 10).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from .base import Workload


class GColor(Workload):
    """Proper coloring of the undirected view in the ``color`` property;
    returns colors and the number of rounds."""

    NAME = "GColor"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.ANALYTICS
    HAS_GPU = True

    def kernel(self, g: PropertyGraph, t) -> dict[str, Any]:
        site_max = t.register_branch_site()
        rng = np.random.default_rng(0)
        ids = sorted(g.vertex_ids())
        # undirected adjacency snapshot via primitives
        adj: dict[int, set[int]] = {vid: set() for vid in ids}
        for v in g.vertices():
            for dst, _node in g.neighbors(v):
                t.i(2)
                adj[v.vid].add(dst)
                adj[dst].add(v.vid)
        uncolored = set(ids)
        colors: dict[int, int] = {}
        rounds = 0
        while uncolored:
            rounds += 1
            # draw priorities (one property write per uncolored vertex)
            prio: dict[int, float] = {}
            for vid in uncolored:
                v = g.find_vertex(vid)
                p = float(rng.random())
                prio[vid] = p
                g.vset(v, "rnd", p)
            winners = []
            for vid in uncolored:
                v = g.find_vertex(vid)
                t.i(2)
                is_max = True
                for u in adj[vid]:
                    if u in uncolored:
                        w = g.find_vertex(u)
                        t.i(3)
                        g.vget(w, "rnd")
                        if (prio[u], u) > (prio[vid], vid):
                            is_max = False
                            break
                t.br(site_max, is_max)
                if is_max:
                    winners.append(vid)
            for vid in winners:
                v = g.find_vertex(vid)
                used = set()
                for u in adj[vid]:
                    w = g.find_vertex(u)
                    t.i(2)
                    c = g.vget(w, "color")
                    if c >= 0:
                        used.add(c)
                c = 0
                while c in used:
                    c += 1
                    t.i(1)
                g.vset(v, "color", c)
                colors[vid] = c
                uncolored.discard(vid)
        return {"colors": colors, "rounds": rounds,
                "n_colors": max(colors.values(), default=-1) + 1}
