"""BCentr — betweenness centrality (social analysis, CompStruct).

Brandes' algorithm (the paper's stated implementation): one BFS per source
accumulating shortest-path counts (sigma), then a reverse-order dependency
accumulation (delta).  Exact when run from every source; ``n_sources``
samples pivots for large graphs (Brandes-Pich approximation), scaling the
scores accordingly.
"""

from __future__ import annotations

from typing import Any

from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from .base import TracedQueue, TracedStack, Workload


class BCentr(Workload):
    """Betweenness centrality on the directed graph, written to the ``bc``
    property.  ``n_sources=None`` runs every source (exact); fewer are
    drawn with a fixed seed."""

    NAME = "BCentr"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.SOCIAL
    HAS_GPU = True

    def kernel(self, g: PropertyGraph, t, *,
               n_sources: int | None) -> dict[str, Any]:
        import numpy as np
        site_first = t.register_branch_site()
        site_equal = t.register_branch_site()
        ids = sorted(g.vertex_ids())
        if n_sources is None or n_sources >= len(ids):
            sources = ids
            scale = 1.0
        else:
            rng = np.random.default_rng(0)
            sources = sorted(rng.choice(ids, n_sources,
                                        replace=False).tolist())
            scale = len(ids) / n_sources
        bc: dict[int, float] = {vid: 0.0 for vid in ids}
        for s in sources:
            sigma = {vid: 0.0 for vid in ids}
            dist = {vid: -1 for vid in ids}
            preds: dict[int, list[int]] = {vid: [] for vid in ids}
            sigma[s] = 1.0
            dist[s] = 0
            q = TracedQueue(g, t)
            order = TracedStack(g, t)
            q.push(s)
            while q:
                vid = q.pop()
                order.push(vid)
                v = g.find_vertex(vid)
                for dst, _node in g.neighbors(v):
                    t.i(5)
                    w = g.find_vertex(dst)
                    g.vget(w, "level")   # struct touch per visit
                    first = dist[dst] < 0
                    t.br(site_first, first)
                    if first:
                        dist[dst] = dist[vid] + 1
                        q.push(dst)
                    on_sp = dist[dst] == dist[vid] + 1
                    t.br(site_equal, on_sp)
                    if on_sp:
                        sigma[dst] += sigma[vid]
                        preds[dst].append(vid)
            delta = {vid: 0.0 for vid in ids}
            while order:
                wid = order.pop()
                for vid in preds[wid]:
                    t.i(8)      # the delta mult-accumulate
                    delta[vid] += (sigma[vid] / sigma[wid]
                                   * (1.0 + delta[wid]))
                if wid != s:
                    bc[wid] += delta[wid] * scale
                    v = g.find_vertex(wid)
                    g.vset(v, "bc", bc[wid])
        return {"bc": bc, "n_sources": len(sources)}
