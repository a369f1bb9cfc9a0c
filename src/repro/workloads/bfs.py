"""BFS — breadth-first search (graph traversal, CompStruct).

The most popular GraphBIG workload (10 of 21 use cases, Fig. 4(A)).
Level-synchronous queue-based BFS over framework primitives: the frontier
queue stays L1-resident while neighbour-list walks chase pointers across
the heap — the canonical CompStruct signature (Table 1).

The kernel runs the traversal frontier by frontier on a numpy CSR
snapshot and emits, through the tracer's bulk API, the event stream of the
per-vertex loop over the traced primitives (``tests/oracles.py:loop_bfs``)
— same addresses, rw flags, instruction indices, branch outcomes and
region visits, element for element.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core import graph as G
from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import GraphView, I64, Layout, first_unseen
from .base import NullTracer, TracedQueue, Workload


class BFS(Workload):
    """Breadth-first search from ``root``; labels ``level`` and ``parent``
    vertex properties and returns them."""

    NAME = "BFS"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.TRAVERSAL
    HAS_GPU = True

    def kernel(self, g: PropertyGraph, t, *, root: int) -> dict[str, Any]:
        site_visited = t.register_branch_site()
        src = g.find_vertex(root)
        g.vset(src, "level", 0)
        g.vset(src, "parent", root)
        q = TracedQueue(g, t)
        q.push(src)
        gv = GraphView(g)
        root_row = int(gv.rows_of(np.asarray([root]))[0])

        # frontier simulation: pop order + per-edge "unvisited" outcomes.
        # Queue BFS is level-synchronous, so processing whole levels with
        # first-occurrence dedup reproduces the sequential outcome of every
        # single edge relaxation.
        seen = np.zeros(gv.n, bool)
        seen[root_row] = True
        lvl_of = np.full(gv.n, -1, I64)
        lvl_of[root_row] = 0
        parent_of = np.full(gv.n, -1, I64)
        parent_of[root_row] = root
        pop_parts = [np.asarray([root_row], I64)]
        eidx_parts, unvis_parts, esrc_parts = [], [], []
        frontier = pop_parts[0]
        base = 0
        lvl = 0
        while len(frontier):
            d = gv.deg[frontier]
            eidx = gv.out_edges_of(frontier)
            edst = gv.out_dst[eidx]
            srcrow = np.repeat(frontier, d)
            unvis = first_unseen(seen, edst)
            new_rows = edst[unvis]
            seen[new_rows] = True
            lvl += 1
            lvl_of[new_rows] = lvl
            parent_of[new_rows] = gv.vids[srcrow[unvis]]
            esrc_parts.append(base
                              + np.repeat(np.arange(len(frontier), dtype=I64),
                                          d))
            eidx_parts.append(eidx)
            unvis_parts.append(unvis)
            base += len(frontier)
            pop_parts.append(new_rows)
            frontier = new_rows

        pops = np.concatenate(pop_parts)
        pv = len(pops)
        eidx = (np.concatenate(eidx_parts) if eidx_parts
                else np.empty(0, I64))
        e_src_pos = (np.concatenate(esrc_parts) if esrc_parts
                     else np.empty(0, I64))
        unvis = (np.concatenate(unvis_parts) if unvis_parts
                 else np.empty(0, bool))

        lslot, pslot = g.vschema.slot("level"), g.vschema.slot("parent")
        for r, lv, pa in zip(pops.tolist(), lvl_of[pops].tolist(),
                             parent_of[pops].tolist()):
            props = gv.vs[r].props
            props[lslot] = lv
            props[pslot] = pa
        vids_pop = gv.vids[pops]
        levels = dict(zip(vids_pop.tolist(), lvl_of[pops].tolist()))
        parents = dict(zip(vids_pop.tolist(), parent_of[pops].tolist()))

        if not isinstance(t, NullTracer):
            self._emit(g, t, gv, q, pops, eidx, e_src_pos, unvis,
                       site_visited)
        return {"levels": levels, "parents": parents, "visited": pv}

    def _emit(self, g: PropertyGraph, t, gv: GraphView, q: TracedQueue,
              pops, eidx, e_src_pos, unvis, site_visited) -> None:
        """Lay out the loop oracle's main loop (the prologue up to the
        root push went through the real primitives).  Per popped vertex:
        the queue pop, its level read and the head of its neighbour walk;
        per edge the walk step, find-vertex and level probe, an unvisited
        target adding its two property writes and the frontier push; then
        the walk's exit."""
        pv, E = len(pops), len(eidx)
        edst = gv.out_dst[eidx]
        off_l = G.V_PROP_OFF + g.vschema.offset("level")
        off_p = G.V_PROP_OFF + g.vschema.offset("parent")
        walk = G.neighbors_ops("v", "e")
        edge = (walk.step + G.find_vertex_ops("widx", "w") + (("i", 4),)
                + G.vget_ops("w", off_l) + (("br", site_visited, "unvis"),))
        fresh = (G.vset_ops("w", off_l) + G.vset_ops("w", off_p)
                 + q.push_ops("slot"))
        lay = Layout(t)
        pop = np.arange(pv, dtype=I64)
        lay.add(q.pop_ops("slot") + G.vget_ops("v", off_l) + walk.head,
                (pop, 0), slot=q.slots(pop), v=gv.vaddr[pops])
        key = (e_src_pos, 1 + np.arange(E, dtype=I64))
        cols = dict(e=gv.out_eaddr[eidx], widx=gv.idx_addr[edst],
                    w=gv.vaddr[edst], unvis=unvis,
                    slot=q.slots(np.cumsum(unvis)))     # the root took slot 0
        lay.add(edge + walk.resume, key, ~unvis, **cols)
        lay.add(edge + fresh + walk.resume, key, unvis, **cols)
        lay.add(walk.exit, (pop, E + 1))
        lay.build().emit(g, t)
