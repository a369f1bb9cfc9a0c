"""SPath — single-source shortest path (graph path/flow analytics,
CompStruct).

Dijkstra's algorithm (the paper's stated implementation) with a traced
binary heap.  Edge weights come from the ``weight`` edge property; the
relaxation loop mixes heap locality with scattered vertex-property
updates.

The pop order is control flow, so Dijkstra stays a loop — but over the
lists of a numpy CSR snapshot with ``heapq`` on the loop oracle's
``(dist, vid)`` tuples, *recording* instead of tracing: whether each pop
is stale, the heap's length at every pop and push, each relaxation's
outcome.  The event stream of the per-edge loop over the traced primitives
(``tests/oracles.py:loop_spath``) is a function of those, and is emitted
through the tracer's bulk API — same addresses, rw flags, instruction
indices, branch outcomes and region visits, element for element.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

import numpy as np

from ..core import graph as G
from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import GraphView, I64, Layout
from .base import NullTracer, TracedHeap, Workload


class SPath(Workload):
    """Dijkstra from ``root`` over the ``weight`` edge property; labels the
    ``dist`` vertex property and returns final distances and parents."""

    NAME = "SPath"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.ANALYTICS
    HAS_GPU = True

    def kernel(self, g: PropertyGraph, t, *, root: int = 0,
               **_: Any) -> dict[str, Any]:
        site_relax = t.register_branch_site()
        src = g.find_vertex(root)
        g.vset(src, "dist", 0.0)
        heap = TracedHeap(g, t)
        heap.push((0.0, root))
        gv = GraphView(g)
        dslot, wslot = g.vschema.slot("dist"), g.eschema.slot("weight")
        vids, indptr = gv.vids.tolist(), gv.out_indptr.tolist()
        row_of = dict(zip(vids, range(gv.n)))
        dst_row = gv.out_dst.tolist()
        weights = [e.props[wslot] for v in gv.vs for e in v.out.values()]
        dist = [v.props[dslot] for v in gv.vs]

        pq = [(0.0, root)]
        dists: dict[int, float] = {root: 0.0}
        parents: dict[int, int] = {root: root}
        settled = [False] * gv.n
        # per pop: the row, the heap's length behind it, stale or not;
        # per relaxed edge: its outcome; per push: the length before it
        pop_row: list[int] = []
        pop_len: list[int] = []
        stale: list[bool] = []
        better_of: list[bool] = []
        push_len: list[int] = []
        while pq:
            d, vid = heappop(pq)
            row = row_of[vid]
            pop_row.append(row)
            pop_len.append(len(pq))
            stale.append(settled[row])
            if settled[row]:
                continue
            settled[row] = True
            for e in range(indptr[row], indptr[row + 1]):
                weight = weights[e]
                if weight < 0:
                    raise ValueError(
                        f"Dijkstra requires non-negative weights, "
                        f"edge ({vid}->{vids[dst_row[e]]}) has {weight}")
                w = dst_row[e]
                nd = d + weight
                better = nd < dist[w]
                better_of.append(better)
                if better:
                    dist[w] = nd
                    dists[vids[w]] = nd
                    parents[vids[w]] = vid
                    push_len.append(len(pq))
                    heappush(pq, (nd, vids[w]))

        for v, dv in zip(gv.vs, dist):
            v.props[dslot] = dv
        if not isinstance(t, NullTracer):
            self._emit(g, t, gv, heap, site_relax, np.asarray(pop_row, I64),
                       np.asarray(pop_len, I64), np.asarray(stale, bool),
                       np.asarray(better_of, bool),
                       np.asarray(push_len, I64))
        return {"dists": dists, "parents": parents,
                "settled": settled.count(True)}

    def _emit(self, g: PropertyGraph, t, gv: GraphView, heap: TracedHeap,
              site_relax, pop_row, pop_len, stale, better, push_len) -> None:
        """Lay out the loop oracle's main loop (the prologue up to the
        root push went through the real primitives).  Per pop: the nodes
        of its sift path, the root read and the stale test; a live pop
        adds its find-vertex and the head of its neighbour walk, then per
        edge the walk step, weight read, find-vertex and distance probe, a
        better one adding the distance write and the nodes of its push's
        sift path; then the walk's exit."""
        live = np.flatnonzero(~stale)
        rows = pop_row[live]
        eidx = gv.out_edges_of(rows)
        E = len(eidx)
        edst = gv.out_dst[eidx]
        off_d = G.V_PROP_OFF + g.vschema.offset("dist")
        off_w = G.E_PROP_OFF + g.eschema.offset("weight")
        find = G.find_vertex_ops("idx", "v")
        walk = G.neighbors_ops("v", "e")
        node = heap.push_ops("slot")
        popped = heap.pop_ops("root") + (("i", 4),)
        edge = (walk.step + G.eget_ops("e", off_w) + find + (("i", 6),)
                + G.vget_ops("v", off_d) + (("br", site_relax, "better"),))

        # keys: (pop, 0 = its sift path / 1 = the rest of the pop / 2 +
        # edge / E + 2 = the walk's exit, level on a sift path or LAST)
        LAST = 64
        lay = Layout(t)
        pop = np.arange(len(pop_row), dtype=I64)
        path, level, slot = heap.path_slots(np.maximum(pop_len - 1, 0))
        lay.add(node, (path, 0, level), slot=slot)
        cols = dict(root=np.full(len(pop), heap.base),
                    idx=gv.idx_addr[pop_row], v=gv.vaddr[pop_row])
        lay.add(popped, (pop, 1), stale, **cols)
        lay.add(popped + find + walk.head, (pop, 1), ~stale, **cols)
        epop = np.repeat(live, gv.deg[rows])
        place = 2 + np.arange(E, dtype=I64)
        cols = dict(e=gv.out_eaddr[eidx], idx=gv.idx_addr[edst],
                    v=gv.vaddr[edst], better=better)
        lay.add(edge + walk.resume, (epop, place), ~better, **cols)
        lay.add(edge + G.vset_ops("v", off_d), (epop, place), better, **cols)
        path, level, slot = heap.path_slots(push_len)
        lay.add(node, (epop[better][path], place[better][path], 1 + level),
                slot=slot)
        lay.add(walk.resume, (epop, place, LAST), better)
        lay.add(walk.exit, (live, E + 2))
        lay.build().emit(g, t)

    @staticmethod
    def reference(spec, root: int = 0, weight: float = 1.0
                  ) -> dict[int, float]:
        """networkx Dijkstra distances (uniform weight ``weight``)."""
        import networkx as nx
        nxg = spec.nx()
        nx.set_edge_attributes(nxg, weight, "weight")
        return nx.single_source_dijkstra_path_length(nxg, root)
