"""CComp — connected components (topological analytics, CompStruct).

The paper implements the CPU side "with BFS traversals" (Section 4.2):
repeatedly seed a BFS from every unlabelled vertex over the undirected
view, labelling the ``comp`` property.  Scanning all vertices plus
traversing every edge with no single hot frontier is what drives CComp's
very high L3 MPKI (101.3) and DTLB penalty (21.1 %) in Figs. 6–7.
(The GPU side uses Soman's algorithm — see ``repro.gpu.kernels.ccomp``.)

The kernel runs the seeded traversals on a numpy CSR snapshot and emits
the event stream of the per-vertex loop (``tests/oracles.py:loop_ccomp``)
through the bulk-trace API.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core import graph as G
from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import (
    GraphView, I64, Layout, first_unseen, offsets_of, ragged_arange,
)
from .base import NullTracer, TracedQueue, Workload


class CComp(Workload):
    """Connected-component label per vertex (undirected view), in the
    ``comp`` property; labels are the smallest vertex id per component."""

    NAME = "CComp"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.ANALYTICS
    HAS_GPU = True

    def kernel(self, g: PropertyGraph, t, **_: Any) -> dict[str, Any]:
        site_fresh = t.register_branch_site()
        q = TracedQueue(g, t)
        gv = GraphView(g)
        n = gv.n

        # seeded-BFS simulation over the undirected view.  Pops of one
        # component are contiguous; per pop the target stream is its
        # out-list then its in-list; queue FIFO order makes global push
        # order == global pop order.
        seen = np.zeros(n, bool)
        label = np.full(n, -1, I64)
        seed_mask = np.zeros(n, bool)
        pop_parts, dst_parts, fresh_parts = [], [], []
        comp_sizes: list[int] = []
        for row in range(n):
            if seen[row]:
                continue
            seed_mask[row] = True
            seen[row] = True
            label[row] = gv.vids[row]
            frontier = np.asarray([row], I64)
            csize = 0
            while len(frontier):
                pop_parts.append(frontier)
                csize += len(frontier)
                od, idg = gv.deg[frontier], gv.indeg[frontier]
                cnt = od + idg
                starts, tot = offsets_of(cnt)
                dsts = np.empty(tot, I64)
                opos = ragged_arange(od) + np.repeat(starts, od)
                dsts[opos] = gv.out_dst[gv.out_edges_of(frontier)]
                ipos = ragged_arange(idg) + np.repeat(starts + od, idg)
                dsts[ipos] = gv.in_src[gv.in_edges_of(frontier)]
                fresh = first_unseen(seen, dsts)
                new_rows = dsts[fresh]
                seen[new_rows] = True
                label[new_rows] = gv.vids[row]
                dst_parts.append(dsts)
                fresh_parts.append(fresh)
                frontier = new_rows
            comp_sizes.append(csize)

        pops = (np.concatenate(pop_parts) if pop_parts
                else np.empty(0, I64))
        dsts = (np.concatenate(dst_parts) if dst_parts
                else np.empty(0, I64))
        fresh = (np.concatenate(fresh_parts) if fresh_parts
                 else np.empty(0, bool))

        cslot = g.vschema.slot("comp")
        for r, lab in zip(range(n), label.tolist()):
            gv.vs[r].props[cslot] = lab
        comp = dict(zip(gv.vids.tolist(), label.tolist()))

        if not isinstance(t, NullTracer):
            self._emit(g, t, gv, q, pops, dsts, fresh, seed_mask,
                       np.asarray(comp_sizes, I64), site_fresh)
        return {"comp": comp, "n_components": len(comp_sizes)}

    def _emit(self, g: PropertyGraph, t, gv: GraphView, q: TracedQueue,
              pops, dsts, fresh, seed_mask, comp_sizes, site_fresh) -> None:
        """Lay out the loop oracle's stream.  The vertex scan visits every
        row (scan step + comp probe, a seed adding its label write and
        push); between a seed's visit and the scan's resumption come its
        component's pop groups: queue pop, out-list drain, in-list drain,
        then per target the find-vertex and comp probe, a fresh one adding
        label write and push."""
        n, P, D = gv.n, len(pops), len(dsts)
        od, idg = gv.deg[pops], gv.indeg[pops]
        off_c = G.V_PROP_OFF + g.vschema.offset("comp")
        push_ord = np.empty(n, I64)             # push order == pop order
        push_ord[pops] = np.arange(P, dtype=I64)
        scan = G.vertices_ops("idx", "v")
        out, inn = G.neighbors_ops("v", "e"), G.in_neighbors_ops("v", "u")
        probe = G.vget_ops("v", off_c)
        label = G.vset_ops("v", off_c) + q.push_ops("slot")

        # keys: (scan row, 0 = the visit / 1 + pop = a pop group of the
        # component seeded here / P + 1 = the scan resumes, place in group)
        lay = Layout(t)
        lay.add(scan.head, (-1,))
        row = np.arange(n, dtype=I64)
        visit = scan.step + (("i", 3),) + probe + (("br", site_fresh, "seed"),)
        cols = dict(idx=gv.idx_addr, v=gv.vaddr, seed=seed_mask,
                    slot=q.slots(push_ord))
        lay.add(visit, (row, 0), ~seed_mask, **cols)
        lay.add(visit + label, (row, 0), seed_mask, **cols)
        lay.add(scan.resume, (row, P + 1))
        lay.add(scan.exit, (n,))

        pop = np.arange(P, dtype=I64)
        seed_row = np.repeat(np.flatnonzero(seed_mask), comp_sizes)
        vp = gv.vaddr[pops]
        lay.add(q.pop_ops("slot") + out.head, (seed_row, 1 + pop, 0),
                slot=q.slots(pop), v=vp)
        po = np.repeat(pop, od)
        lay.add(out.step + out.resume, (seed_row[po], 1 + po, 1),
                e=gv.out_eaddr[gv.out_edges_of(pops)])
        lay.add(out.exit + inn.head, (seed_row, 1 + pop, 2), v=vp)
        pi = np.repeat(pop, idg)
        lay.add(inn.step + inn.resume, (seed_row[pi], 1 + pi, 3),
                u=gv.vaddr[gv.in_src[gv.in_edges_of(pops)]])
        lay.add(inn.exit, (seed_row, 1 + pop, 4))
        pd = np.repeat(pop, od + idg)
        target = G.find_vertex_ops("idx", "v") + (("i", 3),) + probe
        key = (seed_row[pd], 1 + pd, 5 + np.arange(D, dtype=I64))
        cols = dict(idx=gv.idx_addr[dsts], v=gv.vaddr[dsts],
                    slot=q.slots(push_ord[dsts]))
        lay.add(target, key, ~fresh, **cols)
        lay.add(target + label, key, fresh, **cols)
        lay.build().emit(g, t)

    @staticmethod
    def reference(spec) -> int:
        """networkx number of connected components (undirected view)."""
        import networkx as nx
        import networkx.algorithms.components as comps
        und = nx.Graph(spec.nx())
        return comps.number_connected_components(und)
