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

from ..core import trace as T
from ..core.graph import V_HEAD_OFF, V_ID_OFF, V_PROP_OFF, PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import (
    AccessBlock, GraphView, I64, first_unseen, offsets_of, ragged_arange,
)
from .base import ENTRY, NullTracer, TracedQueue, Workload


class BFS(Workload):
    """Breadth-first search from ``root``; labels ``level`` and ``parent``
    vertex properties and returns them."""

    NAME = "BFS"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.TRAVERSAL
    HAS_GPU = True

    def kernel(self, g: PropertyGraph, t, *, root: int = 0,
               **_: Any) -> dict[str, Any]:
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
        """Emit the loop oracle's exact event stream for the main loop
        (the prologue up to the root push went through the real
        primitives).  Per popped vertex: pop + level read + neighbour-walk
        prologue (4 accesses / 13 instrs), then per edge the walk step,
        find-vertex, level probe (7 accesses / 42 instrs) plus, on an
        unvisited target, two property writes and the frontier push
        (5 accesses / 21 instrs more)."""
        krid = t._cur_rid
        pv = len(pops)
        E = len(eidx)
        d_pop = gv.deg[pops]
        edst = gv.out_dst[eidx] if E else np.empty(0, I64)
        off_l = V_PROP_OFF + g.vschema.offset("level")
        off_p = V_PROP_OFF + g.vschema.offset("parent")

        cde, _ = offsets_of(d_pop)              # edges before each pop
        v_item = np.arange(pv, dtype=I64) + cde
        e_item = e_src_pos + 1 + np.arange(E, dtype=I64)
        nb = pv + E
        acc_len = np.empty(nb, I64)
        acc_len[v_item] = 4
        acc_len[e_item] = np.where(unvis, 12, 7)
        ins_len = np.empty(nb, I64)
        ins_len[v_item] = 13
        ins_len[e_item] = np.where(unvis, 63, 42)
        stk_len = np.empty(nb, I64)
        stk_len[v_item] = 1
        stk_len[e_item] = np.where(unvis, 5, 3)
        acc_off, n_acc = offsets_of(acc_len)
        ins_off, n_ins = offsets_of(ins_len)
        stk_off, _ = offsets_of(stk_len)

        blk = AccessBlock(n_acc)
        put = blk.put

        # popped-vertex prologue: queue pop, level vget, neighbour head
        pvp = acc_off[v_item]
        ivp = ins_off[v_item]
        svp = stk_off[v_item]
        vaddr_p = gv.vaddr[pops]
        put(pvp, q.base + (np.arange(pv, dtype=I64) % q.cap) * ENTRY,
            krid, ivp + 3)
        put(pvp + 1, 0, T.R_PROP_GET, ivp + 11, stk=svp + 1)
        put(pvp + 2, vaddr_p + off_l, T.R_PROP_GET, ivp + 11)
        put(pvp + 3, vaddr_p + V_HEAD_OFF, T.R_NEIGHBORS, ivp + 13)

        if E:
            pe = acc_off[e_item]
            ie = ins_off[e_item]
            se = stk_off[e_item]
            waddr = gv.vaddr[edst]
            put(pe, 0, T.R_NEIGHBORS, ie + 16, stk=se + 1)
            put(pe + 1, gv.out_eaddr[eidx], T.R_NEIGHBORS, ie + 16)
            put(pe + 2, 0, T.R_FIND_VERTEX, ie + 30, stk=se + 2)
            put(pe + 3, gv.idx_addr[edst], T.R_FIND_VERTEX, ie + 30)
            put(pe + 4, waddr + V_ID_OFF, T.R_FIND_VERTEX, ie + 30)
            put(pe + 5, 0, T.R_PROP_GET, ie + 42, stk=se + 3)
            put(pe + 6, waddr + off_l, T.R_PROP_GET, ie + 42)
            if unvis.any():
                u = unvis
                pu, iu, su, wu = pe[u], ie[u], se[u], waddr[u]
                put(pu + 7, 0, T.R_PROP_SET, iu + 51, stk=su + 4)
                put(pu + 8, wu + off_l, T.R_PROP_SET, iu + 51, wr=True)
                put(pu + 9, 0, T.R_PROP_SET, iu + 60, stk=su + 5)
                put(pu + 10, wu + off_p, T.R_PROP_SET, iu + 60, wr=True)
                tail = 1 + np.arange(int(u.sum()), dtype=I64)  # root at 0
                put(pu + 11, q.base + (tail % q.cap) * ENTRY, krid,
                    iu + 63, wr=True)

        # branch stream: per edge [more-edges, find-hit, visited?], then
        # one not-taken loop exit per popped vertex
        ebi = e_src_pos + np.arange(E, dtype=I64)
        tbi = cde + d_pop + np.arange(pv, dtype=I64)
        bl = np.empty(nb, I64)
        bl[ebi] = 3
        bl[tbi] = 1
        boff, n_br = offsets_of(bl)
        sites = np.empty(n_br, np.uint32)
        taken = np.empty(n_br, np.uint8)
        pb = boff[ebi]
        sites[pb] = T.B_EDGE_LOOP
        taken[pb] = 1
        sites[pb + 1] = T.B_FIND_HIT
        taken[pb + 1] = 1
        sites[pb + 2] = site_visited
        taken[pb + 2] = unvis
        pt = boff[tbi]
        sites[pt] = T.B_EDGE_LOOP
        taken[pt] = 0

        # region visits: prologue (3), per edge (6 / 10), vertex tail (1)
        vv_item = 2 * np.arange(pv, dtype=I64) + cde
        le = ragged_arange(d_pop)
        ev_item = 2 * e_src_pos + cde[e_src_pos] + 1 + le
        tv_item = vv_item + 1 + d_pop
        vl = np.empty(nb + pv, I64)
        vl[vv_item] = 3
        vl[ev_item] = np.where(unvis, 10, 6)
        vl[tv_item] = 1
        voff, n_vis = offsets_of(vl)
        vseq = np.empty(n_vis, np.uint32)
        vcnt = np.empty(n_vis, I64)
        pvv = voff[vv_item]
        vseq[pvv], vcnt[pvv] = T.R_PROP_GET, 8
        vseq[pvv + 1], vcnt[pvv + 1] = krid, 0
        vseq[pvv + 2] = T.R_NEIGHBORS
        vcnt[pvv + 2] = 2 + 16 * (d_pop > 0)
        if E:
            pev = voff[ev_item]
            not_last = le < d_pop[e_src_pos] - 1
            for k, (r_, c_) in enumerate([(krid, 0), (T.R_FIND_VERTEX, 14),
                                          (krid, 4), (T.R_PROP_GET, 8),
                                          (krid, 0)]):
                vseq[pev + k], vcnt[pev + k] = r_, c_
            tail_nb = np.where(not_last, 16, 0)
            vseq[pev + 5] = np.where(unvis, T.R_PROP_SET, T.R_NEIGHBORS)
            vcnt[pev + 5] = np.where(unvis, 9, tail_nb)
            if unvis.any():
                pu = pev[unvis]
                vseq[pu + 6], vcnt[pu + 6] = krid, 0
                vseq[pu + 7], vcnt[pu + 7] = T.R_PROP_SET, 9
                vseq[pu + 8], vcnt[pu + 8] = krid, 3
                vseq[pu + 9] = T.R_NEIGHBORS
                vcnt[pu + 9] = tail_nb[unvis]
        ptv = voff[tv_item]
        vseq[ptv] = krid
        vcnt[ptv] = 3
        vcnt[ptv[-1]] = 0                       # last pop: queue is empty

        Eu = int(unvis.sum())
        blk.emit(g, t, n_instrs=n_ins,
                 fw_instrs=10 * pv + 38 * (E - Eu) + 56 * Eu,
                 fw_accesses=3 * pv + 7 * (E - Eu) + 11 * Eu,
                 head_instrs=3, region_seq=vseq, region_instrs=vcnt)
        t.bulk_branch_events(sites, taken)

    @staticmethod
    def reference(spec, root: int = 0) -> dict[int, int]:
        """networkx ground-truth levels for a :class:`GraphSpec`."""
        import networkx as nx
        return nx.single_source_shortest_path_length(spec.nx(), root)
