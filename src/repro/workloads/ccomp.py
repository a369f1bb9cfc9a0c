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

from ..core import trace as T
from ..core.graph import (
    V_HEAD_OFF, V_ID_OFF, V_INREF_OFF, V_PROP_OFF, PropertyGraph,
)
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import (
    AccessBlock, GraphView, I64, first_unseen, offsets_of, ragged_arange,
)
from .base import ENTRY, NullTracer, TracedQueue, Workload


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
        """Emit the loop oracle's exact stream.  Segments, in order: one
        scan item per vertex (vertex-scan step + comp probe, seeds add the
        label write and push); after each seed, its component's pop groups
        (queue pop, out-list drain, in-list drain, then per target the
        find-vertex + comp probe, fresh ones adding label write + push);
        one scan-exit tail."""
        krid = t._cur_rid
        n, P, D = gv.n, len(pops), len(dsts)
        C = len(comp_sizes)
        od = gv.deg[pops]
        idg = gv.indeg[pops]
        cnt = od + idg
        seed_rows = np.flatnonzero(seed_mask)
        off_c = V_PROP_OFF + g.vschema.offset("comp")

        # pop position lookup (push order == pop order)
        pop_pos = np.empty(n, I64)
        pop_pos[pops] = np.arange(P, dtype=I64)

        # --- segment positions -------------------------------------------
        grp_seg = 3 + cnt                       # prologue + drains + dsts
        comp_first, _ = offsets_of(comp_sizes)
        comp_of_pop = np.repeat(np.arange(C, dtype=I64), comp_sizes)
        comp_seg = np.bincount(comp_of_pop, weights=grp_seg,
                               minlength=C).astype(I64) if P else \
            np.zeros(C, I64)
        shift = np.zeros(n + 1, I64)
        np.add.at(shift, seed_rows + 1, comp_seg)
        pos_scan = np.arange(n, dtype=I64) + np.cumsum(shift)[:n]
        g_excl, _ = offsets_of(grp_seg)
        pgb = (pos_scan[seed_rows][comp_of_pop] + 1
               + g_excl - g_excl[comp_first[comp_of_pop]])
        dst_pop = np.repeat(np.arange(P, dtype=I64), cnt)
        ld = ragged_arange(cnt)                 # target index within pop
        nseg = n + 3 * P + D + 1
        s_scan, s_prol, s_out, s_in = pos_scan, pgb, pgb + 1, pgb + 2
        s_dst = pgb[dst_pop] + 3 + ld
        s_tail = nseg - 1

        sd = seed_mask.astype(I64)
        fr = fresh.astype(I64)
        comp_last = np.zeros(P, bool)
        if P:
            comp_last[comp_first + comp_sizes - 1] = True
        # per-pop trailing +3: the next pop's dequeue charge accrues to
        # this pop group's final visit unless the component is done
        z_pop = np.where(comp_last, 0, 3)
        z_dst = np.where((ld == cnt[dst_pop] - 1) & ~comp_last[dst_pop],
                         3, 0)

        def table(scan_w, prol_w, out_w, in_w, dst_w, tail_w):
            w = np.zeros(nseg, I64)
            w[s_scan] = scan_w
            w[s_prol] = prol_w
            w[s_out] = out_w
            w[s_in] = in_w
            if D:
                w[s_dst] = dst_w
            w[s_tail] = tail_w
            return offsets_of(w)

        acc_off, n_acc = table(5 + 3 * sd, 1, 1 + 2 * od, 1 + idg,
                               5 + 3 * fr, 0)
        ins_off, n_ins = table(21 + 12 * sd, 3, 2 + 16 * od, 2 + 16 * idg,
                               25 + 12 * fr, 0)
        br_off, n_br = table(2, 0, od + 1, idg + 1, 1, 1)
        vis_off, n_vis = table(4 + 2 * sd, 0, 2 + 2 * od, 2 + 2 * idg,
                               4 + 2 * fr, 2)
        stk_off, _ = table(2 + sd, 0, od, 0, 2 + fr, 0)

        blk = AccessBlock(n_acc)
        put = blk.put

        rows = np.arange(n, dtype=I64)
        pa, pi, ps = acc_off[s_scan], ins_off[s_scan], stk_off[s_scan]
        put(pa, 0, T.R_VERTEX_SCAN, pi + 10, stk=ps + 1)
        put(pa + 1, gv.idx_addr[rows], T.R_VERTEX_SCAN, pi + 10)
        put(pa + 2, gv.vaddr + V_ID_OFF, T.R_VERTEX_SCAN, pi + 10)
        put(pa + 3, 0, T.R_PROP_GET, pi + 21, stk=ps + 2)
        put(pa + 4, gv.vaddr + off_c, T.R_PROP_GET, pi + 21)
        if C:
            sa, si, ss = pa[seed_rows], pi[seed_rows], ps[seed_rows]
            put(sa + 5, 0, T.R_PROP_SET, si + 30, stk=ss + 3)
            put(sa + 6, gv.vaddr[seed_rows] + off_c, T.R_PROP_SET,
                si + 30, wr=True)
            put(sa + 7, q.base + (pop_pos[seed_rows] % q.cap) * ENTRY,
                krid, si + 33, wr=True)
        if P:
            put(acc_off[s_prol],
                q.base + (np.arange(P, dtype=I64) % q.cap) * ENTRY,
                krid, ins_off[s_prol] + 3)
            vap = gv.vaddr[pops]
            put(acc_off[s_out], vap + V_HEAD_OFF, T.R_NEIGHBORS,
                ins_off[s_out] + 2)
            put(acc_off[s_in], vap + V_INREF_OFF, T.R_NEIGHBORS,
                ins_off[s_in] + 2)
            le_o = ragged_arange(od)
            epo = np.repeat(acc_off[s_out], od) + 1 + 2 * le_o
            eio = np.repeat(ins_off[s_out], od) + 16 * (le_o + 1) + 2
            put(epo, 0, T.R_NEIGHBORS, eio,
                stk=np.repeat(stk_off[s_out], od) + le_o + 1)
            put(epo + 1, gv.out_eaddr[gv.out_edges_of(pops)],
                T.R_NEIGHBORS, eio)
            le_i = ragged_arange(idg)
            put(np.repeat(acc_off[s_in], idg) + 1 + le_i,
                gv.vaddr[gv.in_src[gv.in_edges_of(pops)]] + V_ID_OFF,
                T.R_NEIGHBORS,
                np.repeat(ins_off[s_in], idg) + 16 * (le_i + 1) + 2)
        if D:
            da, di, ds = acc_off[s_dst], ins_off[s_dst], stk_off[s_dst]
            wad = gv.vaddr[dsts]
            put(da, 0, T.R_FIND_VERTEX, di + 14, stk=ds + 1)
            put(da + 1, gv.idx_addr[dsts], T.R_FIND_VERTEX, di + 14)
            put(da + 2, wad + V_ID_OFF, T.R_FIND_VERTEX, di + 14)
            put(da + 3, 0, T.R_PROP_GET, di + 25, stk=ds + 2)
            put(da + 4, wad + off_c, T.R_PROP_GET, di + 25)
            if fresh.any():
                fa, fi, fs = da[fresh], di[fresh], ds[fresh]
                wf = wad[fresh]
                put(fa + 5, 0, T.R_PROP_SET, fi + 34, stk=fs + 3)
                put(fa + 6, wf + off_c, T.R_PROP_SET, fi + 34, wr=True)
                put(fa + 7,
                    q.base + (pop_pos[dsts[fresh]] % q.cap) * ENTRY,
                    krid, fi + 37, wr=True)

        # --- branch stream ----------------------------------------------
        sites = np.empty(n_br, np.uint32)
        taken = np.empty(n_br, np.uint8)
        pb = br_off[s_scan]
        sites[pb], taken[pb] = T.B_VERTEX_SCAN, 1
        sites[pb + 1] = site_fresh
        taken[pb + 1] = seed_mask
        if P:
            for s_seg, deg_seg, le in ((s_out, od, le_o), (s_in, idg, le_i)):
                ep = np.repeat(br_off[s_seg], deg_seg) + le
                sites[ep], taken[ep] = T.B_EDGE_LOOP, 1
                fp = br_off[s_seg] + deg_seg
                sites[fp], taken[fp] = T.B_EDGE_LOOP, 0
        if D:
            db = br_off[s_dst]
            sites[db], taken[db] = T.B_FIND_HIT, 1
        sites[br_off[s_tail]], taken[br_off[s_tail]] = T.B_VERTEX_SCAN, 0

        # --- region visits ----------------------------------------------
        vseq = np.empty(n_vis, np.uint32)
        vcnt = np.empty(n_vis, I64)
        pv = vis_off[s_scan]
        vseq[pv], vcnt[pv] = T.R_VERTEX_SCAN, 10
        vseq[pv + 1], vcnt[pv + 1] = krid, 3
        vseq[pv + 2], vcnt[pv + 2] = T.R_PROP_GET, 8
        vseq[pv + 3], vcnt[pv + 3] = krid, 0
        if C:
            sv = pv[seed_rows]
            vseq[sv + 4], vcnt[sv + 4] = T.R_PROP_SET, 9
            vseq[sv + 5], vcnt[sv + 5] = krid, 6   # push + first dequeue
        if P:
            for s_seg, deg_seg, le in ((s_out, od, le_o), (s_in, idg, le_i)):
                base_v = vis_off[s_seg]
                vseq[base_v] = T.R_NEIGHBORS
                vcnt[base_v] = 2 + 16 * (deg_seg > 0)
                ev = np.repeat(base_v, deg_seg) + 1 + 2 * le
                vseq[ev], vcnt[ev] = krid, 0
                vseq[ev + 1] = T.R_NEIGHBORS
                vcnt[ev + 1] = np.where(le < np.repeat(deg_seg, deg_seg) - 1,
                                        16, 0)
                fin = base_v + 1 + 2 * deg_seg
                vseq[fin], vcnt[fin] = krid, 0
            # a pop with no targets: the in-drain exit takes the charge
            none_d = cnt == 0
            if none_d.any():
                fin0 = vis_off[s_in[none_d]] + 1 + 2 * idg[none_d]
                vcnt[fin0] = z_pop[none_d]
        if D:
            dv = vis_off[s_dst]
            vseq[dv], vcnt[dv] = T.R_FIND_VERTEX, 14
            vseq[dv + 1], vcnt[dv + 1] = krid, 3
            vseq[dv + 2], vcnt[dv + 2] = T.R_PROP_GET, 8
            vseq[dv + 3] = krid
            vcnt[dv + 3] = np.where(fresh, 0, z_dst)
            if fresh.any():
                fv = dv[fresh]
                vseq[fv + 4], vcnt[fv + 4] = T.R_PROP_SET, 9
                vseq[fv + 5], vcnt[fv + 5] = krid, 3 + z_dst[fresh]
        tl = vis_off[s_tail]
        vseq[tl], vcnt[tl] = T.R_VERTEX_SCAN, 0
        vseq[tl + 1], vcnt[tl + 1] = krid, 0

        Eo, Ei = int(od.sum()), int(idg.sum())
        Df = int(fresh.sum())
        blk.emit(g, t, n_instrs=n_ins,
                 fw_instrs=(18 * n + 9 * C + 4 * P
                            + 16 * (Eo + Ei) + 22 * D + 9 * Df),
                 fw_accesses=(5 * n + 2 * C + 2 * P
                              + 2 * Eo + Ei + 5 * D + 2 * Df),
                 head_instrs=0, region_seq=vseq, region_instrs=vcnt)
        t.bulk_branch_events(sites, taken)

    @staticmethod
    def reference(spec) -> int:
        """networkx number of connected components (undirected view)."""
        import networkx as nx
        import networkx.algorithms.components as comps
        und = nx.Graph(spec.nx())
        return comps.number_connected_components(und)
