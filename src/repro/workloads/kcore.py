"""kCore — k-core decomposition (topological analytics, CompStruct).

Matula & Beck's smallest-last peeling (the paper's stated algorithm):
repeatedly remove the minimum-degree vertex using O(1) bucket updates; the
removal order yields every vertex's core number.  The degree-bucket arrays
are hot, but each peel walks the victim's scattered neighbour lists — the
long dependent-load chains that give kCore its >90 % backend-stall share
(Fig. 5).

The kernel runs the peeling untraced while recording the per-peel event
shape, then emits the whole bucket/peel stream in one
:meth:`Tracer.bulk_emit` block; the adjacency snapshot phase goes through
the block scan primitives.  The peel order, bucket probes and
neighbour-set iteration orders are those of the traced loop
(``tests/oracles.py:loop_kcore``), so the trace is per-element identical.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core import trace as T
from ..core.graph import V_PROP_OFF, PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import AccessBlock, I64, offsets_of, ragged_arange
from .base import ENTRY, NullTracer, Workload


class KCore(Workload):
    """Core number per vertex (undirected view: out- plus in-neighbours),
    written to the ``core`` property."""

    NAME = "kCore"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.ANALYTICS
    HAS_GPU = True

    def kernel(self, g: PropertyGraph, t, **_: Any) -> dict[str, Any]:
        site_shift = t.register_branch_site()
        ids = sorted(g.vertex_ids())
        n = len(ids)
        adj: dict[int, set[int]] = {vid: set() for vid in ids}
        # undirected adjacency snapshot via the block scan primitives; the
        # per-target bookkeeping charge is batched into one i() call
        for v in g.scan_vertices():
            dsts = g.neighbor_ids(v)
            t.i(2 * len(dsts))
            avid = adj[v.vid]
            for dst in dsts:
                avid.add(dst)
                adj[dst].add(v.vid)
        degree = {vid: len(adj[vid]) for vid in ids}
        maxdeg = max(degree.values(), default=0)
        bucket_base = g.alloc.alloc_array(maxdeg + 1, ENTRY, tag="kcore_bkt")
        pos_base = g.alloc.alloc_array(n + 1, ENTRY, tag="kcore_pos")
        buckets: list[set[int]] = [set() for _ in range(maxdeg + 1)]
        deg0 = [degree[vid] for vid in ids]
        for vid in ids:
            buckets[degree[vid]].add(vid)
        core: dict[int, int] = {}
        k = 0
        removed: set[int] = set()
        # untraced Matula-Beck peel with per-event recording (the bucket
        # mutations and adj-set iteration orders are the loop oracle's)
        probes: list[int] = []
        shift_taken: list[bool] = []
        peel_vid: list[int] = []
        peel_k: list[int] = []
        peel_len: list[int] = []
        peel_nlive: list[int] = []
        u_all: list[int] = []
        u_live: list[bool] = []
        u_du: list[int] = []
        for _ in range(n):
            d = 0
            while not buckets[d]:
                d += 1
            probes.append(d)
            shift_taken.append(d > k)
            k = max(k, d)
            vid = min(buckets[d])
            buckets[d].discard(vid)
            core[vid] = k
            removed.add(vid)
            peel_vid.append(vid)
            peel_k.append(k)
            length = nl = 0
            for u in adj[vid]:
                length += 1
                u_all.append(u)
                if u in removed:
                    u_live.append(False)
                    u_du.append(0)
                    continue
                du = degree[u]
                buckets[du].discard(u)
                degree[u] = du - 1
                buckets[du - 1].add(u)
                u_live.append(True)
                u_du.append(du)
                nl += 1
            peel_len.append(length)
            peel_nlive.append(nl)

        cslot = g.vschema.slot("core")
        for vid, kk in core.items():
            g._v[vid].props[cslot] = kk

        if n and not isinstance(t, NullTracer):
            self._emit(g, t, ids, deg0, bucket_base, pos_base, site_shift,
                       np.asarray(probes, I64), np.asarray(shift_taken),
                       np.asarray(peel_vid, I64), np.asarray(peel_len, I64),
                       np.asarray(peel_nlive, I64), np.asarray(u_all, I64),
                       np.asarray(u_live, bool), np.asarray(u_du, I64))
        return {"core": core, "max_core": k}

    def _emit(self, g: PropertyGraph, t, ids, deg0, bucket_base, pos_base,
              site_shift, probes, shift_taken, peel_vid, peel_len,
              peel_nlive, u_all, u_live, u_du) -> None:
        """Emit the bucket-init and peel phases as one block.  Per peel:
        the empty-bucket probes, the victim's bucket write, its
        find-vertex and core write, then per *live* neighbour the two
        bucket-array writes, a find-vertex and the struct readback; stale
        neighbours only accrue instructions."""
        krid = t._cur_rid
        n, P, NLtot = len(ids), len(probes), int(u_live.sum())
        off_core = V_PROP_OFF + g.vschema.offset("core")
        ids_arr = np.asarray(ids, I64)
        vaddr_s = np.fromiter((g._v[v].addr for v in ids), I64, count=n)
        idx_s = (g._index_base
                 + 8 * (ids_arr % g._index_cap))

        def look(tbl, vids):
            return tbl[np.searchsorted(ids_arr, vids)]

        p = probes
        L, nl = peel_len, peel_nlive
        peel_of_u = np.repeat(np.arange(P, dtype=I64), L)
        j_u = ragged_arange(L)
        lb = np.zeros(len(u_all), I64)                # lives before, in peel
        if len(u_all):
            lb_g, _ = offsets_of(u_live.astype(I64))
            first_u, _ = offsets_of(L)
            lb = lb_g - lb_g[first_u][peel_of_u]

        # next peel's probe+dequeue charge accrues to this peel's last visit
        tail = np.zeros(P, I64)
        if P > 1:
            tail[:-1] = 2 * p[1:] + 4

        # --- instruction layout (absolute within the block) --------------
        ins_w = 2 * p + 27 + 5 * L + 14 * nl
        ins_st, n_ins = offsets_of(ins_w)
        ins_st = ins_st + 2 * n                        # after bucket init
        n_ins += 2 * n
        u_ins = (ins_st[peel_of_u] + 2 * p[peel_of_u] + 27
                 + 5 * j_u + 14 * lb)

        # --- access stream ----------------------------------------------
        acc_w = p + 6 + 6 * nl
        acc_st, n_acc = offsets_of(acc_w)
        acc_st = acc_st + n
        n_acc += n
        blk = AccessBlock(n_acc)
        put = blk.put

        # bucket init (sorted id order)
        bj = np.arange(n, dtype=I64)
        put(bj, bucket_base + np.asarray(deg0, I64) * ENTRY, krid,
            2 * (bj + 1), wr=True)
        # probes
        pp = np.repeat(acc_st, p) + ragged_arange(p)
        jp = ragged_arange(p)
        put(pp, bucket_base + jp * ENTRY, krid,
            np.repeat(ins_st, p) + 2 * (jp + 1))
        # victim dequeue + find + core write
        stk_st, _ = offsets_of(2 + nl)
        va = look(vaddr_s, peel_vid)
        hb = ins_st + 2 * p
        put(acc_st + p, bucket_base + probes * ENTRY, krid, hb + 4, wr=True)
        put(acc_st + p + 1, 0, T.R_FIND_VERTEX, hb + 18, stk=stk_st + 1)
        put(acc_st + p + 2, look(idx_s, peel_vid), T.R_FIND_VERTEX, hb + 18)
        put(acc_st + p + 3, va, T.R_FIND_VERTEX, hb + 18)
        put(acc_st + p + 4, 0, T.R_PROP_SET, hb + 27, stk=stk_st + 2)
        put(acc_st + p + 5, va + off_core, T.R_PROP_SET, hb + 27, wr=True)
        # live neighbours
        if NLtot:
            lm = u_live
            ua = acc_st[peel_of_u[lm]] + p[peel_of_u[lm]] + 6 + 6 * lb[lm]
            ui = u_ins[lm]
            uv = look(vaddr_s, u_all[lm])
            put(ua, bucket_base + u_du[lm] * ENTRY, krid, ui + 5, wr=True)
            put(ua + 1, pos_base + (u_all[lm] % (n + 1)) * ENTRY, krid,
                ui + 5, wr=True)
            put(ua + 2, 0, T.R_FIND_VERTEX, ui + 19,
                stk=stk_st[peel_of_u[lm]] + 3 + lb[lm])
            put(ua + 3, look(idx_s, u_all[lm]), T.R_FIND_VERTEX, ui + 19)
            put(ua + 4, uv, T.R_FIND_VERTEX, ui + 19)
            put(ua + 5, uv + 8, krid, ui + 19)

        # --- branches: shift test + victim find + live-neighbour finds ---
        br_st, n_br = offsets_of(2 + nl)
        sites = np.empty(n_br, np.uint32)
        taken = np.empty(n_br, np.uint8)
        sites[br_st], taken[br_st] = site_shift, shift_taken
        sites[br_st + 1], taken[br_st + 1] = T.B_FIND_HIT, 1
        if NLtot:
            ub = br_st[peel_of_u[u_live]] + 2 + lb[u_live]
            sites[ub], taken[ub] = T.B_FIND_HIT, 1

        # --- region visits -----------------------------------------------
        vis_st, n_vis = offsets_of(4 + 2 * nl)
        vseq = np.empty(n_vis, np.uint32)
        vcnt = np.empty(n_vis, I64)
        vseq[vis_st], vcnt[vis_st] = T.R_FIND_VERTEX, 14
        vseq[vis_st + 1], vcnt[vis_st + 1] = krid, 0
        vseq[vis_st + 2], vcnt[vis_st + 2] = T.R_PROP_SET, 9
        vseq[vis_st + 3] = krid
        vcnt[vis_st + 3] = 5 * L + tail                # no-live default
        if NLtot:
            liv_peel = peel_of_u[u_live]
            liv_j = j_u[u_live]
            firstm = np.ones(NLtot, bool)
            firstm[1:] = liv_peel[1:] != liv_peel[:-1]
            lastm = np.ones(NLtot, bool)
            lastm[:-1] = firstm[1:]
            vcnt[vis_st[liv_peel[firstm]] + 3] = 5 * (liv_j[firstm] + 1)
            uvp = vis_st[liv_peel] + 4 + 2 * lb[u_live]
            vseq[uvp], vcnt[uvp] = T.R_FIND_VERTEX, 14
            vseq[uvp + 1] = krid
            gap = np.zeros(NLtot, I64)
            gap[:-1] = 5 * (liv_j[1:] - liv_j[:-1])
            gap[lastm] = (5 * (L[liv_peel[lastm]] - 1 - liv_j[lastm])
                          + tail[liv_peel[lastm]])
            vcnt[uvp + 1] = gap

        blk.emit(g, t, n_instrs=int(n_ins),
                 fw_instrs=23 * P + 14 * NLtot,
                 fw_accesses=5 * P + 3 * NLtot,
                 head_instrs=2 * n + 2 * int(p[0]) + 4,
                 region_seq=vseq, region_instrs=vcnt)
        t.bulk_branch_events(sites, taken)

    @staticmethod
    def reference(spec) -> dict[int, int]:
        """networkx core numbers on the undirected simple view."""
        import networkx as nx
        und = nx.Graph(spec.nx())
        und.remove_edges_from(nx.selfloop_edges(und))
        return nx.core_number(und)
