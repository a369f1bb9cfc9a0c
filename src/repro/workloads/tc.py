"""TC — triangle count (topological analytics, CompStruct).

Schank's edge-iterator algorithm (the paper's stated implementation):
order vertices, keep for each vertex its sorted higher-ordered neighbours,
and merge-intersect the lists across every edge.  The merge's comparison
branch is *data-dependent* — effectively random — which is exactly why TC
shows the suite's worst branch miss rate (10.7 %, Fig. 6) and the highest
BadSpeculation share (Fig. 5), while its compare-heavy inner loop gives it
the top GPU IPC and the lowest memory throughput (Fig. 11).

The kernel reproduces every step of the two-pointer merge
(``tests/oracles.py:loop_tc``) analytically: with both lists sorted by
rank, the step sequence is the rank-merge of the two lists truncated at
the smaller maximum, each step advancing the pointer of the side holding
the smaller head (both on a match).  One global
``searchsorted`` over the per-vertex rank lists (offset by row so rows
never interleave) yields the opposing pointer for every step of every
edge at once, and the whole phase is emitted as a single bulk block.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core import graph as G
from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import (
    AccessBlock, Block, I64, Layout, adjacency_sweep, offsets_of,
    ragged_arange,
)
from .base import ENTRY, NullTracer, Workload


class TC(Workload):
    """Count triangles of the undirected simple view; returns the total
    and the per-vertex counts."""

    NAME = "TC"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.ANALYTICS
    HAS_GPU = True

    def kernel(self, g: PropertyGraph, t) -> dict[str, Any]:
        site_cmp = t.register_branch_site()
        site_loop = t.register_branch_site()
        traced = not isinstance(t, NullTracer)
        ids = sorted(g.vertex_ids())
        n = len(ids)
        ids_arr = np.asarray(ids, I64)
        degs = np.fromiter(
            (len(g._v[v].out) + len(g._v[v].inn) for v in ids),
            I64, count=n)
        # degeneracy (Schank) ordering: rank by (degree, vid) and orient
        # every edge toward the higher-ranked endpoint, so each oriented
        # list is O(sqrt(m)) and the edge iterator is subquadratic on
        # power-law graphs.  Sorted ids are already the tie-break order.
        rnk = np.empty(n, I64)
        rnk[np.argsort(degs, kind="stable")] = np.arange(n, dtype=I64)
        if traced:
            self._emit_rank_pass(g, t, ids_arr)
        t.i(6 * n)

        gv = adjacency_sweep(g, t)
        sv = np.repeat(gv.vids, gv.deg)
        dv = gv.vids[gv.out_dst]
        keep = sv != dv
        sv, dv = sv[keep], dv[keep]
        sr = rnk[np.searchsorted(ids_arr, sv)]
        dr = rnk[np.searchsorted(ids_arr, dv)]
        lo_r = np.minimum(sr, dr)
        hi_r = np.maximum(sr, dr)
        pairs = np.unique(np.stack([lo_r, hi_r], 1), axis=0) \
            if len(sv) else np.empty((0, 2), I64)
        # per-vertex higher lists (CSR over sorted-id rows, rank order)
        unrank = np.empty(n, I64)        # rank -> row
        unrank[rnk] = np.arange(n, dtype=I64)
        arow = unrank[pairs[:, 0]]
        hcnt = np.bincount(arow, minlength=n).astype(I64)
        order = np.argsort(arow, kind="stable")     # rows grouped, rank-sorted
        hrank = pairs[order, 1]
        hvid = ids_arr[unrank[hrank]]
        hptr, H = offsets_of(hcnt)

        bases = np.empty(n, I64)
        for r in range(n):
            bases[r] = g.alloc.alloc_array(max(int(hcnt[r]), 1), ENTRY,
                                           tag="tc_adj")
        if traced:
            self._emit_list_writes(g, t, bases, hcnt)

        # --- merge steps, analytically ----------------------------------
        # pair (u, vi): A = lu[vi+1:], B = lv; both rank-sorted.  Steps are
        # the rank-merge truncated at min(max A, max B); the side with the
        # smaller head advances (both on a match).
        urow = np.repeat(np.arange(n, dtype=I64), hcnt)
        vi = ragged_arange(hcnt)
        vrow = unrank[hrank]
        NP = len(urow)
        la = hcnt[urow] - vi - 1
        lb = hcnt[vrow]
        BIG = I64(n + 1)
        hkey = np.repeat(np.arange(n, dtype=I64), hcnt) * BIG + hrank
        act = (la > 0) & (lb > 0)
        a_end = np.where(act, hrank[np.minimum(hptr[urow] + hcnt[urow] - 1,
                                               max(H - 1, 0))], 0)
        b_end = np.where(act, hrank[np.minimum(hptr[vrow] + lb - 1,
                                               max(H - 1, 0))], 0)
        ka = np.zeros(NP, I64)
        kb = np.zeros(NP, I64)
        if act.any():
            ua, va = urow[act], vrow[act]
            ka[act] = np.maximum(0, np.minimum(
                la[act],
                np.searchsorted(hkey, ua * BIG + b_end[act], "right")
                - hptr[ua] - vi[act] - 1))
            kb[act] = np.minimum(
                lb[act],
                np.searchsorted(hkey, va * BIG + a_end[act], "right")
                - hptr[va])
        # A-side events: own index is the u-pointer; searchsorted gives j
        a_flat = (np.repeat(hptr[urow] + vi + 1, ka)
                  + ragged_arange(ka))
        a_pair = np.repeat(np.arange(NP, dtype=I64), ka)
        a_rank = hrank[a_flat]
        a_j = (np.searchsorted(hkey, vrow[a_pair] * BIG + a_rank, "left")
               - hptr[vrow[a_pair]])
        a_match = hrank[hptr[vrow[a_pair]] + a_j] == a_rank
        a_ifull = a_flat - hptr[urow[a_pair]]
        # B-side events (matches belong to the A side): searchsorted gives
        # the u-pointer
        b_flat = np.repeat(hptr[vrow], kb) + ragged_arange(kb)
        b_pair = np.repeat(np.arange(NP, dtype=I64), kb)
        b_rank = hrank[b_flat]
        b_ifull = (np.searchsorted(hkey, urow[b_pair] * BIG + b_rank,
                                   "left") - hptr[urow[b_pair]])
        b_keep = np.ones(len(b_flat), bool)
        inb = b_ifull < hcnt[urow[b_pair]]
        b_keep[inb] = hrank[hptr[urow[b_pair[inb]]] + b_ifull[inb]] \
            != b_rank[inb]
        b_j = (b_flat - np.repeat(hptr[vrow], kb))[b_keep]
        b_pair, b_rank = b_pair[b_keep], b_rank[b_keep]
        b_ifull = b_ifull[b_keep]

        ev_pair = np.concatenate([a_pair, b_pair])
        ev_rank = np.concatenate([a_rank, b_rank])
        ev_i = np.concatenate([a_ifull, b_ifull])
        ev_j = np.concatenate([a_j, b_j])
        ev_cmp = np.concatenate([~a_match, np.zeros(len(b_pair), bool)])
        ev_match = np.concatenate([a_match, np.zeros(len(b_pair), bool)])
        eo = np.lexsort((ev_rank, ev_pair))
        ev_pair, ev_i, ev_j = ev_pair[eo], ev_i[eo], ev_j[eo]
        ev_cmp, ev_match = ev_cmp[eo], ev_match[eo]
        steps = np.bincount(ev_pair, minlength=NP).astype(I64)

        total = int(ev_match.sum())
        mrows = np.concatenate([urow[ev_pair[ev_match]],
                                vrow[ev_pair[ev_match]],
                                unrank[ev_rank[eo][ev_match]]]) \
            if total else np.empty(0, I64)
        pv = np.bincount(mrows, minlength=n).astype(I64)
        per_vertex = dict(zip(ids, pv.tolist()))

        if traced:
            self._emit_merge(g, t, site_cmp, site_loop, bases, urow, vrow, vi,
                             steps, ev_pair, ev_i, ev_j, ev_cmp)
        return {"triangles": total, "per_vertex": per_vertex}

    def _emit_rank_pass(self, g: PropertyGraph, t, ids_arr) -> None:
        """Two find-vertex probes per vertex in sorted-id order (the
        degree reads of the ranking pass)."""
        n = len(ids_arr)
        find = G.find_vertex_ops("idx", "v")
        lay = Layout(t)
        lay.add(find + find, (np.arange(n),),
                idx=g._index_base + G.INDEX_ENTRY * (ids_arr % g._index_cap),
                v=np.fromiter((g._v[int(v)].addr for v in ids_arr), I64,
                              count=n))
        lay.build().emit(g, t)

    def _emit_list_writes(self, g, t, bases, hcnt) -> None:
        """Oriented-list materialization: two instructions + one write per
        slot, in sorted-id order."""
        lay = Layout(t)
        lay.add((("i", 2), ("w", "slot", 0)), (np.arange(int(hcnt.sum())),),
                slot=np.repeat(bases, hcnt) + ragged_arange(hcnt) * ENTRY)
        lay.build().emit(g, t)

    def _emit_merge(self, g, t, site_cmp, site_loop, bases, urow, vrow, vi,
                    steps, ev_pair, ev_i, ev_j, ev_cmp) -> None:
        """The edge-iterator phase: per pair one list read + per merge
        step two reads and three branches, ending with the loop exit.
        Hand-laid (``_bulk``'s docstring says why): user code only, so
        there is no primitive, transition or stack touch to derive."""
        ins_st, n_ins = offsets_of(3 + 4 * steps)
        acc_st, n_acc = offsets_of(1 + 2 * steps)
        acc = AccessBlock(n_acc)
        acc.addr[acc_st] = bases[urow] + vi * ENTRY
        acc.iat[acc_st] = ins_st
        ls = ragged_arange(steps)
        sp = acc_st[ev_pair] + 1 + 2 * ls
        acc.addr[sp] = bases[urow[ev_pair]] + ev_i * ENTRY
        acc.addr[sp + 1] = bases[vrow[ev_pair]] + ev_j * ENTRY
        acc.iat[sp] = acc.iat[sp + 1] = ins_st[ev_pair] + 3 + 4 * (ls + 1)
        br_st, n_br = offsets_of(3 * steps + 1)
        sites = np.empty(n_br, np.uint32)
        taken = np.empty(n_br, np.uint8)
        bp = br_st[ev_pair] + 3 * ls
        sites[bp] = sites[bp + 1] = site_loop
        taken[bp] = taken[bp + 1] = 1
        sites[bp + 2] = site_cmp
        taken[bp + 2] = ev_cmp
        sites[br_st + 3 * steps] = site_loop
        taken[br_st + 3 * steps] = 0
        Block.in_place(t, acc, sites, taken, n_ins).emit(g, t)
