"""kCore — k-core decomposition (topological analytics, CompStruct).

Matula & Beck's smallest-last peeling (the paper's stated algorithm):
repeatedly remove the minimum-degree vertex using O(1) bucket updates; the
removal order yields every vertex's core number.  The degree-bucket arrays
are hot, but each peel walks the victim's scattered neighbour lists — the
long dependent-load chains that give kCore its >90 % backend-stall share
(Fig. 5).

The kernel runs the peeling untraced while recording the per-peel event
shape, then emits the whole bucket/peel stream in one
:meth:`Tracer.bulk_emit` block; the adjacency snapshot phase is the block
``_bulk.adjacency_sweep`` lays.  The peel order, bucket probes and
neighbour-set iteration orders are those of the traced loop
(``tests/oracles.py:loop_kcore``), so the trace is per-element identical.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core import graph as G
from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import I64, Layout, adjacency_sweep, ragged_arange
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
        # undirected adjacency snapshot; the sets fill in the sweep's order
        gv = adjacency_sweep(g, t)
        for src, dst in zip(np.repeat(gv.vids, gv.deg).tolist(),
                            gv.vids[gv.out_dst].tolist()):
            adj[src].add(dst)
            adj[dst].add(src)
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
        peel_len: list[int] = []
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
            length = 0
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
            peel_len.append(length)

        cslot = g.vschema.slot("core")
        for vid, kk in core.items():
            g._v[vid].props[cslot] = kk

        if n and not isinstance(t, NullTracer):
            self._emit(g, t, ids, deg0, bucket_base, pos_base, site_shift,
                       np.asarray(probes, I64), np.asarray(shift_taken),
                       np.asarray(peel_vid, I64), np.asarray(peel_len, I64),
                       np.asarray(u_all, I64), np.asarray(u_live, bool),
                       np.asarray(u_du, I64))
        return {"core": core, "max_core": k}

    def _emit(self, g: PropertyGraph, t, ids, deg0, bucket_base, pos_base,
              site_shift, probes, shift_taken, peel_vid, peel_len, u_all,
              u_live, u_du) -> None:
        """Lay out the bucket-init and peel phases as one block.  Per
        peel: the empty-bucket probes, the shift test and the victim's
        bucket write, its find-vertex and core write, then per neighbour
        the bookkeeping charge, a *live* one adding the two bucket-array
        writes, a find-vertex and the struct readback."""
        n, P = len(ids), len(probes)
        ids_arr = np.asarray(ids, I64)
        vaddr = np.fromiter((g._v[v].addr for v in ids), I64, count=n)
        idx = g._index_base + G.INDEX_ENTRY * (ids_arr % g._index_cap)
        find = G.find_vertex_ops("idx", "v")
        lay = Layout(t)
        lay.add((("i", 2), ("w", "bkt", 0)), (np.full(n, -1),),
                bkt=bucket_base + np.asarray(deg0, I64) * ENTRY)
        peel = np.arange(P, dtype=I64)
        lay.add((("i", 2), ("r", "bkt", 0)), (np.repeat(peel, probes), 0),
                bkt=bucket_base + ragged_arange(probes) * ENTRY)
        victim = np.searchsorted(ids_arr, peel_vid)
        lay.add((("br", site_shift, "shift"), ("i", 4), ("w", "bkt", 0))
                + find
                + G.vset_ops("v", G.V_PROP_OFF + g.vschema.offset("core")),
                (peel, 1), shift=shift_taken,
                bkt=bucket_base + probes * ENTRY, idx=idx[victim],
                v=vaddr[victim])
        key = (np.repeat(peel, peel_len), 2 + np.arange(len(u_all)))
        touch = (("i", 5),)
        lay.add(touch, key, ~u_live)
        nbr = np.searchsorted(ids_arr, u_all)
        lay.add(touch + (("w", "bkt", 0), ("w", "pos", 0)) + find
                + (("r", "v", G.V_DEG_OFF),), key, u_live,
                bkt=bucket_base + u_du * ENTRY,
                pos=pos_base + (u_all % (n + 1)) * ENTRY,
                idx=idx[nbr], v=vaddr[nbr])
        lay.build().emit(g, t)

    @staticmethod
    def reference(spec) -> dict[int, int]:
        """networkx core numbers on the undirected simple view."""
        import networkx as nx
        und = nx.Graph(spec.nx())
        und.remove_edges_from(nx.selfloop_edges(und))
        return nx.core_number(und)
