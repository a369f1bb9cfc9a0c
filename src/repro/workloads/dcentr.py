"""DCentr — degree centrality (social analysis, CompStruct).

Streams over every vertex struct reading its degree fields and writing the
centrality property: almost no metadata reuse, so nearly every struct read
misses — the suite's highest L3 MPKI (145.9) and an L1D hit-rate outlier
(Fig. 9's "only limited amount of meta data accesses" note).  The GPU
variant accumulates in-degrees with atomics, making DCentr the extreme
corner of Fig. 10's divergence space.

Nothing the loop does depends on traced state, so the kernel counts
in-degrees with one ``bincount`` over a numpy CSR snapshot and emits,
through the tracer's bulk API, the event stream of the two vertex scans
over the traced primitives (``tests/oracles.py:loop_dcentr``) — same
addresses, rw flags, instruction indices, branch outcomes and region
visits, element for element.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core import graph as G
from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import GraphView, I64, Layout
from .base import NullTracer, Workload


class DCentr(Workload):
    """Degree centrality (in + out degree) written to the ``dc`` property."""

    NAME = "DCentr"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.SOCIAL
    HAS_GPU = True

    def kernel(self, g: PropertyGraph, t) -> dict[str, Any]:
        gv = GraphView(g)
        n = gv.n
        # one bump of the target's counter per stored arc, then in + out
        indeg = np.bincount(gv.out_dst, minlength=n)
        scores = (gv.deg + indeg).astype(np.float64).tolist()
        slot = g.vschema.slot("dc")
        for v, score in zip(gv.vs, scores):
            v.props[slot] = score
        if not isinstance(t, NullTracer):
            self._emit(g, t, gv)
        return {"dc": dict(zip(gv.vids.tolist(), scores))}

    def _emit(self, g: PropertyGraph, t, gv: GraphView) -> None:
        """Lay out the loop oracle's two vertex scans.  Pass 1, per
        vertex: the scan step, its degree read and the head of its
        out-walk; per edge the walk step, the target's find-vertex and the
        read-modify-write of its counter; then the walk's exit.  Pass 2,
        per vertex: the scan step, the degree read and the score write."""
        n, m = gv.n, len(gv.out_dst)
        off = G.V_PROP_OFF + g.vschema.offset("dc")
        scan = G.vertices_ops("idx", "v")
        walk = G.neighbors_ops("v", "e")
        row = np.arange(n, dtype=I64)
        both = np.arange(2, dtype=I64)
        cols = dict(idx=gv.idx_addr, v=gv.vaddr)
        # keys: (pass, row, place)
        lay = Layout(t)
        lay.add(scan.head, (both, -1))
        lay.add(scan.step + (("i", 2),) + G.degree_ops("v") + walk.head,
                (0, row, 0), **cols)
        lay.add(walk.step + G.find_vertex_ops("idx", "v") + (("i", 3),)
                + G.vget_ops("v", off) + G.vset_ops("v", off) + walk.resume,
                (0, np.repeat(row, gv.deg), 1 + np.arange(m, dtype=I64)),
                e=gv.out_eaddr, idx=gv.idx_addr[gv.out_dst],
                v=gv.vaddr[gv.out_dst])
        lay.add(walk.exit + scan.resume, (0, row, m + 1))
        lay.add(scan.step + (("i", 4),) + G.degree_ops("v")
                + G.vset_ops("v", off) + scan.resume, (1, row, 0), **cols)
        lay.add(scan.exit, (both, n))
        lay.build().emit(g, t)
