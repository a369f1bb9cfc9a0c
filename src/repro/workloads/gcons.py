"""GCons — graph construction (CompDyn).

"Constructs a directed graph with a given number of vertices and edges"
(Section 4.2).  The kernel *is* the framework's add-vertex/add-edge path:
write-heavy, dynamic footprint — but with good locality, because each new
vertex/edge struct is reused immediately after its bump allocation (the
paper's explanation for GCons's low MPKI within CompDyn, Fig. 7).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.errors import DuplicateEdge
from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from .base import Workload


class GCons(Workload):
    """Build ``n_vertices`` and insert ``edges`` into (an empty) ``g``;
    sets each new vertex's ``level`` and edge's ``weight`` property right
    after insertion (the immediate-reuse pattern)."""

    NAME = "GCons"
    CTYPE = ComputationType.COMP_DYN
    CATEGORY = WorkloadCategory.UPDATE
    HAS_GPU = False

    def kernel(self, g: PropertyGraph, t, *, n_vertices: int,
               edges: np.ndarray) -> dict[str, Any]:
        if g.num_vertices:
            raise ValueError("GCons expects an empty target graph")
        for vid in range(n_vertices):
            v = g.add_vertex(vid)
            t.i(2)
            g.vset(v, "level", 0)    # immediate reuse of the fresh struct
        inserted = 0
        for s, d in edges:
            t.i(3)
            try:
                node = g.add_edge(int(s), int(d))
            except DuplicateEdge:
                continue
            g.eset(node, "weight", 1.0)
            inserted += 1
        return {"n_vertices": g.num_vertices, "n_edges": inserted}
