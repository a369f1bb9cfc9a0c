"""TMorph — topology morphing (CompDyn).

"Generates an undirected moral graph from a directed-acyclic graph.  It
involves graph construction, graph traversal, and graph update operations"
(Section 4.2).  Moralization: for every vertex, connect ("marry") all pairs
of its parents, then drop directions.  The kernel builds the moral graph
into a second PropertyGraph through framework primitives while traversing
the source DAG — no small local queues are involved, which is why TMorph's
L1D MPKI is the highest of CompDyn (Fig. 7 discussion).
"""

from __future__ import annotations

from itertools import combinations
from typing import Any

from ..core.errors import DuplicateEdge
from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from .base import Workload


class TMorph(Workload):
    """Moralize the DAG ``g`` into a new undirected graph.

    Returns the moral edge set; the morphed graph is built vertex by
    vertex with marriage edges added as parents are discovered via
    in-neighbour traversal.
    """

    NAME = "TMorph"
    CTYPE = ComputationType.COMP_DYN
    CATEGORY = WorkloadCategory.UPDATE
    HAS_GPU = False

    def kernel(self, g: PropertyGraph, t) -> dict[str, Any]:
        moral = PropertyGraph(g.vschema, g.eschema, directed=False,
                              heap=g.alloc.model, tracer=g.t)
        for v in g.vertices():
            t.i(2)
            moral.add_vertex(v.vid)
        marriages = 0
        edges = 0
        for v in list(g.vertices()):
            # keep original (now undirected) edges
            for dst, _node in g.neighbors(v):
                t.i(3)
                try:
                    moral.add_edge(v.vid, dst)
                    edges += 1
                except DuplicateEdge:
                    pass
            # marry parents of v
            parents = sorted(set(g.in_neighbors(v)))
            for a, b in combinations(parents, 2):
                t.i(4)
                try:
                    moral.add_edge(a, b)
                    marriages += 1
                except DuplicateEdge:
                    pass
        moral.detach_tracer()
        edge_set = set()
        for vid in moral.vertex_ids():
            for dst in moral._v[vid].out:
                edge_set.add((min(vid, dst), max(vid, dst)))
        return {"moral_graph": moral, "moral_edges": edge_set,
                "marriages": marriages, "kept_edges": edges}
