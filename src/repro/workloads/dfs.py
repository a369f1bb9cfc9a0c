"""DFS — depth-first search (graph traversal, CompStruct).

Iterative stack-based DFS recording discovery order and tree parents.
Compared with BFS the stack's deeper reuse window and the one-path-at-a-
time neighbour expansion give slightly better temporal locality — both
appear under the traversal umbrella in the paper's figures.
"""

from __future__ import annotations

from typing import Any

from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from .base import TracedStack, Workload


class DFS(Workload):
    """Depth-first search from ``root``; labels ``order`` (discovery
    index) and ``parent`` properties."""

    NAME = "DFS"
    CTYPE = ComputationType.COMP_STRUCT
    CATEGORY = WorkloadCategory.TRAVERSAL
    HAS_GPU = False    # GraphBIG's GPU suite has no DFS (inherently serial)

    def kernel(self, g: PropertyGraph, t, *, root: int) -> dict[str, Any]:
        site_visited = t.register_branch_site()
        stack = TracedStack(g, t)
        src = g.find_vertex(root)
        stack.push((src, root))
        order: dict[int, int] = {}
        parents: dict[int, int] = {}
        counter = 0
        while stack:
            v, par = stack.pop()
            t.i(3)
            fresh = g.vget(v, "order") < 0
            t.br(site_visited, fresh)
            if not fresh:
                continue
            g.vset(v, "order", counter)
            g.vset(v, "parent", par)
            order[v.vid] = counter
            parents[v.vid] = par
            counter += 1
            # push in reverse insertion order so traversal follows
            # first-edge-first, matching recursive DFS
            for dst, _node in reversed(list(g.neighbors(v))):
                w = g.find_vertex(dst)
                t.i(2)
                if g.vget(w, "order") < 0:
                    stack.push((w, v.vid))
        return {"order": order, "parents": parents, "visited": counter}
