"""Self-contained output validators (Graph 500-style).

Graph 500 — the reference point GraphBIG is compared against (Table 3) —
specifies result *validation* rules rather than golden outputs: a BFS tree
is checked for level consistency, not equality with an oracle.  These
validators apply the same philosophy to the BFS, SPath, kCore and TC
outputs, so suite runs can self-check on datasets where no oracle exists.

Each validator returns a list of violation strings (empty = valid).
"""

from __future__ import annotations

from typing import Mapping

from ..core.graph import PropertyGraph


def _und_adj(g: PropertyGraph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {vid: set() for vid in g.vertex_ids()}
    for vid in g.vertex_ids():
        v = g.find_vertex(vid)
        for dst in v.out:
            adj[vid].add(dst)
            adj[dst].add(vid)
    return adj


def validate_bfs(g: PropertyGraph, root: int,
                 levels: Mapping[int, int],
                 parents: Mapping[int, int]) -> list[str]:
    """Graph 500 BFS checks: root at level 0; tree edges span exactly one
    level; every edge spans at most one level; reached set is closed."""
    errors: list[str] = []
    if levels.get(root) != 0:
        errors.append(f"root {root} not at level 0")
    for v, p in parents.items():
        if v == root:
            continue
        if p not in levels:
            errors.append(f"parent {p} of {v} unreached")
        elif levels[p] != levels[v] - 1:
            errors.append(f"tree edge {p}->{v} spans "
                          f"{levels[v] - levels[p]} levels")
        if not g.has_edge(p, v):
            errors.append(f"tree edge {p}->{v} not in graph")
    for vid in levels:
        v = g.find_vertex(vid)
        for dst in v.out:
            if dst in levels and levels[dst] > levels[vid] + 1:
                errors.append(f"edge {vid}->{dst} skips a level")
            if dst not in levels:
                errors.append(f"reached {vid} has unreached successor "
                              f"{dst}")
    return errors


def validate_sssp(g: PropertyGraph, root: int,
                  dists: Mapping[int, float]) -> list[str]:
    """Relaxation check: no edge can improve a settled distance (the
    edge ``weight`` property)."""
    errors: list[str] = []
    if dists.get(root) != 0.0:
        errors.append(f"root {root} distance is {dists.get(root)}")
    for vid in dists:
        v = g.find_vertex(vid)
        for dst, node in v.out.items():
            w = g.eget(node, "weight")
            if dst in dists and dists[dst] > dists[vid] + w + 1e-9:
                errors.append(f"edge {vid}->{dst} relaxes {dists[dst]} "
                              f"to {dists[vid] + w}")
            if dst not in dists:
                errors.append(f"settled {vid} has unreached successor "
                              f"{dst}")
    return errors


def validate_kcore(g: PropertyGraph,
                   core: Mapping[int, int]) -> list[str]:
    """Local k-core condition: every vertex with core number k has at
    least k neighbours of core number >= k."""
    errors: list[str] = []
    adj = _und_adj(g)
    for vid, k in core.items():
        if k < 0:
            errors.append(f"vertex {vid} negative core {k}")
            continue
        support = sum(1 for u in adj[vid] if core.get(u, -1) >= k)
        if support < k:
            errors.append(f"vertex {vid}: core {k} but only {support} "
                          f"supporting neighbours")
    return errors


def validate_triangles(g: PropertyGraph, total: int,
                       per_vertex: Mapping[int, int]) -> list[str]:
    """Consistency: per-vertex counts sum to 3x total; non-negative."""
    errors: list[str] = []
    if total < 0:
        errors.append(f"negative total {total}")
    s = sum(per_vertex.values())
    if s != 3 * total:
        errors.append(f"per-vertex sum {s} != 3 * {total}")
    for vid, c in per_vertex.items():
        if c < 0:
            errors.append(f"vertex {vid} negative count {c}")
    return errors
