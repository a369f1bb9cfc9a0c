"""Incremental kernels: O(delta) maintenance of hot query results.

A batch kernel answers a query by touching the whole graph; an
incremental kernel keeps the *answer* warm and repairs it per mutation
batch, touching only what the delta could have changed:

* :class:`IncrementalBFS` maintains shortest-path depths from a fixed
  root (the ``levels`` output of the batch BFS).  Arc inserts relax a
  multi-source frontier; arc deletes run the classic two-phase repair —
  cascade out vertices whose depth lost its support, then re-reach the
  orphaned region from the surviving boundary.
* :class:`IncrementalCComp` maintains connected-component labels over
  the undirected view (the ``comp``/``n_components`` outputs of the
  batch CComp).  Inserts are component merges (small-into-large, so a
  merge costs the smaller side); deletes use a bidirectional
  alternating search to decide "still connected?" in time proportional
  to the *smaller* side of any actual split — the common no-split case
  exits as soon as the two frontiers meet.

Both kernels fall back to a full recompute when the delta crosses
``RECOMPUTE_FRACTION`` of the graph (repair work would exceed the
recompute), when their synced version fell out of the store's retention
window, or when the root vanishes.  Equivalence with the batch kernels
after every commit is enforced by test (``tests/test_dynamic.py``), so
"incremental" is an optimization, never a different answer.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..core.errors import SnapshotExpired
from .store import Delta, Snapshot, SnapshotStore

#: Delta size (fraction of live arcs) beyond which repair gives way to
#: recompute.
RECOMPUTE_FRACTION = 0.25

_INF = float("inf")


@dataclass
class KernelStats:
    refreshes: int = 0
    incremental_batches: int = 0
    recomputes: int = 0
    arcs_applied: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"refreshes": self.refreshes,
                "incremental_batches": self.incremental_batches,
                "recomputes": self.recomputes,
                "arcs_applied": self.arcs_applied}


class _IncrementalKernel:
    """Shared refresh loop: sync the maintained result to the store
    head, delta by delta, falling back to recompute when the chain is
    gone or oversized."""

    def __init__(self, store: SnapshotStore):
        self.store = store
        self.version: int | None = None
        self.stats = KernelStats()

    def refresh(self) -> str:
        """Bring the result to the current head; returns how it was
        served: ``"fresh"`` (already synced), ``"incremental"``, or
        ``"recompute"``."""
        self.stats.refreshes += 1
        with self.store.snapshot() as snap:
            target = snap.version
            if self.version == target:
                return "fresh"
            if self.version is None:
                self._recompute(snap)
                self.stats.recomputes += 1
                self.version = target
                return "recompute"
            try:
                deltas = self.store.deltas_since(self.version)
            except SnapshotExpired:
                deltas = None
            if deltas is not None:
                # the chain may end past our pinned snapshot if a
                # writer raced in; clamp to the pinned version so the
                # result matches what this refresh claims
                deltas = [d for d in deltas if d.version <= target]
            size = sum(d.size for d in deltas) if deltas is not None \
                else None
            # snap is pinned at the head: either count is O(1) there
            budget = RECOMPUTE_FRACTION * max(64, self.store.n_arcs)
            if deltas is None or size > budget:
                self._recompute(snap)
                self.stats.recomputes += 1
                self.version = target
                return "recompute"
            for d in deltas:
                with self.store.snapshot(d.version) as at:
                    self._apply(at, d)
                self.stats.incremental_batches += 1
                self.stats.arcs_applied += (len(d.added_arcs)
                                            + len(d.removed_arcs))
            self.version = target
            return "incremental"

    # subclass interface
    def _recompute(self, snap: Snapshot) -> None:
        raise NotImplementedError

    def _apply(self, snap: Snapshot, delta: Delta) -> None:
        raise NotImplementedError

    def outputs(self) -> dict[str, Any]:
        raise NotImplementedError


class IncrementalBFS(_IncrementalKernel):
    """Maintained BFS depths from ``root`` (unit weights, directed over
    stored arcs — which is the undirected view when the store holds
    both arcs)."""

    def __init__(self, store: SnapshotStore, root: int = 0):
        super().__init__(store)
        self.root = root
        self.dist: dict[int, int] = {}

    def outputs(self) -> dict[str, Any]:
        return {"levels": dict(self.dist), "visited": len(self.dist),
                "root": self.root}

    def _recompute(self, snap: Snapshot) -> None:
        self.dist = {}
        if not snap.has_vertex(self.root):
            return
        adj = snap.adjacency()
        dist = {self.root: 0}
        frontier = deque([self.root])
        while frontier:
            u = frontier.popleft()
            du = dist[u]
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = du + 1
                    frontier.append(v)
        self.dist = dist

    def _apply(self, snap: Snapshot, delta: Delta) -> None:
        if not snap.has_vertex(self.root):
            self.dist = {}
            return
        if self.root in delta.added_vertices or not self.dist:
            # root (re)appeared, or nothing was reachable before: the
            # reachable region may be arbitrary — recompute at this step
            self._recompute(snap)
            return
        dist = self.dist
        # phase 1: cascade out depths that lost their support.  A depth
        # d(v) is supported iff some in-neighbor sits at d(v)-1; the
        # root supports itself.
        suspects = deque()
        for u, v in delta.removed_arcs:
            if v in dist and dist[v] == dist.get(u, _INF) + 1:
                suspects.append(v)
        for vid in delta.removed_vertices:
            dist.pop(vid, None)
        orphan_seeds: set[int] = set()
        while suspects:
            v = suspects.popleft()
            if v == self.root or v not in dist:
                continue
            dv = dist[v]
            if any(dist.get(w, _INF) == dv - 1
                   for w in snap.in_neighbors(v)):
                continue
            del dist[v]
            orphan_seeds.add(v)
            for x in snap.out_neighbors(v):
                if x in dist and dist[x] == dv + 1:
                    suspects.append(x)
        # phase 2: multi-source relaxation over the post-batch graph —
        # new arcs may shorten paths, orphans may be re-reachable via
        # longer ones.  Lazy Dijkstra with unit weights; existing
        # entries only ever decrease.
        heap: list[tuple[int, int]] = []
        for u, v in delta.added_arcs:
            if u in dist and dist[u] + 1 < dist.get(v, _INF):
                heapq.heappush(heap, (dist[u] + 1, v))
        for v in orphan_seeds:
            best = min((dist[w] + 1 for w in snap.in_neighbors(v)
                        if w in dist), default=None)
            if best is not None:
                heapq.heappush(heap, (best, v))
        while heap:
            d, v = heapq.heappop(heap)
            if dist.get(v, _INF) <= d:
                continue
            dist[v] = d
            for x in snap.out_neighbors(v):
                if d + 1 < dist.get(x, _INF):
                    heapq.heappush(heap, (d + 1, x))


class IncrementalCComp(_IncrementalKernel):
    """Maintained connected-component labels (undirected view).

    Components are explicit member sets under arbitrary integer roots;
    the exported label is the minimum vertex id of the component —
    exactly what the batch CComp's ascending-order scan produces.
    """

    def __init__(self, store: SnapshotStore):
        super().__init__(store)
        self.comp_of: dict[int, int] = {}      # vid -> root id
        self.members: dict[int, set[int]] = {}  # root id -> member vids
        self.label: dict[int, int] = {}        # root id -> min vid
        self._next_root = 0

    def outputs(self) -> dict[str, Any]:
        comp = {vid: self.label[root]
                for vid, root in self.comp_of.items()}
        return {"comp": comp, "n_components": len(self.members)}

    # -- component plumbing --------------------------------------------------

    def _new_component(self, vids: set[int]) -> int:
        root = self._next_root
        self._next_root += 1
        self.members[root] = vids
        self.label[root] = min(vids)
        for vid in vids:
            self.comp_of[vid] = root
        return root

    def _union(self, a: int, b: int) -> None:
        ra, rb = self.comp_of[a], self.comp_of[b]
        if ra == rb:
            return
        if len(self.members[ra]) < len(self.members[rb]):
            ra, rb = rb, ra
        small = self.members.pop(rb)
        self.members[ra].update(small)
        for vid in small:
            self.comp_of[vid] = ra
        self.label[ra] = min(self.label[ra], self.label.pop(rb))

    def _remove_vertex(self, vid: int) -> None:
        root = self.comp_of.pop(vid, None)
        if root is None:
            return
        mem = self.members[root]
        mem.discard(vid)
        if not mem:
            del self.members[root]
            del self.label[root]
        elif self.label[root] == vid:
            self.label[root] = min(mem)

    @staticmethod
    def _still_connected(snap: Snapshot, u: int, v: int
                         ) -> set[int] | None:
        """Bidirectional alternating reachability over the undirected
        view.  Returns ``None`` when ``u`` and ``v`` are connected, else
        the full vertex set of the *smaller* side (the one whose
        frontier exhausted first)."""
        seen_u: set[int] = {u}
        seen_v: set[int] = {v}
        front_u: deque[int] = deque([u])
        front_v: deque[int] = deque([v])
        while front_u and front_v:
            # expand the side with the smaller explored set — cost is
            # bounded by the smaller component when a split is real
            if len(seen_u) <= len(seen_v):
                seen, other, front = seen_u, seen_v, front_u
            else:
                seen, other, front = seen_v, seen_u, front_v
            x = front.popleft()
            for y in snap.und_neighbors(x):
                if y in other:
                    return None
                if y not in seen:
                    seen.add(y)
                    front.append(y)
        return seen_u if not front_u else seen_v

    # -- kernel interface ----------------------------------------------------

    def _recompute(self, snap: Snapshot) -> None:
        self.comp_of = {}
        self.members = {}
        self.label = {}
        self._next_root = 0
        unvisited = set(snap.vertex_ids())
        while unvisited:
            seed = next(iter(unvisited))
            seen = {seed}
            frontier = deque([seed])
            while frontier:
                x = frontier.popleft()
                for y in snap.und_neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            unvisited -= seen
            self._new_component(seen)

    def _apply(self, snap: Snapshot, delta: Delta) -> None:
        # deletions first: every removal can only split what already
        # exists; arcs added in this same batch are handled after, so a
        # transient over-split is immediately re-merged.
        for vid in delta.removed_vertices:
            self._remove_vertex(vid)
        # The one split rule.  Every piece a removal cuts loose holds a
        # surviving endpoint of a removed arc (a vertex deletion records
        # its incident arcs), so those endpoints are the witnesses.
        # Each is searched against its component's representative; a
        # split moves one *whole* piece — the side that exhausted — out,
        # so the two never share a component again and whoever stayed
        # represents the remainder: one search per witness, and a
        # remainder that is itself disconnected is cut by the witnesses
        # still to come.
        rep: dict[int, int] = {}               # root id -> representative
        for w in dict.fromkeys(x for arc in delta.removed_arcs
                               for x in arc if x in self.comp_of):
            root = self.comp_of[w]
            r = rep.setdefault(root, w)
            side = None if r == w else self._still_connected(snap, w, r)
            if side is None:
                continue
            # the search ran over the post-batch graph, so ``side`` may
            # stray into other components via arcs added in this batch:
            # only this component's members move (the added-arc union
            # pass below merges the rest if they really connect)
            mem = self.members[root]
            side &= mem
            mem -= side
            if self.label[root] in side:
                self.label[root] = min(mem)
            moved, stayed = (w, r) if w in side else (r, w)
            rep[self._new_component(side)] = moved
            rep[root] = stayed
        for vid in delta.added_vertices:
            if vid not in self.comp_of:
                self._new_component({vid})
        for u, v in delta.added_arcs:
            if u in self.comp_of and v in self.comp_of:
                self._union(u, v)
