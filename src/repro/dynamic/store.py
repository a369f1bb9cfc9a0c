"""Versioned snapshot store: copy-on-write multiversioning over the
property-graph topology.

Writers commit mutation batches against a single mutable head; every
commit produces a new integer **version** and an immutable
:class:`Delta` describing the net change.  Readers pin a
:class:`Snapshot` at any retained version and see that state forever —
snapshot isolation by construction, because nothing is overwritten:
every vertex and arc carries **lifetime spans** ``[born, died)``, and
a read at version ``v`` sees the record iff some span covers ``v``.

This is the layered-storage idiom (a mutable head layer over immutable
history) collapsed into per-record intervals, which makes head reads
O(1) and old-version reads O(spans-per-record) instead of a layer walk.

Retention is bounded: the store keeps at most ``max_versions``
reconstructable versions behind the head (pinned snapshots extend the
window — a pin is a promise).  **Compaction** folds everything older
than the retention floor into the base: spans that died at or before
the floor are dropped and the per-version deltas below the floor are
discarded.  A reader asking for a folded version gets a typed
:class:`~repro.core.errors.SnapshotExpired`, never silently-wrong data.

Compaction is incremental.  Beside each retained delta the store keeps
what that version *touched*: the vertex ids and ``(src, dst)`` arcs
whose span it closed (a failed strict batch included — see
:meth:`SnapshotStore._rollback`).
Retiring a version visits exactly those records, so a commit and the
compaction it triggers cost O(batch) whatever the size of the graph; an
old-version read stays O(spans per record).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Iterable

from ..core.errors import MutationError, SnapshotExpired
from .ops import MutOp

#: Default bound on reconstructable history (versions behind head).
DEFAULT_MAX_VERSIONS = 64

_Spans = list  # list of [born, died-or-None] pairs, born ascending


@dataclass(frozen=True)
class Delta:
    """The net effect of one committed batch (version ``version``).

    Arcs are directed half-edges exactly as stored: an undirected
    store's logical edge appears as both arcs.  The delta is *net* —
    an arc added and deleted inside one batch appears in neither list —
    so incremental kernels can apply it without replaying intra-batch
    churn.
    """

    version: int
    added_vertices: tuple[int, ...] = ()
    removed_vertices: tuple[int, ...] = ()
    added_arcs: tuple[tuple[int, int], ...] = ()
    removed_arcs: tuple[tuple[int, int], ...] = ()

    @property
    def size(self) -> int:
        return (len(self.added_vertices) + len(self.removed_vertices)
                + len(self.added_arcs) + len(self.removed_arcs))


@dataclass
class StoreStats:
    """Lifetime counters (monotonic)."""

    commits: int = 0
    ops_applied: int = 0
    ops_skipped: int = 0
    compactions: int = 0
    spans_folded: int = 0
    snapshots_pinned: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"commits": self.commits,
                "ops_applied": self.ops_applied,
                "ops_skipped": self.ops_skipped,
                "compactions": self.compactions,
                "spans_folded": self.spans_folded,
                "snapshots_pinned": self.snapshots_pinned}


def _alive_at(spans: _Spans, v: int) -> bool:
    for born, died in reversed(spans):
        if born <= v:
            return died is None or v < died
    return False


def _alive_now(spans: _Spans) -> bool:
    return bool(spans) and spans[-1][1] is None


def _fold(spans: "_Spans | None", floor: int) -> int:
    """Drop, in place, the spans that died at or before ``floor``."""
    if not spans:
        return 0
    kept = [s for s in spans if s[1] is None or s[1] > floor]
    dropped = len(spans) - len(kept)
    spans[:] = kept
    return dropped


#: Version *numbers* repeat across stores — every store starts at 0 —
#: so a cache entry is valid for (which store, which version), never for
#: the number alone.
_GENERATIONS = itertools.count(1)


class SnapshotStore:
    """Multiversioned graph topology with bounded history.

    Thread-safe: commits, pins, and compaction serialize on one lock;
    snapshot reads take it per call (reads are dict probes — the lock is
    held for microseconds, never across a kernel).
    """

    def __init__(self, *, directed: bool, max_versions: int):
        if max_versions < 1:
            raise ValueError("max_versions must be >= 1")
        self.directed = directed
        self.max_versions = max_versions
        self._lock = threading.RLock()
        self.generation = next(_GENERATIONS)   # unique in this process
        self.head = 0
        self.floor = 0
        self._vspans: dict[int, _Spans] = {}
        self._out: dict[int, dict[int, _Spans]] = {}
        self._inn: dict[int, dict[int, _Spans]] = {}
        self._deltas: dict[int, Delta] = {}
        # per retained version: (vertices closed, arcs closed) — what
        # compaction visits when that version retires
        self._touched: dict[int, tuple[set, set]] = {}
        self._pins: dict[int, int] = {}
        self._n_alive = 0                # vertices alive at head
        self._m_alive = 0                # arcs alive at head
        self.stats = StoreStats()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_edges(cls, n_vertices: int,
                   edges: Iterable[tuple[int, int]], *,
                   directed: bool = True,
                   max_versions: int = DEFAULT_MAX_VERSIONS
                   ) -> "SnapshotStore":
        """Base load at version 0 (the un-deltaed bottom layer)."""
        store = cls(directed=directed, max_versions=max_versions)
        for vid in range(n_vertices):
            store._vspans[vid] = [[0, None]]
        store._n_alive = n_vertices
        for row in edges:
            s, d = int(row[0]), int(row[1])
            if s == d:
                continue
            store._open_arc(s, d, 0)
            if not directed:
                store._open_arc(d, s, 0)
        return store

    @classmethod
    def from_spec(cls, spec) -> "SnapshotStore":
        """Base load from a generated :class:`~repro.datagen.spec.
        GraphSpec` (deduped, self-loop-free by construction)."""
        return cls.from_edges(spec.n, spec.edges,
                              directed=bool(spec.directed))

    def _open_arc(self, src: int, dst: int, version: int) -> bool:
        spans = self._out.setdefault(src, {}).get(dst)
        if spans is not None and _alive_now(spans):
            return False
        if spans is None:
            self._out[src][dst] = [[version, None]]
            self._inn.setdefault(dst, {})[src] = \
                self._out[src][dst]
        else:
            spans.append([version, None])
        self._m_alive += 1
        return True

    def _close_arc(self, src: int, dst: int, version: int) -> bool:
        spans = self._out.get(src, {}).get(dst)
        if spans is None or not _alive_now(spans):
            return False
        spans[-1][1] = version
        self._touched[version][1].add((src, dst))
        self._m_alive -= 1
        return True

    # -- writes --------------------------------------------------------------

    def commit(self, ops: Iterable[MutOp], *,
               strict: bool = False) -> tuple[int, Delta, int]:
        """Apply one batch atomically; returns ``(version, delta,
        skipped)``.

        Lenient mode (the default) skips operations that cannot apply —
        adding a present edge, deleting an absent vertex — and counts
        them; ``strict`` raises :class:`~repro.core.errors.
        MutationError` on the first such op instead (the batch is still
        atomic: nothing committed).  The returned delta is the *net*
        change, suitable for O(delta) incremental kernel maintenance.
        """
        ops = list(ops)
        with self._lock:
            v = self.head + 1
            self._touched.setdefault(v, (set(), set()))
            # net-effect tracking: first-touch records the pre-batch
            # state, the structures themselves hold the post-batch state
            vert_before: dict[int, bool] = {}
            arc_before: dict[tuple[int, int], bool] = {}
            try:
                skipped = self._apply_ops(ops, v, strict, vert_before,
                                          arc_before)
            except MutationError:
                self._rollback(vert_before, arc_before)
                raise
            delta = Delta(
                version=v,
                added_vertices=tuple(sorted(
                    vid for vid, was in vert_before.items()
                    if not was and _alive_now(self._vspans.get(vid, [])))),
                removed_vertices=tuple(sorted(
                    vid for vid, was in vert_before.items()
                    if was and not _alive_now(self._vspans.get(vid, [])))),
                added_arcs=tuple(sorted(
                    arc for arc, was in arc_before.items()
                    if not was and _alive_now(
                        self._out.get(arc[0], {}).get(arc[1], [])))),
                removed_arcs=tuple(sorted(
                    arc for arc, was in arc_before.items()
                    if was and not _alive_now(
                        self._out.get(arc[0], {}).get(arc[1], [])))))
            self.head = v
            self._deltas[v] = delta
            self.stats.commits += 1
            self.stats.ops_applied += len(ops) - skipped
            self.stats.ops_skipped += skipped
            self._maybe_compact()
            return v, delta, skipped

    def _apply_ops(self, ops: list[MutOp], v: int, strict: bool,
                   vert_before: dict, arc_before: dict) -> int:
        skipped = 0

        def note_vertex(vid: int) -> None:
            if vid not in vert_before:
                vert_before[vid] = _alive_at(
                    self._vspans.get(vid, []), v - 1)

        def note_arc(s: int, d: int) -> None:
            if (s, d) not in arc_before:
                arc_before[(s, d)] = _alive_at(
                    self._out.get(s, {}).get(d, []), v - 1)

        for op in ops:
            if op.kind == "add_vertex":
                spans = self._vspans.get(op.src)
                if spans is not None and _alive_now(spans):
                    if strict:
                        raise MutationError(
                            "add_vertex", f"vertex {op.src} exists")
                    skipped += 1
                    continue
                note_vertex(op.src)
                if spans is None:
                    self._vspans[op.src] = [[v, None]]
                else:
                    spans.append([v, None])
                self._n_alive += 1
            elif op.kind == "del_vertex":
                spans = self._vspans.get(op.src)
                if spans is None or not _alive_now(spans):
                    if strict:
                        raise MutationError(
                            "del_vertex", f"vertex {op.src} not found")
                    skipped += 1
                    continue
                note_vertex(op.src)
                # incident arcs die with the vertex — each recorded so
                # the delta is self-contained for incremental kernels
                for dst, aspans in self._out.get(op.src, {}).items():
                    if _alive_now(aspans):
                        note_arc(op.src, dst)
                        self._close_arc(op.src, dst, v)
                for src, aspans in self._inn.get(op.src, {}).items():
                    if _alive_now(aspans):
                        note_arc(src, op.src)
                        self._close_arc(src, op.src, v)
                spans[-1][1] = v
                self._touched[v][0].add(op.src)
                self._n_alive -= 1
            elif op.kind == "add_edge":
                s, d = op.src, op.dst
                if s == d:
                    if strict:
                        raise MutationError(
                            "add_edge", f"self-loop at {s}")
                    skipped += 1
                    continue
                if not self._vertex_alive(s) or not self._vertex_alive(d):
                    if strict:
                        missing = s if not self._vertex_alive(s) else d
                        raise MutationError(
                            "add_edge", f"vertex {missing} not found")
                    skipped += 1
                    continue
                if _alive_now(self._out.get(s, {}).get(d, [])):
                    if strict:
                        raise MutationError(
                            "add_edge", f"edge {s}->{d} exists")
                    skipped += 1
                    continue
                note_arc(s, d)
                self._open_arc(s, d, v)
                if not self.directed:
                    note_arc(d, s)
                    self._open_arc(d, s, v)
            else:                        # del_edge
                s, d = op.src, op.dst
                if not _alive_now(self._out.get(s, {}).get(d, [])):
                    if strict:
                        raise MutationError(
                            "del_edge", f"edge {s}->{d} not found")
                    skipped += 1
                    continue
                note_arc(s, d)
                self._close_arc(s, d, v)
                if not self.directed:
                    note_arc(d, s)
                    self._close_arc(d, s, v)
        return skipped

    def _rollback(self, vert_before: dict, arc_before: dict) -> None:
        """Undo a strict-mode batch that failed mid-apply (atomicity:
        every touched record *reads* as it did before the batch, at
        every version).

        Not restored, because no read can see it: an arc added and
        deleted inside the batch keeps an empty ``[v, v)`` span, and a
        vertex deleted and re-added keeps ``[b, v), [v, None)`` where it
        had ``[b, None)``.  ``_touched[v]`` keeps the batch's entries so
        compaction folds both when the floor passes ``v``.
        """
        for (s, d), was in arc_before.items():
            spans = self._out.get(s, {}).get(d, [])
            now = _alive_now(spans)
            if now and not was:
                spans.pop()
                self._m_alive -= 1
                if not spans:
                    self._drop_arc(s, d)
            elif was and not now:
                spans[-1][1] = None
                self._m_alive += 1
        for vid, was in vert_before.items():
            spans = self._vspans.get(vid, [])
            now = _alive_now(spans)
            if now and not was:
                spans.pop()
                self._n_alive -= 1
                if not spans:
                    del self._vspans[vid]
            elif was and not now:
                spans[-1][1] = None
                self._n_alive += 1

    def _vertex_alive(self, vid: int) -> bool:
        return _alive_now(self._vspans.get(vid, []))

    # -- reads ---------------------------------------------------------------

    def token(self, version: int | None = None) -> tuple[int, int]:
        """What a cache keys an answer computed at ``version`` (default:
        the head) on: it matches only this store at that version, never
        another store that reached the same version number."""
        return (self.generation,
                self.head if version is None else version)

    def resolve(self, version: int | None = None) -> int:
        """``version`` (default: the head) when a snapshot can serve it
        — ``floor <= version <= head`` — else a typed
        :class:`SnapshotExpired`."""
        with self._lock:
            v = self.head if version is None else int(version)
            if v < self.floor or v > self.head:
                raise SnapshotExpired(v, self.floor, self.head)
            return v

    def snapshot(self, version: int | None = None) -> "Snapshot":
        """Pin an immutable view at ``version`` (default: the head).

        The pin extends the retention window until the snapshot is
        closed — compaction never folds a pinned version.
        """
        with self._lock:
            v = self.resolve(version)
            self._pins[v] = self._pins.get(v, 0) + 1
            self.stats.snapshots_pinned += 1
            return Snapshot(self, v)

    def release(self, version: int) -> None:
        with self._lock:
            count = self._pins.get(version, 0)
            if count <= 1:
                self._pins.pop(version, None)
            else:
                self._pins[version] = count - 1

    def deltas_since(self, version: int) -> list[Delta]:
        """The delta chain ``(version, head]``, oldest first.

        Raises :class:`SnapshotExpired` when ``version`` predates the
        retention floor — the chain needed to roll forward is gone and
        the caller must recompute from a fresh snapshot.
        """
        with self._lock:
            self.resolve(version)
            return [self._deltas[v]
                    for v in range(version + 1, self.head + 1)]

    @property
    def n_vertices(self) -> int:
        return self._n_alive

    @property
    def n_arcs(self) -> int:
        return self._m_alive

    # -- retention / compaction ----------------------------------------------

    def _retention_floor(self) -> int:
        target = self.head - self.max_versions + 1
        if self._pins:
            target = min(target, min(self._pins))
        return max(self.floor, min(target, self.head))

    def _maybe_compact(self) -> None:
        if self._retention_floor() > self.floor:
            self._compact_locked()

    def _drop_arc(self, src: int, dst: int) -> None:
        """Forget a span-less arc: its entry in both maps, and either
        row it leaves empty."""
        for adj, a, b in ((self._out, src, dst), (self._inn, dst, src)):
            del adj[a][b]
            if not adj[a]:
                del adj[a]

    def _compact_locked(self) -> int:
        new_floor = self._retention_floor()
        if new_floor <= self.floor:
            return 0
        folded = 0
        for v in range(self.floor + 1, new_floor + 1):
            self._deltas.pop(v, None)
            vids, arcs = self._touched.pop(v)
            for vid in vids:
                spans = self._vspans.get(vid)
                folded += _fold(spans, new_floor)
                if spans == []:
                    del self._vspans[vid]
            for src, dst in arcs:
                spans = self._out.get(src, {}).get(dst)
                folded += _fold(spans, new_floor)
                if spans == []:
                    self._drop_arc(src, dst)
        self.floor = new_floor
        self.stats.compactions += 1
        self.stats.spans_folded += folded
        return folded

    def info(self) -> dict[str, Any]:
        with self._lock:
            return {"head": self.head, "floor": self.floor,
                    "directed": self.directed,
                    "n_vertices": self._n_alive,
                    "n_arcs": self._m_alive,
                    "pins": sum(self._pins.values()),
                    "versions_retained": self.head - self.floor + 1,
                    "max_versions": self.max_versions,
                    "stats": self.stats.as_dict()}


class Snapshot:
    """An immutable read view pinned at one version.

    Context-manager: exiting releases the pin.  All reads resolve
    lifetime spans at the pinned version — a writer advancing the head
    (or a compaction folding *other* versions) never changes what this
    view returns.
    """

    def __init__(self, store: SnapshotStore, version: int):
        self._store = store
        self.version = version
        self._open = True

    def close(self) -> None:
        if self._open:
            self._open = False
            self._store.release(self.version)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- vertex reads --------------------------------------------------------

    def has_vertex(self, vid: int) -> bool:
        st = self._store
        with st._lock:
            return _alive_at(st._vspans.get(vid, []), self.version)

    def vertex_ids(self) -> list[int]:
        st = self._store
        with st._lock:
            return sorted(vid for vid, spans in st._vspans.items()
                          if _alive_at(spans, self.version))

    # -- arc reads -----------------------------------------------------------

    def out_neighbors(self, vid: int) -> list[int]:
        st = self._store
        with st._lock:
            return [dst for dst, spans in st._out.get(vid, {}).items()
                    if _alive_at(spans, self.version)]

    def in_neighbors(self, vid: int) -> list[int]:
        st = self._store
        with st._lock:
            return [src for src, spans in st._inn.get(vid, {}).items()
                    if _alive_at(spans, self.version)]

    def und_neighbors(self, vid: int) -> list[int]:
        """Undirected view: out ∪ in (what CComp traverses)."""
        st = self._store
        with st._lock:
            out = {dst for dst, spans in st._out.get(vid, {}).items()
                   if _alive_at(spans, self.version)}
            out.update(src for src, spans
                       in st._inn.get(vid, {}).items()
                       if _alive_at(spans, self.version))
            return list(out)

    def adjacency(self) -> dict[int, list[int]]:
        """Out-adjacency of every alive vertex (one locked pass — the
        form the incremental kernels' recompute path consumes)."""
        st = self._store
        with st._lock:
            v = self.version
            adj = {vid: [] for vid, spans in st._vspans.items()
                   if _alive_at(spans, v)}
            for src, row in st._out.items():
                if src not in adj:
                    continue
                lst = adj[src]
                for dst, spans in row.items():
                    if _alive_at(spans, v):
                        lst.append(dst)
            return adj
