"""Vertex-centric dynamic property graph — the System G framework abstraction.

This is the data representation GraphBIG inherits from IBM System G
(paper Fig. 2(c)): a vertex is the basic unit; the vertex's properties and its
outgoing edge list live inside the vertex structure; all vertex structures are
reachable through an index.  The representation is fully dynamic — vertices
and edges can be added and deleted at any time — which is what distinguishes
it from the static CSR/COO prototypes of earlier benchmarks.

Workloads interact with the graph *only* through framework primitives
(find/add/delete vertex/edge, traverse neighbours, property get/set), exactly
as Section 2 describes; the primitives charge realistic instruction counts and
emit the memory/branch event stream of the equivalent C++ implementation into
the attached :class:`~repro.core.trace.Tracer`.

Simulated struct layout (byte offsets)::

    vertex struct                     edge node
    +0   id            (8 B)         +0   dst id   (8 B)
    +8   out-degree    (8 B)         +8   next ptr (8 B)
    +16  edge head ptr (8 B)         +16  edge property area
    +24  in-ref ptr    (8 B)
    +32  vertex property area
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    DuplicateEdge,
    DuplicateVertex,
    EdgeNotFound,
    VertexNotFound,
)
from .memmodel import PACKED_HEAP, HeapModel, SimAllocator
from .properties import EMPTY_SCHEMA, Schema
from . import trace as T

# struct layout ------------------------------------------------------------
V_ID_OFF = 0
V_DEG_OFF = 8
V_HEAD_OFF = 16
V_INREF_OFF = 24
V_PROP_OFF = 32
E_DST_OFF = 0
E_NEXT_OFF = 8
E_PROP_OFF = 16
INDEX_ENTRY = 8          # bytes per vertex-index slot

# per-primitive retired-instruction charges.  Calibrated to a C++ property
# -graph framework (virtual dispatch, bounds/type checks, iterator
# bookkeeping); these set the MPKI denominators, so they are the main
# magnitude knob of the model (see DESIGN.md).
C_FIND_VERTEX = 14
C_ADD_VERTEX = 48
C_DELETE_VERTEX = 90
C_ADD_EDGE = 40
C_EDGE_STEP = 16         # one iteration of the neighbour-traversal loop
C_FIND_EDGE_STEP = 12
C_DELETE_EDGE_STEP = 20
C_UNLINK = 44
C_PROP_GET = 8
C_PROP_SET = 9
C_SCAN_STEP = 10
C_PAYLOAD = 5
C_INREF = 6

# event shapes ---------------------------------------------------------------
# The traced primitives the vectorized kernels replay, restated as data: a
# primitive is a tuple of micro-ops, each named after the call it stands
# for in the scalar method below —
#
#   ("enter", rid)  ("leave",)  ("i", n)  ("stk",)  ("br", site, taken)
#   ("r" | "w", column, byte offset)        ("in", rid)
#
# ``column`` names an operand array the kernel supplies, one address per
# item; ``n`` and ``taken`` are constants or column names too.  ``("stk",)``
# is :meth:`PropertyGraph._stack_touch`; ``("in", rid)`` opens a piece of a
# primitive that starts *inside* region ``rid`` (a generator resumed after
# its yield).  ``repro.workloads._bulk.Layout`` turns sequences of these
# into one bulk block; ``tests/test_event_grammar.py`` records each scalar
# method (for the block walks and payload reads, the ``tests/oracles.py``
# function of the same name) and compares it with its declaration.  They
# are functions so that the ``C_*`` charges are read when a kernel runs,
# not at import: turning a constant turns the scalar and the vectorized
# kernels alike.


def find_vertex_ops(idx: str, v: str) -> tuple:
    """:meth:`PropertyGraph.find_vertex` of a live vertex: index slot
    ``idx``, struct ``v``."""
    return (("enter", T.R_FIND_VERTEX), ("i", C_FIND_VERTEX), ("stk",),
            ("r", idx, 0), ("br", T.B_FIND_HIT, 1), ("r", v, V_ID_OFF),
            ("leave",))


def vget_ops(v: str, off: int) -> tuple:
    """:meth:`PropertyGraph.vget` of the property at struct offset ``off``."""
    return (("enter", T.R_PROP_GET), ("i", C_PROP_GET), ("stk",),
            ("r", v, off), ("leave",))


def vset_ops(v: str, off: int) -> tuple:
    """:meth:`PropertyGraph.vset` (vertex handle given, no lookup)."""
    return (("enter", T.R_PROP_SET), ("i", C_PROP_SET), ("stk",),
            ("w", v, off), ("leave",))


def _load_ops(x: str, off: int) -> tuple:
    """:func:`vget_ops` without the stack touch: a load with no frame."""
    return (("enter", T.R_PROP_GET), ("i", C_PROP_GET), ("r", x, off),
            ("leave",))


def payload_get_ops(v: str, off: int) -> tuple:
    """The pointer load of a payload :meth:`PropertyGraph.payload_set`
    attached (its scalar form is ``tests/oracles.py:payload_get``)."""
    return _load_ops(v, off)


def degree_ops(v: str) -> tuple:
    """:meth:`PropertyGraph.degree` (vertex handle given): the struct's
    degree field."""
    return _load_ops(v, V_DEG_OFF)


def eget_ops(e: str, off: int) -> tuple:
    """:meth:`PropertyGraph.eget` of the property at edge-node offset
    ``off``."""
    return _load_ops(e, off)


def payload_read_ops(p: str, n_instrs: int = C_PAYLOAD) -> tuple:
    """One element read at address ``p`` inside a payload block (its
    scalar form is ``tests/oracles.py:payload_read``, whose charge is the
    caller's argument too)."""
    return (("enter", T.R_PAYLOAD), ("i", n_instrs), ("r", p, 0),
            ("leave",))


class WalkOps(NamedTuple):
    """A generator primitive in four pieces: ``head`` up to the loop,
    ``step`` to the yield (control returns to the caller), ``resume`` on
    the next ``next()``, ``exit`` when the list is exhausted."""

    head: tuple
    step: tuple
    resume: tuple
    exit: tuple


def _walk_ops(rid: int, site: int, head: tuple, step: tuple) -> WalkOps:
    return WalkOps((("enter", rid),) + head,
                   (("in", rid),) + step + (("br", site, 1), ("leave",)),
                   (("enter", rid),),
                   (("in", rid), ("br", site, 0), ("leave",)))


def neighbors_ops(v: str, e: str) -> WalkOps:
    """:meth:`PropertyGraph.neighbors` of struct ``v`` over edge nodes
    ``e``."""
    return _walk_ops(T.R_NEIGHBORS, T.B_EDGE_LOOP,
                     (("i", 2), ("r", v, V_HEAD_OFF)),
                     (("i", C_EDGE_STEP), ("stk",), ("r", e, E_DST_OFF)))


def in_neighbors_ops(v: str, u: str) -> WalkOps:
    """:meth:`PropertyGraph.in_neighbors` of struct ``v`` over source
    structs ``u``."""
    return _walk_ops(T.R_NEIGHBORS, T.B_EDGE_LOOP,
                     (("i", 2), ("r", v, V_INREF_OFF)),
                     (("i", C_EDGE_STEP), ("r", u, V_ID_OFF)))


def vertices_ops(idx: str, v: str) -> WalkOps:
    """:meth:`PropertyGraph.vertices` over index slots ``idx`` and structs
    ``v``."""
    return _walk_ops(T.R_VERTEX_SCAN, T.B_VERTEX_SCAN, (),
                     (("i", C_SCAN_STEP), ("stk",), ("r", idx, 0),
                      ("r", v, V_ID_OFF)))


def _drained(walk: WalkOps) -> WalkOps:
    """The block form of a walk: the same accesses and branches, but
    control never returns to the caller between steps, so the whole list
    is one visit of the region — no ``leave`` after a step, nothing to
    ``resume``."""
    return walk._replace(step=walk.step[:-1], resume=())


def scan_vertices_ops(idx: str, v: str) -> WalkOps:
    """The block vertex scan over index slots ``idx`` and structs ``v``:
    :meth:`PropertyGraph.vertices` drained as one visit of the region
    (its scalar form is ``tests/oracles.py:scan_vertices``)."""
    return _drained(vertices_ops(idx, v))


def neighbor_ids_ops(v: str, e: str) -> WalkOps:
    """The block walk of struct ``v``'s out-list (handle given) over edge
    nodes ``e``: :meth:`PropertyGraph.neighbors` drained as one visit of
    the region (its scalar form is ``tests/oracles.py:neighbor_ids``)."""
    return _drained(neighbors_ops(v, e))


def _round16(n: int) -> int:
    return (n + 15) & ~15


class Vertex:
    """Handle to one vertex structure (id, simulated address, slots)."""

    __slots__ = ("vid", "addr", "props", "out", "inn")

    def __init__(self, vid: int, addr: int, props: list[Any]):
        self.vid = vid
        self.addr = addr
        self.props = props
        self.out: dict[int, EdgeNode] = {}   # insertion-ordered = list order
        self.inn: set[int] = set()           # in-neighbour ids (for deletes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Vertex({self.vid}, deg={len(self.out)})"


class EdgeNode:
    """Handle to one edge node in a vertex's outgoing adjacency list."""

    __slots__ = ("dst", "addr", "props")

    def __init__(self, dst: int, addr: int, props: list[Any]):
        self.dst = dst
        self.addr = addr
        self.props = props

    def __repr__(self) -> str:  # pragma: no cover
        return f"EdgeNode(->{self.dst})"


class PropertyGraph:
    """Dynamic vertex-centric property graph with traced primitives.

    Parameters
    ----------
    vertex_schema, edge_schema:
        Property layouts (see :class:`repro.core.properties.Schema`).
    directed:
        If ``False``, :meth:`add_edge` inserts both arcs (mirroring how
        GraphBIG stores undirected datasets such as the CA road network).
    tracer:
        Optional :class:`~repro.core.trace.Tracer`; attach/detach at any time.
    heap:
        :class:`~repro.core.memmodel.HeapModel` controlling the simulated
        allocator (``AGED_HEAP`` reproduces long-lived-store fragmentation).
    """

    def __init__(self, vertex_schema: Schema = EMPTY_SCHEMA,
                 edge_schema: Schema = EMPTY_SCHEMA, *,
                 directed: bool = True,
                 tracer: T.Tracer | None = None,
                 heap: HeapModel = PACKED_HEAP):
        self.vschema = vertex_schema
        self.eschema = edge_schema
        self.directed = directed
        self.t = tracer
        self.alloc = SimAllocator(heap)
        self._v: dict[int, Vertex] = {}
        self._n_edges = 0
        self._next_vid = 0
        self._vsize = _round16(V_PROP_OFF + vertex_schema.nbytes)
        self._esize = _round16(E_PROP_OFF + edge_schema.nbytes)
        self._index_base = self.alloc.alloc_array(1024, INDEX_ENTRY, tag="index")
        self._index_cap = 1024
        # thread-stack region: call frames / spilled locals of the
        # primitives; always cache-hot, the source of graph computing's
        # high L1D hit rates (paper Section 5.2.2)
        self._stack_base = self.alloc.alloc(256, tag="stack")
        self._sp = 0

    def _stack_touch(self, t: T.Tracer) -> None:
        """One call-frame access (rotating over four hot stack lines)."""
        self._sp = (self._sp + 1) & 3
        t.r(self._stack_base + 64 * self._sp)

    # -- tracer management ---------------------------------------------------
    def attach_tracer(self, tracer: T.Tracer) -> None:
        """Attach ``tracer``; subsequent primitives emit events into it."""
        self.t = tracer

    def detach_tracer(self) -> T.Tracer | None:
        """Detach and return the current tracer (populate phases run bare)."""
        t, self.t = self.t, None
        return t

    # -- size queries ----------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._v)

    @property
    def num_edges(self) -> int:
        """Number of stored arcs (an undirected edge counts as two arcs)."""
        return self._n_edges

    def __contains__(self, vid: int) -> bool:
        return vid in self._v

    def __len__(self) -> int:
        return len(self._v)

    def vertex_ids(self) -> Iterable[int]:
        """Ids of all live vertices (no tracing — bookkeeping only)."""
        return self._v.keys()

    # -- vertex primitives -----------------------------------------------------
    def add_vertex(self, vid: int | None = None, **props: Any) -> Vertex:
        """Framework primitive *add-vertex*: allocate and index a vertex."""
        if vid is None:
            while self._next_vid in self._v:
                self._next_vid += 1
            vid = self._next_vid
            self._next_vid += 1
        elif vid in self._v:
            raise DuplicateVertex(vid)
        addr = self.alloc.alloc(self._vsize, tag="vertex")
        v = Vertex(vid, addr, self.vschema.defaults())
        self._v[vid] = v
        if vid >= self._index_cap:
            while self._index_cap <= vid:
                self._index_cap *= 2
            self._index_base = self.alloc.alloc_array(
                self._index_cap, INDEX_ENTRY, tag="index")
        t = self.t
        if t is not None:
            t.enter(T.R_ADD_VERTEX)
            t.i(C_ADD_VERTEX)
            t.w(addr + V_ID_OFF)
            t.w(addr + V_DEG_OFF)
            t.w(addr + V_HEAD_OFF)
            t.w(self._index_base + INDEX_ENTRY * (vid % self._index_cap))
            t.leave()
        if props:
            for name, value in props.items():
                self._vset(v, name, value)
        return v

    def has_vertex(self, vid: int) -> bool:
        """Framework primitive *find-vertex* used as an existence test."""
        t = self.t
        if t is not None:
            t.enter(T.R_FIND_VERTEX)
            t.i(C_FIND_VERTEX)
            t.r(self._index_base + INDEX_ENTRY * (vid % self._index_cap))
            t.br(T.B_FIND_HIT, vid in self._v)
            t.leave()
        return vid in self._v

    def find_vertex(self, vid: int) -> Vertex:
        """Framework primitive *find-vertex*: index lookup + struct touch."""
        t = self.t
        v = self._v.get(vid)
        if t is not None:
            t.enter(T.R_FIND_VERTEX)
            t.i(C_FIND_VERTEX)
            self._stack_touch(t)
            t.r(self._index_base + INDEX_ENTRY * (vid % self._index_cap))
            t.br(T.B_FIND_HIT, v is not None)
            if v is not None:
                t.r(v.addr + V_ID_OFF)
            t.leave()
        if v is None:
            raise VertexNotFound(vid)
        return v

    def delete_vertex(self, vid: int) -> None:
        """Framework primitive *delete-vertex*: unlink the vertex and every
        incident edge (what the GUp workload stresses)."""
        v = self._v.get(vid)
        if v is None:
            raise VertexNotFound(vid)
        t = self.t
        # delete outgoing edges (walk own list, free each node)
        if t is not None:
            t.enter(T.R_DELETE_VERTEX)
            t.i(C_DELETE_VERTEX)
            t.r(self._index_base + INDEX_ENTRY * (vid % self._index_cap))
            t.r(v.addr + V_HEAD_OFF)
        for dst, node in list(v.out.items()):
            if t is not None:
                t.i(C_DELETE_EDGE_STEP)
                t.r(node.addr + E_DST_OFF)
                t.w(node.addr + E_NEXT_OFF)   # free-list link
            w = self._v.get(dst)
            if w is not None:
                w.inn.discard(vid)
                if t is not None:
                    t.i(C_INREF)
                    t.w(w.addr + V_INREF_OFF)
            self._n_edges -= 1
        v.out.clear()
        # delete incoming edges (walk each in-neighbour's list to unlink)
        for src in list(v.inn):
            u = self._v.get(src)
            if u is None or vid not in u.out:
                continue
            self._unlink_edge(u, vid, t)
            self._n_edges -= 1
        v.inn.clear()
        if t is not None:
            t.w(self._index_base + INDEX_ENTRY * (vid % self._index_cap))
            t.leave()
        del self._v[vid]

    # -- edge primitives ---------------------------------------------------------
    def add_edge(self, src: int, dst: int, **props: Any) -> EdgeNode:
        """Framework primitive *add-edge* (inserts both arcs if undirected)."""
        node = self._add_arc(src, dst, props)
        if not self.directed and src != dst:
            self._add_arc(dst, src, props)
        return node

    def _add_arc(self, src: int, dst: int, props: dict[str, Any]) -> EdgeNode:
        u = self._v.get(src)
        if u is None:
            raise VertexNotFound(src)
        w = self._v.get(dst)
        if w is None:
            raise VertexNotFound(dst)
        t = self.t
        if dst in u.out:
            # the duplicate check itself costs real memory traffic: index
            # lookups plus the probe of the existing edge entry
            if t is not None:
                t.enter(T.R_ADD_EDGE)
                t.i(C_FIND_VERTEX + C_FIND_EDGE_STEP)
                self._stack_touch(t)
                t.r(self._index_base + INDEX_ENTRY * (src % self._index_cap))
                t.r(u.addr + V_HEAD_OFF)
                t.r(u.out[dst].addr + E_DST_OFF)
                t.br(T.B_DUP_CHECK, True)
                t.br(T.B_EDGE_LOOP, True)
                t.br(T.B_EDGE_LOOP, True)
                t.leave()
            raise DuplicateEdge(src, dst)
        addr = self.alloc.alloc(self._esize, tag="edge")
        node = EdgeNode(dst, addr, self.eschema.defaults())
        u.out[dst] = node
        w.inn.add(src)
        self._n_edges += 1
        if t is not None:
            t.enter(T.R_ADD_EDGE)
            t.br(T.B_DUP_CHECK, False)
            t.br(T.B_EDGE_LOOP, True)     # capacity/validity checks:
            t.br(T.B_EDGE_LOOP, True)     # predictable internal branches
            t.i(C_ADD_EDGE)
            self._stack_touch(t)
            t.r(self._index_base + INDEX_ENTRY * (src % self._index_cap))
            t.r(self._index_base + INDEX_ENTRY * (dst % self._index_cap))
            t.r(u.addr + V_HEAD_OFF)
            t.w(addr + E_DST_OFF)
            t.w(addr + E_NEXT_OFF)
            t.w(u.addr + V_HEAD_OFF)
            t.w(u.addr + V_DEG_OFF)
            t.i(C_INREF)
            t.w(w.addr + V_INREF_OFF)
            t.leave()
        if props:
            for name, value in props.items():
                self._eset(node, name, value)
        return node

    def add_edges(self, edges: Iterable[tuple[int, int]],
                  **props: Any) -> int:
        """Bulk *add-edge*: insert every ``(src, dst)`` pair in ``edges``.

        Accepts any iterable of pairs — including an ``(m, 2)`` numpy
        array — and coerces endpoints to int, so callers can feed a
        generated edge block straight in without a per-edge unpacking
        loop.  Each insertion runs through :meth:`add_edge` (both arcs on
        an undirected graph, full trace emission when a tracer is
        attached).  An already-present edge is counted out instead of
        raising — the streaming-ingest idiom where the feed replays edges
        it already delivered.  Returns the number of edges actually
        inserted.
        """
        added = 0
        for row in edges:
            src, dst = int(row[0]), int(row[1])
            try:
                self.add_edge(src, dst, **props)
            except DuplicateEdge:
                continue
            added += 1
        return added

    def has_edge(self, src: int, dst: int) -> bool:
        """Existence test via *find-edge* (walks the adjacency list)."""
        try:
            self.find_edge(src, dst)
            return True
        except (EdgeNotFound, VertexNotFound):
            return False

    def find_edge(self, src: int, dst: int) -> EdgeNode:
        """Framework primitive *find-edge*: walk src's list until dst."""
        u = self._v.get(src)
        if u is None:
            raise VertexNotFound(src)
        t = self.t
        if t is None:
            node = u.out.get(dst)
            if node is None:
                raise EdgeNotFound(src, dst)
            return node
        t.enter(T.R_FIND_EDGE)
        t.i(C_FIND_VERTEX)
        t.r(self._index_base + INDEX_ENTRY * (src % self._index_cap))
        t.r(u.addr + V_HEAD_OFF)
        found = None
        for d, node in u.out.items():
            t.i(C_FIND_EDGE_STEP)
            t.r(node.addr + E_DST_OFF)
            hit = d == dst
            t.br(T.B_FIND_HIT, hit)
            if hit:
                found = node
                break
        t.leave()
        if found is None:
            raise EdgeNotFound(src, dst)
        return found

    def _unlink_edge(self, u: Vertex, dst: int, t: T.Tracer | None) -> None:
        """Walk ``u``'s list to ``dst`` and unlink the node (traced)."""
        if t is not None:
            t.r(u.addr + V_HEAD_OFF)
            for d, node in u.out.items():
                t.i(C_DELETE_EDGE_STEP)
                t.r(node.addr + E_DST_OFF)
                hit = d == dst
                t.br(T.B_DELETE_MATCH, hit)
                if hit:
                    t.i(C_UNLINK)
                    t.w(node.addr + E_NEXT_OFF)
                    t.w(u.addr + V_DEG_OFF)
                    break
        del u.out[dst]

    # -- traversal primitives -----------------------------------------------------
    def neighbors(self, v: Vertex | int) -> Iterator[tuple[int, EdgeNode]]:
        """Framework primitive *traverse-neighbours*: walk the out-edge list.

        Yields ``(dst_vid, edge_node)`` pairs; each step charges the loads
        and loop branch of a linked-list walk, which is the pointer-chasing
        pattern behind graph computing's poor spatial locality.
        """
        if isinstance(v, int):
            v = self.find_vertex(v)
        t = self.t
        if t is None:
            yield from v.out.items()
            return
        t.enter(T.R_NEIGHBORS)
        t.i(2)
        t.r(v.addr + V_HEAD_OFF)
        for dst, node in v.out.items():
            t.i(C_EDGE_STEP)
            self._stack_touch(t)
            t.r(node.addr + E_DST_OFF)
            t.br(T.B_EDGE_LOOP, True)
            t.leave()          # control returns to user kernel per edge
            yield dst, node
            t.enter(T.R_NEIGHBORS)
        t.br(T.B_EDGE_LOOP, False)
        t.leave()

    def in_neighbors(self, v: Vertex | int) -> Iterator[int]:
        """Walk the in-reference list (used by GUp / TMorph / DCentr)."""
        if isinstance(v, int):
            v = self.find_vertex(v)
        t = self.t
        if t is None:
            yield from v.inn
            return
        t.enter(T.R_NEIGHBORS)
        t.i(2)
        t.r(v.addr + V_INREF_OFF)
        for src in v.inn:
            t.i(C_EDGE_STEP)
            u = self._v.get(src)
            if u is not None:
                t.r(u.addr + V_ID_OFF)
            t.br(T.B_EDGE_LOOP, True)
            t.leave()
            yield src
            t.enter(T.R_NEIGHBORS)
        t.br(T.B_EDGE_LOOP, False)
        t.leave()

    def vertices(self) -> Iterator[Vertex]:
        """Framework primitive *vertex-scan*: iterate all vertex structs via
        the index (sequential index reads, scattered struct reads)."""
        t = self.t
        if t is None:
            yield from self._v.values()
            return
        t.enter(T.R_VERTEX_SCAN)
        for v in list(self._v.values()):
            t.i(C_SCAN_STEP)
            self._stack_touch(t)
            t.r(self._index_base + INDEX_ENTRY * (v.vid % self._index_cap))
            t.r(v.addr + V_ID_OFF)
            t.br(T.B_VERTEX_SCAN, True)
            t.leave()
            yield v
            t.enter(T.R_VERTEX_SCAN)
        t.br(T.B_VERTEX_SCAN, False)
        t.leave()

    def degree(self, v: Vertex | int) -> int:
        """Out-degree, reading the degree field of the vertex struct."""
        if isinstance(v, int):
            v = self.find_vertex(v)
        t = self.t
        if t is not None:
            t.enter(T.R_PROP_GET)
            t.i(C_PROP_GET)
            t.r(v.addr + V_DEG_OFF)
            t.leave()
        return len(v.out)

    # -- property primitives ---------------------------------------------------------
    def _vset(self, v: Vertex, name: str, value: Any) -> None:
        slot = self.vschema.slot(name)
        v.props[slot] = value
        t = self.t
        if t is not None:
            t.enter(T.R_PROP_SET)
            t.i(C_PROP_SET)
            self._stack_touch(t)
            t.w(v.addr + V_PROP_OFF + self.vschema.offset(name))
            t.leave()

    def vset(self, v: Vertex | int, name: str, value: Any) -> None:
        """Framework primitive *update-property* on a vertex."""
        if isinstance(v, int):
            v = self.find_vertex(v)
        self._vset(v, name, value)

    def vget(self, v: Vertex | int, name: str) -> Any:
        """Framework primitive *read-property* on a vertex."""
        if isinstance(v, int):
            v = self.find_vertex(v)
        slot = self.vschema.slot(name)
        t = self.t
        if t is not None:
            t.enter(T.R_PROP_GET)
            t.i(C_PROP_GET)
            self._stack_touch(t)
            t.r(v.addr + V_PROP_OFF + self.vschema.offset(name))
            t.leave()
        return v.props[slot]

    def _eset(self, e: EdgeNode, name: str, value: Any) -> None:
        slot = self.eschema.slot(name)
        e.props[slot] = value
        t = self.t
        if t is not None:
            t.enter(T.R_PROP_SET)
            t.i(C_PROP_SET)
            t.w(e.addr + E_PROP_OFF + self.eschema.offset(name))
            t.leave()

    def eset(self, e: EdgeNode, name: str, value: Any) -> None:
        """Framework primitive *update-property* on an edge."""
        self._eset(e, name, value)

    def eget(self, e: EdgeNode, name: str) -> Any:
        """Framework primitive *read-property* on an edge."""
        slot = self.eschema.slot(name)
        t = self.t
        if t is not None:
            t.enter(T.R_PROP_GET)
            t.i(C_PROP_GET)
            t.r(e.addr + E_PROP_OFF + self.eschema.offset(name))
            t.leave()
        return e.props[slot]

    # -- payload (rich-property) primitives --------------------------------------------
    def payload_set(self, v: Vertex, name: str, value: Any, nbytes: int) -> int:
        """Attach a rich out-of-struct payload (e.g. a CPT) to a vertex.

        Returns the payload's simulated base address; the in-struct pointer
        slot holds ``(addr, value)``.
        """
        slot = self.vschema.slot(name)
        addr = self.alloc.alloc(max(nbytes, 8), tag="payload")
        v.props[slot] = (addr, value)
        t = self.t
        if t is not None:
            t.enter(T.R_PROP_SET)
            t.i(C_PROP_SET)
            self._stack_touch(t)
            t.w(v.addr + V_PROP_OFF + self.vschema.offset(name))
            t.leave()
        return addr

    # -- construction helpers ------------------------------------------------------------
    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]],
                   *, directed: bool = True,
                   vertex_schema: Schema = EMPTY_SCHEMA,
                   edge_schema: Schema = EMPTY_SCHEMA,
                   heap: HeapModel = PACKED_HEAP,
                   skip_duplicates: bool = True) -> "PropertyGraph":
        """Populate a graph from an edge list in one layout pass.

        This is the *graph populating* step of Section 4.1.  The result is
        the graph that :meth:`add_vertex` of every id in
        ``range(n_vertices)`` followed by :meth:`add_edges` builds — the
        same addresses, property lists, adjacency and in-neighbour order,
        allocator state and errors — without a primitive call per arc:
        duplicates go by one sort of the arc keys, and every address comes
        from :meth:`SimAllocator.alloc_many`.  Untraced; GCons is the
        workload that traces construction through the primitives.
        """
        n = int(n_vertices)
        e = np.asarray(edges if isinstance(edges, np.ndarray) else
                       list(edges), dtype=np.int64).reshape(-1, 2)
        # the loop stops at the first row naming no vertex (src checked
        # first), after raising on any duplicate before it
        bad = (e < 0).any(1) | (e >= n).any(1)
        stop = int(np.argmax(bad)) if bad.any() else len(e)
        src, dst = e[:stop, 0], e[:stop, 1]
        # an undirected edge is both arcs, so (d, s) repeats (s, d)
        key = (src * n + dst if directed else
               np.minimum(src, dst) * n + np.maximum(src, dst))
        order = np.argsort(key, kind="stable")
        keep = np.empty(len(key), dtype=bool)
        keep[order] = np.diff(key[order], prepend=-1) != 0
        if not skip_duplicates and not keep.all():
            i = int(np.argmin(keep))
            raise DuplicateEdge(int(src[i]), int(dst[i]))
        if stop < len(e):
            s, d = e[stop].tolist()
            raise VertexNotFound(d if 0 <= s < n else s)
        src, dst = src[keep], dst[keep]
        if not directed:
            # add_edge's order: (s, d) then (d, s), one arc for a self loop
            arcs = np.stack([src, dst, dst, src], 1).reshape(-1, 2)
            twin = np.zeros(len(arcs), dtype=bool)
            twin[1::2] = src == dst
            src, dst = arcs[~twin, 0], arcs[~twin, 1]

        g = cls(vertex_schema, edge_schema, directed=directed, heap=heap)
        alloc = g.alloc
        vaddr = []
        lo, cap = 0, g._index_cap
        while cap < n:      # add_vertex(cap) regrows the index after its struct
            vaddr.append(alloc.alloc_many(np.full(cap + 1 - lo, g._vsize),
                                          "vertex"))
            g._index_base = alloc.alloc_array(2 * cap, INDEX_ENTRY,
                                              tag="index")
            lo, cap = cap + 1, 2 * cap
        g._index_cap = cap
        vaddr.append(alloc.alloc_many(np.full(n - lo, g._vsize), "vertex"))
        eaddr = alloc.alloc_many(np.full(len(src), g._esize), "edge")

        vdef, edef = vertex_schema.defaults(), edge_schema.defaults()
        vs = [Vertex(vid, a, vdef.copy())
              for vid, a in enumerate(np.concatenate(vaddr).tolist())]
        g._v = dict(enumerate(vs))
        outs = [v.out for v in vs]
        inns = [v.inn for v in vs]
        for s, d, a in zip(src.tolist(), dst.tolist(), eaddr.tolist()):
            outs[s][d] = EdgeNode(d, a, edef.copy())
            inns[d].add(s)
        g._n_edges = len(src)
        return g

    # -- state snapshot ------------------------------------------------------
    def state_snapshot(self) -> tuple:
        """Capture mutable run state: every vertex/edge property list, the
        allocator, and the stack-rotation pointer.

        A workload that mutates only properties (no topology changes, no
        vertex/edge inserts or deletes) can be re-run on the same graph
        after :meth:`restore_state` and will observe a graph
        indistinguishable from a fresh build — identical property values,
        identical addresses for any allocations it makes, identical stack
        rotation — and therefore emit an identical trace.  Topology
        mutators (edge deletes, inserts) invalidate the snapshot.
        """
        return (self.alloc.snapshot(), self._sp,
                [list(v.props) for v in self._v.values()],
                [list(e.props) for v in self._v.values()
                 for e in v.out.values()])

    def restore_state(self, state: tuple) -> None:
        """Rewind property values, allocator and stack pointer to a
        :meth:`state_snapshot` taken on this graph (same topology)."""
        alloc_state, sp, vprops, eprops = state
        self.alloc.restore(alloc_state)
        self._sp = sp
        for v, props in zip(self._v.values(), vprops):
            v.props[:] = props
        eit = iter(eprops)
        for v in self._v.values():
            for e in v.out.values():
                e.props[:] = next(eit)
