"""Workload infrastructure: base class, result container, traced helpers.

Every GraphBIG workload is a :class:`Workload` subclass tagged with its
computation type (Table 1) and category (Table 4).  Workloads touch the
graph only through framework primitives; their own algorithmic state
(frontier queues, DFS stacks, heaps) lives in :class:`TracedQueue` /
:class:`TracedStack` / :class:`TracedHeap` — small arrays allocated from
the same simulated heap, whose reuse is precisely the "task queues and
temporal local variables" the paper credits for graph computing's high
L1D hit rates (Section 5.2.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from heapq import heappush
from typing import Any

import numpy as np

from ..core.graph import PropertyGraph
from ..core.properties import Field
from ..core.taxonomy import ComputationType, WorkloadCategory
from ..core.trace import FrozenTrace, Tracer


class NullTracer:
    """No-op tracer: lets workload code charge events unconditionally."""

    def r(self, addr: int) -> None: ...
    def w(self, addr: int) -> None: ...
    def i(self, count: int) -> None: ...
    def br(self, site: int, taken: bool) -> None: ...
    def enter(self, rid: int) -> None: ...
    def leave(self) -> None: ...
    def bulk_branch_events(self, sites, taken) -> None: ...

    def bulk_emit(self, addrs, rw, iat, regions, *, n_instrs, fw_instrs,
                  fw_accesses, head_instrs, region_seq,
                  region_instrs) -> None: ...

    def register_region(self, name: str, code_bytes: int = 256) -> int:
        return 0

    def register_branch_site(self) -> int:
        return 0


NULL_TRACER = NullTracer()

#: Common vertex property schema shared by all workloads, mirroring a
#: deployed property graph whose struct layout doesn't change per query.
COMMON_VERTEX_FIELDS = [
    Field("level", default=-1),      # BFS level
    Field("parent", default=-1),     # BFS/DFS tree parent
    Field("order", default=-1),      # DFS discovery order
    Field("color", default=-1),      # graph coloring
    Field("rnd", default=0),         # Luby-Jones random priority
    Field("dist", default=float("inf")),  # shortest-path distance
    Field("core", default=-1),       # k-core number
    Field("comp", default=-1),       # connected-component label
    Field("dc", default=0),          # degree centrality
    Field("bc", default=0.0),        # betweenness centrality
    Field("state", default=0),       # Gibbs variable state
    Field("cpt", payload=0),         # Gibbs CPT payload pointer
]

#: Edge schema: a weight (SPath) — present on every edge as deployed
#: property graphs carry edge metadata.
COMMON_EDGE_FIELDS = [Field("weight", default=1.0)]


def common_vertex_schema():
    """Fresh :class:`Schema` of the shared vertex layout."""
    from ..core.properties import Schema
    return Schema(list(COMMON_VERTEX_FIELDS))


def common_edge_schema():
    """Fresh :class:`Schema` of the shared edge layout."""
    from ..core.properties import Schema
    return Schema(list(COMMON_EDGE_FIELDS))


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    name: str
    outputs: dict[str, Any]
    trace: FrozenTrace | None = None
    params: dict[str, Any] = field(default_factory=dict)
    footprint_bytes: int = 0

    def __repr__(self) -> str:  # pragma: no cover
        keys = ", ".join(self.outputs)
        return f"WorkloadResult({self.name!r}, outputs=[{keys}])"


class Workload(ABC):
    """One GraphBIG workload.

    Subclasses set the class attributes and implement :meth:`kernel`.
    :meth:`run` handles tracer attachment, user-region registration and
    trace freezing, so kernels only contain algorithm + charges.
    """

    NAME: str = ""
    CTYPE: ComputationType = ComputationType.COMP_STRUCT
    CATEGORY: WorkloadCategory = WorkloadCategory.ANALYTICS
    HAS_GPU: bool = False
    KERNEL_CODE_BYTES: int = 448     # user-kernel code footprint (flat stack)

    def run(self, g: PropertyGraph, tracer: Tracer | None = None,
            **params: Any) -> WorkloadResult:
        """Execute the workload kernel on ``g``.

        If ``tracer`` is given it is attached to ``g`` for the duration of
        the kernel and the frozen trace is returned in the result.
        """
        prev = g.t
        ut: Tracer | NullTracer
        if tracer is not None:
            g.attach_tracer(tracer)
            ut = tracer
        else:
            g.detach_tracer()
            ut = NULL_TRACER
        rid = ut.register_region(f"{self.NAME}_kernel",
                                 self.KERNEL_CODE_BYTES)
        ut.enter(rid)
        try:
            outputs = self.kernel(g, ut, **params)
        finally:
            ut.leave()
            g.t = prev
        trace = tracer.freeze() if tracer is not None else None
        return WorkloadResult(self.NAME, outputs, trace=trace, params=params,
                              footprint_bytes=g.alloc.footprint)

    @abstractmethod
    def kernel(self, g: PropertyGraph, t: Tracer | NullTracer,
               **params: Any) -> dict[str, Any]:
        """Algorithm body: returns the outputs dict."""


# -- traced algorithmic containers ------------------------------------------
ENTRY = 8  # bytes per queue/stack/heap slot
C_QUEUE_OP = 3  # instructions of one frontier-queue push or pop
C_HEAP_STEP = 4  # instructions of one node of a heap sift path


class TracedQueue:
    """FIFO frontier queue backed by a circular buffer on the sim heap."""

    def __init__(self, g: PropertyGraph, t: Tracer | NullTracer):
        self._items: list[Any] = []
        self._head = 0
        self.cap = 1024
        self.base = g.alloc.alloc_array(self.cap, ENTRY, tag="queue")
        self.t = t
        self._tail_idx = 0
        self._head_idx = 0

    def push(self, item: Any) -> None:
        self.t.i(C_QUEUE_OP)
        self.t.w(self.base + (self._tail_idx % self.cap) * ENTRY)
        self._tail_idx += 1
        self._items.append(item)

    def pop(self) -> Any:
        if self._head >= len(self._items):
            raise IndexError("pop from empty TracedQueue")
        self.t.i(C_QUEUE_OP)
        self.t.r(self.base + (self._head_idx % self.cap) * ENTRY)
        self._head_idx += 1
        item = self._items[self._head]
        self._head += 1
        # periodically compact the backing list
        if self._head > 4096 and self._head * 2 > len(self._items):
            del self._items[:self._head]
            self._head = 0
        return item

    def slots(self, ordinal):
        """Addresses of the circular-buffer slots the ``ordinal``-th pushes
        write and the ``ordinal``-th pops read."""
        return self.base + (ordinal % self.cap) * ENTRY

    # event shapes of push/pop over a :meth:`slots` column (the grammar of
    # ``repro.core.graph``'s ``*_ops``), for the bulk-emitting kernels
    @staticmethod
    def push_ops(slot: str) -> tuple:
        return (("i", C_QUEUE_OP), ("w", slot, 0))

    @staticmethod
    def pop_ops(slot: str) -> tuple:
        return (("i", C_QUEUE_OP), ("r", slot, 0))

    def __len__(self) -> int:
        return len(self._items) - self._head

    def __bool__(self) -> bool:
        return len(self) > 0


class TracedStack:
    """LIFO stack on the sim heap (DFS)."""

    def __init__(self, g: PropertyGraph, t: Tracer | NullTracer):
        self._items: list[Any] = []
        self.cap = 4096
        self.base = g.alloc.alloc_array(self.cap, ENTRY, tag="stack")
        self.t = t

    def push(self, item: Any) -> None:
        self.t.i(3)
        self.t.w(self.base + (len(self._items) % self.cap) * ENTRY)
        self._items.append(item)

    def pop(self) -> Any:
        if not self._items:
            raise IndexError("pop from empty TracedStack")
        self.t.i(3)
        item = self._items.pop()
        self.t.r(self.base + (len(self._items) % self.cap) * ENTRY)
        return item

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class TracedHeap:
    """Binary min-heap on the sim heap (Dijkstra's priority queue).

    Charges ~log(n) slot touches per operation — the sift path of a real
    array heap — against a contiguous allocation that stays cache-hot.
    """

    def __init__(self, g: PropertyGraph, t: Tracer | NullTracer):
        self._heap: list[Any] = []
        self.cap = 4096
        self.base = g.alloc.alloc_array(self.cap, 2 * ENTRY, tag="heap")
        self.t = t

    def _touch_path(self, pos: int, write: bool) -> None:
        # sift path from pos to root
        while True:
            a = self.base + (pos % self.cap) * 2 * ENTRY
            if write:
                self.t.w(a)
            else:
                self.t.r(a)
            self.t.i(C_HEAP_STEP)
            if pos == 0:
                break
            pos = (pos - 1) // 2

    def push(self, item: Any) -> None:
        self._touch_path(len(self._heap), write=True)
        heappush(self._heap, item)

    def path_slots(self, pos):
        """The sift paths from heap positions ``pos`` up to the root, one
        entry per node: ``(path, level, slot address)`` — index into
        ``pos``, distance from ``pos`` along the path, and the slot
        :meth:`_touch_path` touches there.  A path's length varies with its
        position, so a bulk-emitting kernel declares one item per node,
        ``level`` last in its key."""
        anc = np.asarray(pos, np.int64) + 1     # 1-based: the parent is >> 1
        path = np.arange(len(anc))
        paths, levels, nodes = [], [], []
        while True:
            paths.append(path)
            levels.append(np.full(len(anc), len(levels)))
            nodes.append(anc - 1)
            live = anc > 1
            if not live.any():
                break
            path, anc = path[live], anc[live] >> 1
        return (np.concatenate(paths), np.concatenate(levels),
                self.base + (np.concatenate(nodes) % self.cap) * 2 * ENTRY)

    # event shapes (the grammar of ``repro.core.graph``'s ``*_ops``).  A
    # push at heap length ``L`` is one ``push_ops`` item per node of
    # ``path_slots(L)``; a pop that leaves ``L`` entries sifts
    # ``path_slots(max(L - 1, 0))`` the same way, then runs ``pop_ops``.
    @staticmethod
    def push_ops(slot: str) -> tuple:
        return (("w", slot, 0), ("i", C_HEAP_STEP))

    @staticmethod
    def pop_ops(root: str) -> tuple:
        return (("r", root, 0),)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
