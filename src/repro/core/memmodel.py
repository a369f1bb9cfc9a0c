"""Simulated heap: maps framework objects to a virtual address space.

The architectural behaviour GraphBIG characterizes (L2/L3 miss rates, DTLB
penalty, CSR-vs-vertex-centric locality) is a property of *where objects live
in memory*.  A Python reproduction cannot use real object addresses — CPython
pointers say nothing about a C++ framework's layout — so every framework
allocation (vertex struct, edge node, index array, CSR array, queue, payload)
is assigned a virtual address by :class:`SimAllocator`.

Two layout regimes matter in the paper:

* **vertex-centric dynamic representation** — each vertex struct and each
  edge node is a separate heap allocation made at insertion time.  Insertion
  order interleaves vertices and edges and (on an aged heap) scatters related
  objects; traversals become pointer chasing with poor spatial locality.
* **CSR/COO static representation** — a handful of large contiguous arrays;
  sequential index arithmetic gives good locality.

:class:`HeapModel` captures the knobs (alignment, inter-allocation scatter,
aged-heap shuffling) so benchmarks can contrast the regimes (paper Fig. 2
discussion, Fig. 12 "CSR brings better locality than the dynamic layout").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default base of the simulated heap (arbitrary, page aligned).
HEAP_BASE = 0x5600_0000_0000

#: Page size used by the DTLB model (bytes).
PAGE_SIZE = 4096


@dataclass(frozen=True)
class HeapModel:
    """Configuration of the simulated allocator.

    Parameters
    ----------
    align:
        Allocation alignment in bytes (malloc-style 16).
    scatter:
        Mean random gap (bytes) inserted between consecutive allocations,
        emulating allocator metadata, size-class rounding and fragmentation
        of a long-lived process heap.  0 = tightly packed (fresh arena).
    seed:
        RNG seed for the scatter gaps (deterministic runs).
    """

    align: int = 16
    scatter: int = 0
    seed: int = 7

    def __post_init__(self):
        if self.align <= 0 or self.align & (self.align - 1):
            raise ValueError("align must be a positive power of two")
        if self.scatter < 0:
            raise ValueError("scatter must be >= 0")


#: Fresh, tightly packed arena — what a bulk CSR build sees.
PACKED_HEAP = HeapModel(scatter=0)

#: Aged heap of a long-running graph store — what dynamic inserts see.
AGED_HEAP = HeapModel(scatter=96)


#: Size of one allocator arena; every :class:`SimAllocator` instance gets
#: its own arena so addresses from different graphs/structures never alias.
ARENA_SIZE = 1 << 38

_next_arena_index = 0


def _claim_arena() -> int:
    global _next_arena_index
    base = HEAP_BASE + _next_arena_index * ARENA_SIZE
    _next_arena_index += 1
    return base


class SimAllocator:
    """Bump allocator over a simulated virtual address space.

    Addresses are plain ints; nothing is ever stored at them.  The allocator
    only exists so the tracer can emit a realistic address stream.  Each
    instance claims a disjoint arena, so simultaneously-live
    graphs (e.g. TMorph's source DAG and moral graph) never alias.
    """

    __slots__ = ("model", "base", "_cursor", "_rng", "bytes_allocated",
                 "n_allocs", "_tags")

    def __init__(self, model: HeapModel = PACKED_HEAP):
        self.model = model
        self.base = _claim_arena()
        self._cursor = self.base
        self._rng = np.random.default_rng(model.seed)
        self.bytes_allocated = 0
        self.n_allocs = 0
        self._tags: dict[str, int] = {}

    def alloc(self, size: int, tag: str | None = None) -> int:
        """Allocate ``size`` bytes; return the (aligned) base address."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        a = self.model.align
        addr = (self._cursor + a - 1) & ~(a - 1)
        self._cursor = addr + size
        if self.model.scatter:
            # Geometric-ish gap: mean = scatter, keeps layout deterministic.
            self._cursor += int(self._rng.integers(0, 2 * self.model.scatter + 1))
        self.bytes_allocated += size
        self.n_allocs += 1
        if tag is not None:
            self._tags[tag] = self._tags.get(tag, 0) + size
        return addr

    def alloc_array(self, count: int, elem_size: int, tag: str | None = None) -> int:
        """Allocate a contiguous array of ``count`` elements."""
        return self.alloc(count * elem_size, tag=tag)

    def alloc_many(self, sizes: np.ndarray, tag: str | None = None) -> np.ndarray:
        """:meth:`alloc` of each of ``sizes`` in order, in one pass.

        Returns the int64 addresses and leaves the allocator — cursor,
        counters, tags and the scatter RNG — exactly as that loop of
        :meth:`alloc` calls would.  Every address is aligned, so the next
        one is this one plus ``size + gap`` rounded up to the alignment:
        the addresses are an exclusive cumsum from the first, and the gaps
        are one sized draw (the same values, and the same generator state
        after, as one scalar draw per allocation).
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if not len(sizes):
            return sizes
        if int(sizes.min()) <= 0:
            raise ValueError("allocation size must be positive, got "
                             f"{int(sizes.min())}")
        a = self.model.align
        step = sizes
        if self.model.scatter:
            step = sizes + self._rng.integers(0, 2 * self.model.scatter + 1,
                                              size=len(sizes))
        addrs = np.empty(len(sizes), dtype=np.int64)
        addrs[0] = (self._cursor + a - 1) & ~(a - 1)
        np.cumsum((step[:-1] + a - 1) & ~(a - 1), out=addrs[1:])
        addrs[1:] += addrs[0]
        self._cursor = int(addrs[-1] + step[-1])
        total = int(sizes.sum())
        self.bytes_allocated += total
        self.n_allocs += len(sizes)
        if tag is not None:
            self._tags[tag] = self._tags.get(tag, 0) + total
        return addrs

    @property
    def footprint(self) -> int:
        """Total bytes allocated (the workload's memory footprint)."""
        return self.bytes_allocated

    def snapshot(self) -> tuple:
        """Opaque, immutable capture of the allocator state.

        Restoring it replays the allocator exactly: the same sequence of
        ``alloc`` calls after a restore yields the same addresses
        (including the aged-heap scatter gaps, whose RNG state is part of
        the capture).  Used by the harness to re-run property-only
        workloads on a cached graph without address drift.
        """
        return (self._cursor, self.bytes_allocated, self.n_allocs,
                self._rng.bit_generator.state, dict(self._tags))

    def restore(self, state: tuple) -> None:
        """Rewind to a :meth:`snapshot` taken on this allocator."""
        (self._cursor, self.bytes_allocated, self.n_allocs,
         rng_state, tags) = state
        self._rng.bit_generator.state = rng_state
        self._tags = dict(tags)

    def tag_bytes(self, tag: str) -> int:
        """Bytes allocated under ``tag`` (e.g. 'vertex', 'edge', 'csr')."""
        return self._tags.get(tag, 0)
