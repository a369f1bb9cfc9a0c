"""Compressed Sparse Row (CSR) static graph representation.

CSR (paper Fig. 2(b)) organizes vertices, edges and properties in separate
compact arrays: ``row_ptr[v] .. row_ptr[v+1]`` indexes ``col_idx`` slots
holding the targets of ``v``'s outgoing edges.  The compact layout saves
memory and gives sequential-index locality — but supports no structural
updates, which is why real graph systems use the vertex-centric dynamic
representation instead (Section 2 "Data representation").

The class carries simulated base addresses for each array (allocated
contiguously from a packed heap) so that traversals over CSR can be traced
and contrasted against the vertex-centric layout (Fig. 2 / Fig. 12
discussions).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.memmodel import PACKED_HEAP, SimAllocator
from ..core import trace as T

IDX_SIZE = 8      # bytes per row_ptr / col_idx element (int64)
VAL_SIZE = 8      # bytes per value / property element (float64)


class CSRGraph:
    """Immutable CSR graph over dense vertex ids ``0..n-1``.

    Parameters
    ----------
    row_ptr:
        int64 array of length ``n+1``; must start at 0, be monotonically
        non-decreasing, and end at ``len(col_idx)``.
    col_idx:
        int64 array of edge targets, grouped by source.
    vals:
        Optional float64 edge values (weights), same length as ``col_idx``.
    """

    __slots__ = ("row_ptr", "col_idx", "vals", "n", "m",
                 "base_row", "base_col", "base_val", "base_vprop", "alloc")

    def __init__(self, row_ptr: np.ndarray, col_idx: np.ndarray,
                 vals: np.ndarray | None = None):
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        if row_ptr.ndim != 1 or col_idx.ndim != 1:
            raise ValueError("row_ptr and col_idx must be 1-D")
        if len(row_ptr) == 0 or row_ptr[0] != 0:
            raise ValueError("row_ptr must start with 0")
        if row_ptr[-1] != len(col_idx):
            raise ValueError("row_ptr[-1] must equal len(col_idx)")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        n = len(row_ptr) - 1
        if len(col_idx) and (col_idx.min() < 0 or col_idx.max() >= n):
            raise ValueError("col_idx entries must be valid vertex ids")
        if vals is not None:
            vals = np.ascontiguousarray(vals, dtype=np.float64)
            if len(vals) != len(col_idx):
                raise ValueError("vals must parallel col_idx")
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.vals = vals
        self.n = n
        self.m = len(col_idx)
        # contiguous simulated layout: the whole graph is four flat arrays
        self.alloc = SimAllocator(PACKED_HEAP)
        self.base_row = self.alloc.alloc_array(n + 1, IDX_SIZE, tag="csr_row")
        self.base_col = self.alloc.alloc_array(max(self.m, 1), IDX_SIZE,
                                               tag="csr_col")
        self.base_val = self.alloc.alloc_array(max(self.m, 1), VAL_SIZE,
                                               tag="csr_val")
        self.base_vprop = self.alloc.alloc_array(max(n, 1), VAL_SIZE,
                                                 tag="csr_vprop")

    # -- queries -------------------------------------------------------------
    def degree(self, v: int) -> int:
        """Out-degree of ``v``."""
        return int(self.row_ptr[v + 1] - self.row_ptr[v])

    def degrees(self) -> np.ndarray:
        """Out-degree array for all vertices."""
        return np.diff(self.row_ptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Targets of ``v``'s outgoing edges (a view, do not mutate)."""
        return self.col_idx[self.row_ptr[v]:self.row_ptr[v + 1]]

    def edge_values(self, v: int) -> np.ndarray:
        """Values of ``v``'s outgoing edges (requires ``vals``)."""
        if self.vals is None:
            raise ValueError("CSR graph has no edge values")
        return self.vals[self.row_ptr[v]:self.row_ptr[v + 1]]

    def has_edge(self, src: int, dst: int) -> bool:
        """Membership test by scanning ``src``'s row."""
        return bool(np.any(self.neighbors(src) == dst))

    # -- traced traversal (Fig. 2 representation contrast) --------------------
    def traced_neighbors(self, v: int, tracer: T.Tracer) -> Iterator[int]:
        """Neighbour traversal emitting the CSR address stream: two
        row-pointer loads then sequential ``col_idx`` loads — the locality
        contrast with the vertex-centric linked-list walk."""
        tracer.enter(T.R_NEIGHBORS)
        tracer.i(4)
        tracer.r(self.base_row + IDX_SIZE * v)
        tracer.r(self.base_row + IDX_SIZE * (v + 1))
        lo, hi = int(self.row_ptr[v]), int(self.row_ptr[v + 1])
        for i in range(lo, hi):
            tracer.i(5)
            tracer.r(self.base_col + IDX_SIZE * i)
            tracer.br(T.B_EDGE_LOOP, True)
            tracer.leave()
            yield int(self.col_idx[i])
            tracer.enter(T.R_NEIGHBORS)
        tracer.br(T.B_EDGE_LOOP, False)
        tracer.leave()

    def vprop_addr(self, v: int) -> int:
        """Simulated address of vertex ``v``'s slot in the compact
        property array."""
        return self.base_vprop + VAL_SIZE * v

    # -- transforms ----------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """CSR of the transposed (reversed) graph."""
        order = np.argsort(self.col_idx, kind="stable")
        new_col = np.empty(self.m, dtype=np.int64)
        src_of_edge = np.repeat(np.arange(self.n), self.degrees())
        new_col[:] = src_of_edge[order]
        counts = np.bincount(self.col_idx, minlength=self.n)
        new_row = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=new_row[1:])
        vals = self.vals[order] if self.vals is not None else None
        return CSRGraph(new_row, new_col, vals)

    def undirected(self) -> "CSRGraph":
        """Symmetrized CSR (each arc mirrored; duplicates removed)."""
        src = np.repeat(np.arange(self.n), self.degrees())
        return from_arc_keys(self.n, np.concatenate(
            [src * self.n + self.col_idx, self.col_idx * self.n + src]))

    def __repr__(self) -> str:  # pragma: no cover
        return f"CSRGraph(n={self.n}, m={self.m})"


def from_edge_arrays(n: int, src: np.ndarray, dst: np.ndarray,
                     vals: np.ndarray | None = None) -> CSRGraph:
    """Build a CSR from parallel src/dst arrays (edges get sorted by src,
    preserving input order within a row)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same shape")
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    v = None
    if vals is not None:
        v = np.asarray(vals, dtype=np.float64)[order]
    return CSRGraph(row_ptr, dst[order], v)


def from_arc_keys(n: int, key: np.ndarray) -> CSRGraph:
    """The sorted CSR of the arcs ``key = src * n + dst`` (any order,
    duplicates dropped): rows ascending, neighbours ascending within a
    row.  Sort, then drop repeats: ``np.unique`` gives the same keys at
    several times the cost."""
    key = np.sort(key)
    key = key[np.diff(key, prepend=-1) != 0]
    return from_edge_arrays(n, key // n, key % n)
