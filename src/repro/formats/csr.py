"""Compressed Sparse Row (CSR) static graph representation.

CSR (paper Fig. 2(b)) organizes vertices, edges and properties in separate
compact arrays: ``row_ptr[v] .. row_ptr[v+1]`` indexes ``col_idx`` slots
holding the targets of ``v``'s outgoing edges.  The compact layout saves
memory and gives sequential-index locality — but supports no structural
updates, which is why real graph systems use the vertex-centric dynamic
representation instead (Section 2 "Data representation").

The class carries simulated base addresses for each array (allocated
contiguously from a packed heap), so the GPU model's accesses and Fig. 2's
traced CSR walk (``benchmarks/paper.py``) land on a contiguous layout to
contrast with the vertex-centric one.
"""

from __future__ import annotations

import numpy as np

from ..core.memmodel import PACKED_HEAP, SimAllocator

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

    Unweighted: the ``base_val`` array is laid out (the GPU model reads
    its slots) but holds no values.
    """

    __slots__ = ("row_ptr", "col_idx", "n", "m",
                 "base_row", "base_col", "base_val", "base_vprop", "alloc")

    def __init__(self, row_ptr: np.ndarray, col_idx: np.ndarray):
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
        self.row_ptr = row_ptr
        self.col_idx = col_idx
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
    def degrees(self) -> np.ndarray:
        """Out-degree array for all vertices."""
        return np.diff(self.row_ptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Targets of ``v``'s outgoing edges (a view, do not mutate)."""
        return self.col_idx[self.row_ptr[v]:self.row_ptr[v + 1]]

    def vprop_addr(self, v: int) -> int:
        """Simulated address of vertex ``v``'s slot in the compact
        property array."""
        return self.base_vprop + VAL_SIZE * v

    # -- transforms ----------------------------------------------------------
    def undirected(self) -> "CSRGraph":
        """Symmetrized CSR (each arc mirrored; duplicates removed)."""
        src = np.repeat(np.arange(self.n), self.degrees())
        return from_arc_keys(self.n, np.concatenate(
            [src * self.n + self.col_idx, self.col_idx * self.n + src]))

    def __repr__(self) -> str:  # pragma: no cover
        return f"CSRGraph(n={self.n}, m={self.m})"


def from_edge_arrays(n: int, src: np.ndarray, dst: np.ndarray) -> CSRGraph:
    """Build an unweighted CSR from parallel src/dst arrays (edges get
    sorted by src, preserving input order within a row)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same shape")
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CSRGraph(row_ptr, dst[order])


def from_arc_keys(n: int, key: np.ndarray) -> CSRGraph:
    """The sorted CSR of the arcs ``key = src * n + dst`` (any order,
    duplicates dropped): rows ascending, neighbours ascending within a
    row.  Sort, then drop repeats: ``np.unique`` gives the same keys at
    several times the cost."""
    key = np.sort(key)
    key = key[np.diff(key, prepend=-1) != 0]
    return from_edge_arrays(n, key // n, key % n)
