"""Coordinate-list (COO) static graph representation.

COO (paper Section 2) replaces CSR's vertex array with an explicit array of
source vertices per edge — the natural layout for *edge-centric* GPU kernels
(Soman connected components, edge-centric triangle counting), where each
thread owns one edge and per-thread work is uniform (the paper's explanation
for CComp/TC's low branch divergence, Fig. 10).
"""

from __future__ import annotations

import numpy as np

from ..core.memmodel import PACKED_HEAP, SimAllocator

IDX_SIZE = 8
VAL_SIZE = 8


class COOGraph:
    """Immutable COO graph: parallel ``src``/``dst`` arrays over dense
    vertex ids ``0..n-1`` (unweighted, as :class:`CSRGraph`)."""

    __slots__ = ("n", "m", "src", "dst",
                 "base_src", "base_dst", "base_val", "alloc")

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray):
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be parallel 1-D arrays")
        if len(src) and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= n):
            raise ValueError("edge endpoints must be valid vertex ids")
        self.n = n
        self.m = len(src)
        self.src = src
        self.dst = dst
        self.alloc = SimAllocator(PACKED_HEAP)
        self.base_src = self.alloc.alloc_array(max(self.m, 1), IDX_SIZE,
                                               tag="coo_src")
        self.base_dst = self.alloc.alloc_array(max(self.m, 1), IDX_SIZE,
                                               tag="coo_dst")
        self.base_val = self.alloc.alloc_array(max(self.m, 1), VAL_SIZE,
                                               tag="coo_val")

    def __repr__(self) -> str:  # pragma: no cover
        return f"COOGraph(n={self.n}, m={self.m})"
