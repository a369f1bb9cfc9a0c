"""Conversions between the dynamic vertex-centric graph and CSR/COO.

This is the *graph populating* step of Section 4.1: GraphBIG's GPU
benchmarks convert the dynamic vertex-centric CPU graph into CSR/COO before
transferring it to device memory.  Vertex ids are compacted to a dense
``0..n-1`` range (dynamic graphs can have holes after deletions); the
mapping is returned so results can be reported in original ids.
"""

from __future__ import annotations

import numpy as np

from ..core.graph import PropertyGraph
from .coo import COOGraph
from .csr import CSRGraph, from_edge_arrays


def compact_ids(g: PropertyGraph) -> tuple[np.ndarray, dict[int, int]]:
    """Return ``(orig_ids_sorted, orig_id -> dense_id)`` for ``g``."""
    ids = np.asarray(sorted(g.vertex_ids()), dtype=np.int64)
    return ids, {int(v): i for i, v in enumerate(ids)}


def to_edge_arrays(g: PropertyGraph
                   ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten ``g`` to ``(n, src, dst, orig_ids)`` with dense ids."""
    ids, remap = compact_ids(g)
    src: list[int] = []
    dst: list[int] = []
    tracer = g.detach_tracer()   # populate/transfer is not part of the kernel
    try:
        for vid in ids:
            v = g.find_vertex(int(vid))
            for d in v.out:
                src.append(remap[int(vid)])
                dst.append(remap[d])
    finally:
        if tracer is not None:
            g.attach_tracer(tracer)
    return (len(ids),
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            ids)


def to_csr(g: PropertyGraph) -> tuple[CSRGraph, np.ndarray]:
    """Convert to an unweighted CSR; returns ``(csr, orig_ids)``."""
    n, src, dst, ids = to_edge_arrays(g)
    return from_edge_arrays(n, src, dst), ids


def to_coo(g: PropertyGraph) -> tuple[COOGraph, np.ndarray]:
    """Convert to an unweighted COO; returns ``(coo, orig_ids)``."""
    n, src, dst, ids = to_edge_arrays(g)
    return COOGraph(n, src, dst), ids


def csr_to_coo(csr: CSRGraph) -> COOGraph:
    """Expand a CSR's implicit row structure into explicit sources."""
    src = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    return COOGraph(csr.n, src, csr.col_idx.copy())
