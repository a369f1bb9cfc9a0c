"""Static graph representations (CSR, COO) and conversions to/from the
dynamic vertex-centric framework representation."""

from .coo import COOGraph
from .convert import (
    compact_ids,
    csr_to_coo,
    to_coo,
    to_csr,
    to_edge_arrays,
)
from .csr import CSRGraph, from_edge_arrays

__all__ = [
    "COOGraph", "CSRGraph", "compact_ids", "csr_to_coo", "from_edge_arrays",
    "to_coo", "to_csr", "to_edge_arrays",
]
