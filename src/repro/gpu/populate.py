"""Graph populating step: dynamic vertex-centric graph -> GPU CSR/COO.

Section 4.1: "In the graph populating step, the dynamic vertex-centric
graph data in CPU main memory is converted and transferred to GPU side",
where it is organized as CSR/COO.  The paper's speedup comparisons exclude
this time ("the major concern is in-core computation time"), but the model
accounts it for end-to-end studies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.graph import PropertyGraph
from ..formats.convert import to_coo, to_csr
from ..formats.coo import COOGraph
from ..formats.csr import CSRGraph

#: PCIe gen3 x16 effective host->device bandwidth (bytes/s).
PCIE_BW = 12e9

#: Host-side conversion throughput (edges/s) of the flatten+sort pass.
CONVERT_RATE = 150e6


@dataclass
class PopulateResult:
    """Device-resident graph plus the modelled populate cost."""

    csr: CSRGraph
    coo: COOGraph
    orig_ids: "object"
    bytes_transferred: int
    convert_time: float
    transfer_time: float

    @property
    def total_time(self) -> float:
        return self.convert_time + self.transfer_time


def populate(g: PropertyGraph) -> PopulateResult:
    """Convert ``g`` to unweighted CSR+COO and model the host->device
    transfer."""
    csr, ids = to_csr(g)
    coo, _ = to_coo(g)
    nbytes = (8 * (csr.n + 1)          # row_ptr
              + 8 * csr.m              # col_idx
              + 8 * 2 * coo.m          # coo src/dst
              + 8 * csr.n)             # property array
    return PopulateResult(
        csr=csr, coo=coo, orig_ids=ids,
        bytes_transferred=nbytes,
        convert_time=csr.m / CONVERT_RATE,
        transfer_time=nbytes / PCIE_BW,
    )
