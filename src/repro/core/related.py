"""Prior graph-benchmark landscape — the paper's Table 3.

Encodes the comparison GraphBIG draws against earlier benchmarking
efforts: most cover only CompStruct workloads over static CSR-style data
with no framework, which is exactly the gap GraphBIG's full-spectrum
design fills.  Used by the Table 3/4 coverage bench and handy for
documentation tooling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .taxonomy import ComputationType


@dataclass(frozen=True)
class PriorBenchmark:
    """One row of Table 3."""

    name: str
    graph_workloads: str
    framework: str          # "NA" when no framework is modelled
    data_representation: str
    computation_types: tuple[ComputationType, ...]
    data_support: str


TABLE3: tuple[PriorBenchmark, ...] = (
    PriorBenchmark("SPEC int", "mcf, astar", "NA", "Arrays",
                   (ComputationType.COMP_STRUCT,), "Data type 4"),
    PriorBenchmark("CloudSuite", "TunkRank", "GraphLab", "Vertex-centric",
                   (ComputationType.COMP_STRUCT,), "Data type 1"),
    PriorBenchmark("Graph 500", "Reference code", "NA", "CSR",
                   (ComputationType.COMP_STRUCT,), "Synthetic data"),
    PriorBenchmark("BigDataBench", "4 workloads", "Hadoop", "Tables",
                   (ComputationType.COMP_STRUCT,), "Data type 1"),
    PriorBenchmark("SSCA", "4 kernels", "NA", "CSR",
                   (ComputationType.COMP_STRUCT,), "Synthetic data"),
    PriorBenchmark("PBBS", "5 workloads", "NA", "CSR",
                   (ComputationType.COMP_STRUCT,), "Synthetic data"),
    PriorBenchmark("Parboil", "GPU-BFS", "NA", "CSR",
                   (ComputationType.COMP_STRUCT,), "Synthetic data"),
    PriorBenchmark("Rodinia", "3 GPU kernels", "NA", "CSR",
                   (ComputationType.COMP_STRUCT,), "Synthetic data"),
    PriorBenchmark("Lonestar", "3 GPU kernels", "NA", "CSR",
                   (ComputationType.COMP_STRUCT,), "Synthetic data"),
    PriorBenchmark("GraphBIG", "12 CPU + 8 GPU workloads",
                   "IBM System G", "Vertex-centric/CSR",
                   (ComputationType.COMP_STRUCT,
                    ComputationType.COMP_PROP,
                    ComputationType.COMP_DYN),
                   "All types & synthetic data"),
)


def coverage_gap() -> dict[str, set[ComputationType]]:
    """Computation types each prior benchmark misses (GraphBIG: none)."""
    full = set(ComputationType)
    return {b.name: full - set(b.computation_types) for b in TABLE3}
