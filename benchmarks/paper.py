"""The paper's own tables and annotations, which only the figure benches
print: Tables 1-2's qualitative profiles, Table 3's prior-benchmark
landscape, Section 4.1's use-case
catalogue and workload-selection flow (Figs. 3-4), the ``[paper: ...]``
note a bench prints beside its measured table, Fig. 9's workload set,
Figs. 9/13's workload x dataset pivot and its spread, and Fig. 2's traced CSR walk.  The product
(``src/repro``) runs none of them; the tests import them from here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from repro.core import trace as T
from repro.core.taxonomy import ComputationType, DataSource
from repro.formats.csr import IDX_SIZE, CSRGraph
from repro.harness.runner import Row
from repro.workloads import WORKLOADS

# -- Tables 1-2: what each computation and data-source type is like ---------

@dataclass(frozen=True)
class ComputationProfile:
    """Qualitative feature vector of a computation type (Table 1)."""

    ctype: ComputationType
    feature: str
    example: str
    read_intensity: str      # low / medium / high
    write_intensity: str
    numeric_intensity: str


COMPUTATION_PROFILES: dict[ComputationType, ComputationProfile] = {
    ComputationType.COMP_STRUCT: ComputationProfile(
        ComputationType.COMP_STRUCT,
        feature="Irregular access pattern, heavy read accesses",
        example="BFS traversal",
        read_intensity="high", write_intensity="low",
        numeric_intensity="low"),
    ComputationType.COMP_PROP: ComputationProfile(
        ComputationType.COMP_PROP,
        feature="Heavy numeric operations on properties",
        example="Belief propagation",
        read_intensity="medium", write_intensity="medium",
        numeric_intensity="high"),
    ComputationType.COMP_DYN: ComputationProfile(
        ComputationType.COMP_DYN,
        feature="Dynamic graph, dynamic memory footprint",
        example="Streaming graph",
        read_intensity="medium", write_intensity="high",
        numeric_intensity="low"),
}


@dataclass(frozen=True)
class DataSourceProfile:
    """Qualitative feature vector of a data-source type (Table 2)."""

    source: DataSource
    example: str
    feature: str


DATA_SOURCE_PROFILES: dict[DataSource, DataSourceProfile] = {
    DataSource.SOCIAL: DataSourceProfile(
        DataSource.SOCIAL, "Twitter graph",
        "Large connected components, small shortest path lengths, "
        "high degree variance"),
    DataSource.INFORMATION: DataSourceProfile(
        DataSource.INFORMATION, "Knowledge graph",
        "Large vertex degrees, large small-hop neighbourhoods"),
    DataSource.NATURE: DataSourceProfile(
        DataSource.NATURE, "Gene network",
        "Complex properties, structured topology"),
    DataSource.TECHNOLOGY: DataSourceProfile(
        DataSource.TECHNOLOGY, "Road network",
        "Regular topology, small vertex degrees"),
    DataSource.SYNTHETIC: DataSourceProfile(
        DataSource.SYNTHETIC, "LDBC social-network generator",
        "Facebook-like social features at arbitrary scale"),
}


# -- Table 3: the prior graph-benchmark landscape ----------------------------
# Most earlier efforts cover only CompStruct workloads over static
# CSR-style data with no framework, the gap GraphBIG's full-spectrum
# design fills.


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


# -- Section 4.1: use cases and workload selection (Figs. 3-4) ---------------
# The 21 System G use cases across six application categories (Fig.
# 4(B)), the per-workload use-case counts (Fig. 4(A): BFS used by 10 use
# cases, TC by 4), and the summarize -> select -> merge/reselect flow of
# Fig. 3 that guarantees every computation type is covered.

#: The six application categories of Fig. 4(B) with their use-case share.
CATEGORIES: dict[str, float] = {
    "cognitive computing": 0.24,
    "exploration and science": 0.24,
    "data warehouse augmentation": 0.14,
    "operations analysis": 0.14,
    "security": 0.14,
    "data exploration / 360 degree view": 0.10,
}


@dataclass(frozen=True)
class UseCase:
    """One industrial use case: its category and the workloads it employs."""

    name: str
    category: str
    workloads: tuple[str, ...]
    data_sources: tuple[DataSource, ...]


# 21 use cases; workload memberships are arranged so that the per-workload
# counts reproduce Fig. 4(A): BFS=10 ... TC=4.
USE_CASES: tuple[UseCase, ...] = (
    UseCase("fraud-ring detection", "security",
            ("BFS", "CComp", "DCentr"), (DataSource.SOCIAL,)),
    UseCase("cybersecurity flow analysis", "security",
            ("BFS", "SPath", "GCons"), (DataSource.TECHNOLOGY,)),
    UseCase("insider-threat monitoring", "security",
            ("BFS", "GUp", "BCentr"), (DataSource.SOCIAL,)),
    UseCase("drug-target discovery", "cognitive computing",
            ("Gibbs", "TMorph", "kCore"), (DataSource.NATURE,)),
    UseCase("clinical decision support", "cognitive computing",
            ("Gibbs", "BFS", "SPath"), (DataSource.NATURE,)),
    UseCase("visual question answering", "cognitive computing",
            ("Gibbs", "DFS", "TC"), (DataSource.INFORMATION,)),
    UseCase("expert-system diagnosis", "cognitive computing",
            ("Gibbs", "TMorph", "DFS"), (DataSource.NATURE,)),
    UseCase("knowledge-base completion", "cognitive computing",
            ("BFS", "TC", "DCentr"), (DataSource.INFORMATION,)),
    UseCase("gene-interaction exploration", "exploration and science",
            ("kCore", "CComp", "GColor"), (DataSource.NATURE,)),
    UseCase("materials-science screening", "exploration and science",
            ("DFS", "GCons", "GColor"), (DataSource.NATURE,)),
    UseCase("citation-impact analysis", "exploration and science",
            ("BCentr", "DCentr", "kCore"), (DataSource.INFORMATION,)),
    UseCase("protein-pathway mapping", "exploration and science",
            ("SPath", "CComp", "TMorph"), (DataSource.NATURE,)),
    UseCase("telescope-survey clustering", "exploration and science",
            ("CComp", "GCons", "kCore"), (DataSource.SYNTHETIC,)),
    UseCase("ETL graph ingestion", "data warehouse augmentation",
            ("GCons", "GUp", "BFS"), (DataSource.INFORMATION,)),
    UseCase("master-data deduplication", "data warehouse augmentation",
            ("CComp", "TC", "GUp"), (DataSource.INFORMATION,)),
    UseCase("schema-lineage tracking", "data warehouse augmentation",
            ("DFS", "GCons", "BFS"), (DataSource.INFORMATION,)),
    UseCase("supply-chain optimization", "operations analysis",
            ("SPath", "BCentr", "GUp"), (DataSource.TECHNOLOGY,)),
    UseCase("datacenter dependency analysis", "operations analysis",
            ("BFS", "DFS", "GColor"), (DataSource.TECHNOLOGY,)),
    UseCase("road-traffic planning", "operations analysis",
            ("SPath", "BFS", "DCentr"), (DataSource.TECHNOLOGY,)),
    UseCase("social recommendation", "data exploration / 360 degree view",
            ("BFS", "TC", "BCentr", "DCentr"), (DataSource.SOCIAL,)),
    UseCase("customer 360 view", "data exploration / 360 degree view",
            ("GUp", "GCons", "kCore", "BCentr"), (DataSource.SOCIAL,)),
)


def workload_usecase_counts() -> dict[str, int]:
    """Number of use cases employing each workload (Fig. 4(A))."""
    c: Counter[str] = Counter()
    for uc in USE_CASES:
        for w in uc.workloads:
            c[w] += 1
    return dict(c)


def category_distribution() -> dict[str, float]:
    """Fraction of use cases per application category (Fig. 4(B))."""
    c: Counter[str] = Counter(uc.category for uc in USE_CASES)
    total = sum(c.values())
    return {k: v / total for k, v in c.items()}


def select_workloads(min_usecases: int = 4) -> list[str]:
    """The *select* step of Fig. 3: keep workloads by popularity."""
    return sorted((w for w, n in workload_usecase_counts().items()
                   if n >= min_usecases),
                  key=lambda w: -workload_usecase_counts()[w])


def coverage_check(selected: list[str]) -> set[ComputationType]:
    """The *merge/reselect* step of Fig. 3: computation types not yet
    covered by ``selected`` (empty set = full coverage)."""
    covered = {WORKLOADS[w].CTYPE for w in selected if w in WORKLOADS}
    return set(ComputationType) - covered


#: Workloads that can take every input dataset (the paper's Fig. 9 set
#: excludes the ones that cannot — Gibbs needs a Bayesian network, GCons
#: consumes an edge list, TMorph needs a DAG).
DATA_SENSITIVE_WORKLOADS = ("BFS", "DFS", "SPath", "kCore", "CComp",
                            "TC", "DCentr")


# -- bench rendering ---------------------------------------------------------

def paper_note(text: str) -> str:
    """Standard 'paper reports ...' annotation line."""
    return f"  [paper: {text}]"


def pivot(rows: list[Row], metric: str, gpu: bool = False
          ) -> dict[str, dict[str, float]]:
    """``{workload: {dataset: value}}`` for one metric (Figs. 9 and 13:
    the data-sensitivity views over the five Table 7 datasets)."""
    out: dict[str, dict[str, float]] = {}
    for r in rows:
        m = r.gpu if gpu else r.cpu
        if m is None:
            continue
        out.setdefault(r.workload, {})[r.dataset] = m.summary()[metric]
    return out


def spread(values: dict[str, float]) -> float:
    """Max/min ratio across datasets — the sensitivity magnitude."""
    vals = [v for v in values.values() if v > 0]
    if not vals:
        return 1.0
    return max(vals) / min(vals)


# -- Fig. 2: the CSR side of the representation contrast ---------------------

def traced_neighbors(csr: CSRGraph, v: int,
                     tracer: T.Tracer) -> Iterator[int]:
    """Neighbour traversal emitting the CSR address stream: two
    row-pointer loads then sequential ``col_idx`` loads — the locality
    contrast with the vertex-centric linked-list walk."""
    tracer.enter(T.R_NEIGHBORS)
    tracer.i(4)
    tracer.r(csr.base_row + IDX_SIZE * v)
    tracer.r(csr.base_row + IDX_SIZE * (v + 1))
    lo, hi = int(csr.row_ptr[v]), int(csr.row_ptr[v + 1])
    for i in range(lo, hi):
        tracer.i(5)
        tracer.r(csr.base_col + IDX_SIZE * i)
        tracer.br(T.B_EDGE_LOOP, True)
        tracer.leave()
        yield int(csr.col_idx[i])
        tracer.enter(T.R_NEIGHBORS)
    tracer.br(T.B_EDGE_LOOP, False)
    tracer.leave()
