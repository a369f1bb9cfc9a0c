"""Graph-computing taxonomy: computation types and data-source types.

Encodes the paper's Table 1 (graph computation types) and Table 2 (graph
data sources) as first-class metadata.  Every workload in
:mod:`repro.workloads` is tagged with a :class:`ComputationType`; every
generator in :mod:`repro.datagen` is tagged with a :class:`DataSource`.
The characterization harness groups results by these tags (Figs. 5–9, 13).
"""

from __future__ import annotations

from enum import Enum


class ComputationType(str, Enum):
    """Paper Table 1 — the three graph computation types."""

    #: Computation on the graph structure: irregular access pattern, heavy
    #: read accesses (e.g. BFS traversal).
    COMP_STRUCT = "CompStruct"
    #: Computation on graphs with rich properties: heavy numeric operations
    #: on properties (e.g. belief propagation / Gibbs inference).
    COMP_PROP = "CompProp"
    #: Computation on dynamic graphs: dynamic topology, dynamic memory
    #: footprint, high write intensity (e.g. streaming graph updates).
    COMP_DYN = "CompDyn"


class DataSource(int, Enum):
    """Paper Table 2 — the four graph data-source types (+ synthetic)."""

    SOCIAL = 1        # social/economic/political network (Twitter graph)
    INFORMATION = 2   # information/knowledge network (knowledge graph)
    NATURE = 3        # nature/bio/cognitive network (gene network)
    TECHNOLOGY = 4    # man-made technology network (road network)
    SYNTHETIC = 5     # generator-produced (LDBC-style)


class WorkloadCategory(str, Enum):
    """Paper Table 4 — high-level usage grouping of the workloads."""

    TRAVERSAL = "graph traversal"
    UPDATE = "graph construction/update"
    ANALYTICS = "graph analytics"
    SOCIAL = "social analysis"
