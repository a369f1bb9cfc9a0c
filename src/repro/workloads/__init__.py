"""The 13 GraphBIG workloads (Table 4), implemented on framework
primitives and tagged by computation type and category."""

from .base import (
    NULL_TRACER,
    NullTracer,
    TracedHeap,
    TracedQueue,
    TracedStack,
    Workload,
    WorkloadResult,
    common_edge_schema,
    common_vertex_schema,
)
from .bcentr import BCentr
from .bfs import BFS
from .ccomp import CComp
from .dcentr import DCentr
from .dfs import DFS
from .gcolor import GColor
from .gcons import GCons
from .gibbs import Gibbs, build_bn_graph
from .gup import GUp
from .kcore import KCore
from .registry import (
    GPU_WORKLOADS,
    WORKLOADS,
    Table4Row,
    get,
    run,
    table4,
)
from .spath import SPath
from .tc import TC
from .tmorph import TMorph

__all__ = [
    "BCentr", "BFS", "CComp", "DCentr", "DFS", "GColor", "GCons",
    "GPU_WORKLOADS", "GUp", "Gibbs", "KCore", "NULL_TRACER", "NullTracer",
    "SPath", "TC", "TMorph", "Table4Row", "TracedHeap", "TracedQueue",
    "TracedStack", "WORKLOADS", "Workload",
    "WorkloadResult", "build_bn_graph", "common_edge_schema",
    "common_vertex_schema", "get", "run", "table4",
]
