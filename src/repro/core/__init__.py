"""Core framework: the System G-style vertex-centric property graph,
the simulated heap, the execution tracer, and the GraphBIG taxonomy."""

from .errors import (
    CellCrash,
    CellExecutionError,
    CellOOM,
    CellTimeout,
    DuplicateEdge,
    DuplicateVertex,
    EdgeNotFound,
    GraphError,
    HarnessError,
    MetricsUnavailable,
    RetriesExhausted,
    SchemaError,
    TraceError,
    VertexNotFound,
)
from .graph import EdgeNode, PropertyGraph, Vertex
from .memmodel import (
    AGED_HEAP,
    HEAP_BASE,
    LINE_SIZE,
    PACKED_HEAP,
    PAGE_SIZE,
    HeapModel,
    SimAllocator,
)
from .properties import EMPTY_SCHEMA, Field, Schema
from .taxonomy import (
    COMPUTATION_PROFILES,
    DATA_SOURCE_PROFILES,
    ComputationProfile,
    ComputationType,
    DataSource,
    DataSourceProfile,
    WorkloadCategory,
)
from .trace import FrozenTrace, Region, Tracer
from .tracestore import (
    TRACE_FORMAT_VERSION,
    StoredTrace,
    TraceStore,
    TraceStoreKeyError,
    TraceStoreStats,
)

__all__ = [
    "AGED_HEAP", "COMPUTATION_PROFILES", "CellCrash", "CellExecutionError",
    "CellOOM", "CellTimeout", "DATA_SOURCE_PROFILES",
    "DuplicateEdge", "DuplicateVertex", "EMPTY_SCHEMA", "EdgeNode",
    "EdgeNotFound", "Field", "FrozenTrace", "GraphError", "HEAP_BASE",
    "HarnessError", "MetricsUnavailable", "RetriesExhausted",
    "HeapModel", "LINE_SIZE", "PACKED_HEAP", "PAGE_SIZE", "PropertyGraph",
    "Region", "Schema", "SchemaError", "SimAllocator",
    "StoredTrace", "TRACE_FORMAT_VERSION", "TraceError",
    "TraceStore", "TraceStoreKeyError", "TraceStoreStats", "Tracer",
    "Vertex", "VertexNotFound",
    "ComputationProfile", "ComputationType", "DataSource",
    "DataSourceProfile", "WorkloadCategory",
]
