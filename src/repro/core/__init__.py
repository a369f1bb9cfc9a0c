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
    PACKED_HEAP,
    PAGE_SIZE,
    HeapModel,
    SimAllocator,
)
from .properties import EMPTY_SCHEMA, Field, Schema
from .taxonomy import ComputationType, DataSource, WorkloadCategory
from .trace import FrozenTrace, Region, Tracer
from .tracestore import (
    TRACE_FORMAT_VERSION,
    StoredTrace,
    TraceStore,
    TraceStoreStats,
)

__all__ = [
    "AGED_HEAP", "CellCrash", "CellExecutionError",
    "CellOOM", "CellTimeout",
    "DuplicateEdge", "DuplicateVertex", "EMPTY_SCHEMA", "EdgeNode",
    "EdgeNotFound", "Field", "FrozenTrace", "GraphError", "HEAP_BASE",
    "HarnessError", "MetricsUnavailable", "RetriesExhausted",
    "HeapModel", "PACKED_HEAP", "PAGE_SIZE", "PropertyGraph",
    "Region", "Schema", "SchemaError", "SimAllocator",
    "StoredTrace", "TRACE_FORMAT_VERSION", "TraceError",
    "TraceStore", "TraceStoreStats", "Tracer",
    "Vertex", "VertexNotFound",
    "ComputationType", "DataSource", "WorkloadCategory",
]
