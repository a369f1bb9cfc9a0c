"""Dynamic graphs: streaming mutations over versioned snapshots.

The static pipeline generates a dataset, runs a kernel, and reports; the
dynamic subsystem makes the graph *mutable* while queries keep flowing:

* :mod:`repro.dynamic.ops` — the typed write vocabulary (wire-shaped
  mutation ops, batch validation, deterministic churn generation);
* :mod:`repro.dynamic.store` — the versioned snapshot store (COW
  multiversioning, pinned snapshot reads, bounded retention,
  compaction);
* :mod:`repro.dynamic.incremental` — O(delta) maintenance of BFS depths
  and connected components, equivalent-by-test to the batch kernels;
* :mod:`repro.dynamic.engine` — the serving facade the graph service
  dispatches ``mutate``/``dyn_query`` requests to, with versioned
  result caching.
"""

from .engine import DYN_WORKLOADS, DynamicEngine, dynamic_key
from .incremental import (
    RECOMPUTE_FRACTION,
    IncrementalBFS,
    IncrementalCComp,
    KernelStats,
)
from .ops import (
    MAX_BATCH_OPS,
    OP_KINDS,
    MutOp,
    churn_ops,
    parse_op,
    parse_ops,
    single_op,
)
from .store import (
    DEFAULT_MAX_VERSIONS,
    Delta,
    Snapshot,
    SnapshotStore,
    StoreStats,
)

__all__ = [
    "DYN_WORKLOADS",
    "DEFAULT_MAX_VERSIONS",
    "RECOMPUTE_FRACTION",
    "MAX_BATCH_OPS",
    "OP_KINDS",
    "Delta",
    "DynamicEngine",
    "IncrementalBFS",
    "IncrementalCComp",
    "KernelStats",
    "MutOp",
    "Snapshot",
    "SnapshotStore",
    "StoreStats",
    "churn_ops",
    "dynamic_key",
    "parse_op",
    "parse_ops",
    "single_op",
]
