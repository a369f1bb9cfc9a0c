"""Fault-tolerant characterization: isolation, retries, checkpoint-resume.

The characterization matrix (workload x dataset x machine) is a
long-running batch sweep; this package keeps one hung traversal or
allocator blow-up from losing it:

* :mod:`~repro.resilience.cell` — the picklable unit of work and its
  JSON checkpoint serialization
* :mod:`~repro.resilience.executor` — worker-subprocess isolation with
  wall-clock timeouts and typed crash containment
* :mod:`~repro.resilience.retry` — bounded retries, exponential backoff,
  deterministic seeded jitter
* :mod:`~repro.resilience.checkpoint` — append-only JSON-lines journal
  enabling ``--resume``
* :mod:`~repro.resilience.netchaos` — a deterministic TCP chaos proxy
  (latency, bandwidth caps, resets, corruption, black holes, slow-loris
  stalls) for network-level failure drills
* :mod:`~repro.resilience.matrix` — the resilient sweep driver with
  graceful degradation (failed cells become report entries, not aborts)
"""

from ..core.errors import (
    CellCrash,
    CellExecutionError,
    CellOOM,
    CellTimeout,
    HarnessError,
    MetricsUnavailable,
    RetriesExhausted,
)
from .cell import (
    MACHINES,
    Cell,
    RestoredMetrics,
    RestoredResult,
    record_to_row,
    row_to_record,
    run_cell,
)
from .checkpoint import CheckpointStore
from .executor import (
    ExecutorConfig,
    run_cell_inline,
    run_cell_once,
    run_cell_resilient,
)
from .matrix import CellFailure, MatrixResult, matrix_cells, run_matrix
from .netchaos import ChaosProxy, NetFaultSpec
from .retry import RetryPolicy, run_with_retries

__all__ = [
    "Cell", "CellCrash", "CellExecutionError", "CellFailure", "CellOOM",
    "CellTimeout", "ChaosProxy", "CheckpointStore",
    "ExecutorConfig", "HarnessError", "MACHINES", "MatrixResult", "MetricsUnavailable",
    "NetFaultSpec", "RestoredMetrics",
    "RestoredResult", "RetriesExhausted", "RetryPolicy",
    "matrix_cells", "record_to_row", "row_to_record",
    "run_cell", "run_cell_inline", "run_cell_once", "run_cell_resilient",
    "run_matrix", "run_with_retries",
]
