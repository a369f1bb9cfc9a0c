"""Resilient matrix sweep: the full workload x dataset characterization
with isolation, retries, checkpointing, and graceful degradation.

The sweep walks its cells in deterministic order; each cell runs through
the resilient executor.  Completed rows are journaled immediately; a cell
whose retries are exhausted becomes a :class:`CellFailure` in the result
(and a ``failure`` journal record) instead of aborting the sweep.  With
``resume=True`` every cell whose latest journal record is a successful row
is rehydrated from the checkpoint rather than re-executed — an interrupted
(or chaos-mangled) run picks up exactly where it stopped, re-running only
unfinished or failed cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.errors import CellExecutionError, RetriesExhausted
from ..obs.logs import get_logger
from ..obs.tracing import maybe_span
from .cell import Cell, failure_record, record_to_row
from .chaos import ChaosSpec
from .checkpoint import CheckpointStore
from .executor import ExecutorConfig, run_cell_resilient

log = get_logger("resilience.matrix")


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted its attempts — reportable, not fatal."""

    cell_id: str
    workload: str
    dataset: str
    kind: str            # taxonomy tag of the *last* failure
    message: str
    attempts: int

    @classmethod
    def from_error(cls, cell: Cell, error: CellExecutionError,
                   attempts: int) -> "CellFailure":
        last = getattr(error, "last", error)
        return cls(cell_id=cell.cell_id, workload=cell.workload,
                   dataset=cell.dataset, kind=last.kind,
                   message=last.message, attempts=attempts)


@dataclass
class MatrixResult:
    """Outcome of a resilient sweep: every cell accounted for."""

    rows: list = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)
    resumed: int = 0          # cells rehydrated from the checkpoint
    executed: int = 0         # cells actually run this invocation

    @property
    def total_cells(self) -> int:
        return len(self.rows) + len(self.failures)

    @property
    def complete(self) -> bool:
        return not self.failures


def _labelled(row, cell: Cell):
    """Relabel a sweep row's dataset with the registry key, so success
    rows and CellFailures (which only know the key) line up in one grid."""
    row.extras.setdefault("dataset_name", row.dataset)
    row.dataset = cell.dataset
    return row


def matrix_cells(workloads: Sequence[str], datasets: Sequence[str], *,
                 scale: float = 1.0, seed: int = 0,
                 machine: str = "scaled", with_gpu: bool = False,
                 gpu_workloads: Sequence[str] = (),
                 trace_store: str | None = None) -> list[Cell]:
    """The deterministic cell ordering of a sweep (dataset-major, matching
    the figure tables' row order).  ``trace_store`` (a directory path)
    lets every cell persist/replay its workload trace — a multi-machine
    sweep executes each (workload, dataset) only once."""
    return [Cell(workload=w, dataset=d, scale=scale, seed=seed,
                 machine=machine,
                 with_gpu=with_gpu and w in gpu_workloads,
                 trace_store=trace_store)
            for d in datasets for w in workloads]


def run_matrix(cells: Sequence[Cell], *,
               config: ExecutorConfig | None = None,
               chaos: ChaosSpec | None = None,
               checkpoint: CheckpointStore | None = None,
               resume: bool = False,
               sleep: Callable[[float], None] = time.sleep,
               progress: Callable[[str], None] | None = None,
               tracer=None,
               registry=None) -> MatrixResult:
    """Run every cell resiliently; never lose the sweep to one cell.

    ``resume`` requires a ``checkpoint``; without ``resume`` an existing
    journal is restarted from scratch.  ``progress`` (if given) receives a
    one-line status per cell.

    With a ``tracer`` (:class:`~repro.obs.SpanTracer`) each executed cell
    becomes a ``cell:<id>`` span whose children are its ``attempt:<n>``
    retries — export via ``to_chrome_trace()`` to see where a sweep's
    wall-time went.  With a ``registry``
    (:class:`~repro.obs.MetricsRegistry`) the sweep counts outcomes,
    retries, and failures by taxonomy kind.
    """
    config = config or ExecutorConfig()
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint store")
    done: dict[str, dict] = {}
    if checkpoint is not None:
        if resume:
            done = checkpoint.load()
        else:
            checkpoint.clear()

    m_cells = m_retries = m_faults = None
    if registry is not None:
        m_cells = registry.counter(
            "matrix_cells_total", "sweep cells by outcome",
            labels=("outcome",))
        m_retries = registry.counter(
            "matrix_retries_total",
            "extra attempts beyond the first, across all cells")
        m_faults = registry.counter(
            "matrix_faults_total", "cell failures by taxonomy kind "
            "(every failed attempt's final classification)",
            labels=("kind",))

    result = MatrixResult()
    for cell in cells:
        prior = done.get(cell.cell_id)
        if prior is not None and prior.get("kind") == "row":
            result.rows.append(_labelled(record_to_row(prior), cell))
            result.resumed += 1
            if m_cells is not None:
                m_cells.labels(outcome="resumed").inc()
            if progress:
                progress(f"{cell.cell_id}: resumed from checkpoint")
            continue
        try:
            with maybe_span(tracer, f"cell:{cell.cell_id}",
                            workload=cell.workload, dataset=cell.dataset,
                            machine=cell.machine) as span_args:
                record, attempts = run_cell_resilient(
                    cell, config=config, chaos=chaos, sleep=sleep,
                    tracer=tracer)
                span_args["attempts"] = attempts
        except (RetriesExhausted, CellExecutionError) as e:
            attempts = getattr(e, "attempts", 1)
            failure = CellFailure.from_error(cell, e, attempts)
            result.failures.append(failure)
            result.executed += 1
            if m_cells is not None:
                m_cells.labels(outcome="failed").inc()
                m_retries.inc(max(0, attempts - 1))
                m_faults.labels(kind=failure.kind).inc()
            log.warning("cell %s failed (%s) after %d attempt(s)",
                        cell.cell_id, failure.kind, attempts,
                        extra={"cell": cell.cell_id,
                               "failure_kind": failure.kind,
                               "attempts": attempts})
            if checkpoint is not None:
                checkpoint.append(failure_record(cell, e, attempts=attempts))
            if progress:
                progress(f"{cell.cell_id}: FAILED ({failure.kind}) "
                         f"after {attempts} attempt(s)")
            continue
        result.rows.append(_labelled(record_to_row(record), cell))
        result.executed += 1
        if m_cells is not None:
            m_cells.labels(outcome="ok").inc()
            m_retries.inc(max(0, attempts - 1))
        if checkpoint is not None:
            checkpoint.append(record)
        if progress:
            progress(f"{cell.cell_id}: ok ({attempts} attempt(s), "
                     f"{record.get('elapsed_s') or 0:.2f}s)")
    return result
