"""Isolated cell execution: worker subprocess, wall-clock timeout, retries.

Each characterization cell runs in its own worker process; the parent
waits on a pipe with a deadline.  Every way a worker can die maps to a
typed failure instead of a lost sweep:

* no payload before the deadline  -> SIGKILL the worker, ``CellTimeout``
* worker killed / pipe torn       -> ``CellCrash``
* worker MemoryError              -> ``CellOOM``
* worker exception                -> ``CellCrash`` (traceback summarized)
* unparseable / corrupt payload   -> ``CellCrash``

``isolation="inline"`` runs the cell in-process (no subprocess, no real
timeout) with chaos faults mapped onto the same typed errors — fast paths
for unit-testing the retry/checkpoint/matrix logic; the ``slow``-marked
tests exercise the real process isolation.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import (
    CellCrash,
    CellExecutionError,
    CellOOM,
    CellTimeout,
)
from ..obs.tracing import maybe_span
from .cell import Cell, row_to_record, run_cell
from .chaos import ChaosSpec, corrupt_payload, inject_pre_run
from .retry import RetryPolicy, run_with_retries

#: Worker start method: a forked worker starts in milliseconds with the
#: parent's imports already loaded (POSIX only, like the SIGKILL below).
_MP_START_METHOD = "fork"

#: Join budget (seconds) after a worker is SIGKILLed.
_KILL_GRACE_S = 5.0

#: JSON keys every well-formed "row" payload must carry; anything else is
#: treated as a torn/corrupted result.
_REQUIRED_KEYS = frozenset({"kind", "cell", "workload", "dataset", "ctype"})


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs for resilient cell execution."""

    timeout_s: float = 300.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    isolation: str = "process"       # "process" | "inline"

    def __post_init__(self):
        if self.isolation not in ("process", "inline"):
            raise ValueError(f"unknown isolation {self.isolation!r}")


def _child_entry(conn, cell_dict: dict, chaos_dict: dict | None,
                 attempt: int) -> None:
    """Worker body: reconstruct the cell, run it, ship the record back."""
    try:
        cell = Cell.from_dict(cell_dict)
        fault = None
        if chaos_dict is not None:
            fault = ChaosSpec.from_dict(chaos_dict).fault_for(
                cell.cell_id, attempt)
            inject_pre_run(fault, cell.cell_id)
        row = run_cell(cell)
        payload = row_to_record(row, cell, attempts=attempt)
        payload = corrupt_payload(fault, payload, cell.cell_id)
        conn.send(("ok", payload))
    except MemoryError as e:
        conn.send(("oom", str(e) or "MemoryError"))
    except BaseException as e:   # noqa: BLE001 — containment is the job
        tb = traceback.format_exception_only(type(e), e)
        conn.send(("error", "".join(tb).strip()))
    finally:
        conn.close()


def _validate_payload(payload: Any, cell: Cell) -> dict:
    if (not isinstance(payload, dict)
            or not _REQUIRED_KEYS.issubset(payload)
            or payload.get("cell") != cell.cell_id):
        raise CellCrash(cell.cell_id,
                        f"corrupt result payload ({type(payload).__name__})")
    return payload


def run_cell_once(cell: Cell, *, timeout_s: float,
                  chaos: ChaosSpec | None = None,
                  attempt: int = 1) -> dict:
    """One isolated attempt at a cell.  Returns the row record or raises
    a typed :class:`~repro.core.errors.CellExecutionError`."""
    ctx = mp.get_context(_MP_START_METHOD)
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child_entry,
        args=(child_conn, cell.to_dict(),
              chaos.to_dict() if chaos is not None else None, attempt),
        daemon=True)
    t0 = time.monotonic()
    proc.start()
    child_conn.close()           # parent keeps only the read end
    try:
        if not parent_conn.poll(timeout_s):
            proc.kill()
            proc.join(_KILL_GRACE_S)
            raise CellTimeout(cell.cell_id, timeout_s)
        try:
            status, payload = parent_conn.recv()
        except (EOFError, OSError) as e:
            proc.join(_KILL_GRACE_S)
            code = proc.exitcode
            detail = (f"worker died before reporting "
                      f"(exitcode={code})" if code is not None
                      else f"pipe error: {e}")
            raise CellCrash(cell.cell_id, detail) from None
        except Exception as e:   # unpicklable/garbled stream
            proc.kill()
            proc.join(_KILL_GRACE_S)
            raise CellCrash(cell.cell_id,
                            f"unreadable payload: {e}") from None
    finally:
        parent_conn.close()
        if proc.is_alive():
            proc.kill()
        proc.join(_KILL_GRACE_S)
    if status == "oom":
        raise CellOOM(cell.cell_id, payload)
    if status != "ok":
        raise CellCrash(cell.cell_id, str(payload))
    record = _validate_payload(payload, cell)
    record["elapsed_s"] = round(time.monotonic() - t0, 6)
    return record


def run_cell_inline(cell: Cell, *, chaos: ChaosSpec | None = None,
                    attempt: int = 1, timeout_s: float = 300.0,
                    spec=None, memo: bool = True) -> dict:
    """In-process attempt: chaos faults become typed errors directly.

    ``hang`` cannot truly hang the caller, so it maps to the same
    :class:`CellTimeout` the process path would raise.  ``spec`` and
    ``memo`` pass through to :func:`~repro.resilience.cell.run_cell`.
    """
    fault = (chaos.fault_for(cell.cell_id, attempt)
             if chaos is not None else None)
    if fault is not None:
        if fault.kind == "hang":
            raise CellTimeout(cell.cell_id, timeout_s)
        if fault.kind in ("crash", "raise"):
            raise CellCrash(cell.cell_id, f"chaos: injected {fault.kind}")
        if fault.kind == "oom":
            raise CellOOM(cell.cell_id, "chaos: simulated allocator OOM")
    try:
        row = run_cell(cell, spec=spec, memo=memo)
    except MemoryError as e:
        raise CellOOM(cell.cell_id, str(e) or "MemoryError") from e
    except CellExecutionError:
        raise
    except Exception as e:
        raise CellCrash(cell.cell_id,
                        f"{type(e).__name__}: {e}") from e
    payload = row_to_record(row, cell, attempts=attempt)
    payload = corrupt_payload(fault, payload, cell.cell_id)
    return _validate_payload(payload, cell)


def run_cell_resilient(cell: Cell, *, config: ExecutorConfig,
                       chaos: ChaosSpec | None = None,
                       sleep=time.sleep,
                       tracer=None,
                       spec=None, memo: bool = True) -> tuple[dict, int]:
    """Run one cell under the full policy: isolation + timeout + retries.

    Returns ``(record, attempts)``; raises
    :class:`~repro.core.errors.RetriesExhausted` when every attempt failed.
    With a ``tracer`` (or an installed global tracer) every attempt is a
    span — a failed attempt carries ``error=<exception type>`` — nesting
    under whatever span the caller (the matrix driver) holds open.
    ``spec`` and ``memo`` reach :func:`run_cell_inline` only: a worker
    subprocess builds its own dataset.
    """
    def one(attempt: int) -> dict:
        with maybe_span(tracer, f"attempt:{attempt}",
                        cell=cell.cell_id, attempt=attempt):
            if config.isolation == "inline":
                return run_cell_inline(cell, chaos=chaos, attempt=attempt,
                                       timeout_s=config.timeout_s,
                                       spec=spec, memo=memo)
            return run_cell_once(cell, timeout_s=config.timeout_s,
                                 chaos=chaos, attempt=attempt)

    record, attempts = run_with_retries(one, config.policy, cell.cell_id,
                                        sleep=sleep)
    record["attempts"] = attempts
    return record, attempts
