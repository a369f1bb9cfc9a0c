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
timeout), mapping its ``MemoryError`` and exceptions onto the same typed
errors — fast paths for unit-testing the retry/checkpoint/matrix logic;
the ``slow``-marked tests exercise the real process isolation.
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
from .retry import RetryPolicy, run_with_retries

#: Worker start method: a forked worker starts in milliseconds with the
#: parent's imports already loaded (POSIX only, like the SIGKILL below).
_MP_START_METHOD = "fork"

#: Join budget (seconds) after a worker is SIGKILLed.
_KILL_GRACE_S = 5.0

#: JSON keys every well-formed "row" payload must carry; anything else is
#: treated as a torn/corrupted result.
_REQUIRED_KEYS = frozenset({"kind", "cell", "workload", "dataset", "ctype"})


#: How a cell runs: in a forked worker process, or in the caller.
ISOLATIONS = ("process", "inline")


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs for resilient cell execution."""

    timeout_s: float = 300.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    isolation: str = "process"       # one of ISOLATIONS

    def __post_init__(self):
        if self.isolation not in ISOLATIONS:
            raise ValueError(f"unknown isolation {self.isolation!r}")


def _child_entry(conn, cell_dict: dict, attempt: int) -> None:
    """Worker body: reconstruct the cell, run it, ship the record back."""
    try:
        cell = Cell.from_dict(cell_dict)
        row = run_cell(cell)
        conn.send(("ok", row_to_record(row, cell, attempts=attempt)))
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
                  attempt: int = 1) -> dict:
    """One isolated attempt at a cell.  Returns the row record or raises
    a typed :class:`~repro.core.errors.CellExecutionError`."""
    ctx = mp.get_context(_MP_START_METHOD)
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child_entry,
        args=(child_conn, cell.to_dict(), attempt),
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


def run_cell_inline(cell: Cell, *, attempt: int = 1,
                    spec=None, memo: bool = True) -> dict:
    """In-process attempt: a failure becomes the typed error the process
    path would raise.  ``spec`` and ``memo`` pass through to
    :func:`~repro.resilience.cell.run_cell`.
    """
    try:
        row = run_cell(cell, spec=spec, memo=memo)
    except MemoryError as e:
        raise CellOOM(cell.cell_id, str(e) or "MemoryError") from e
    except CellExecutionError:
        raise
    except Exception as e:
        raise CellCrash(cell.cell_id,
                        f"{type(e).__name__}: {e}") from e
    return _validate_payload(row_to_record(row, cell, attempts=attempt),
                             cell)


def run_cell_resilient(cell: Cell, *, config: ExecutorConfig,
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
                return run_cell_inline(cell, attempt=attempt,
                                       spec=spec, memo=memo)
            return run_cell_once(cell, timeout_s=config.timeout_s,
                                 attempt=attempt)

    record, attempts = run_with_retries(one, config.policy, cell.cell_id,
                                        sleep=sleep)
    record["attempts"] = attempts
    return record, attempts
