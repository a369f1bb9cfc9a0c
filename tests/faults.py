"""Cell faults for the tests, injected from outside the product.

``inject(monkeypatch, {cell_id: (kind, until_attempt)})`` makes each
named cell fail while its attempt number is at most ``until_attempt``
(``0``: on every attempt), so a *flaky* cell recovers on the attempt
after.  The kinds:

``hang``     the cell never returns — exercises the wall-clock timeout
``crash``    the worker SIGKILLs itself — exercises crash containment
``oom``      the cell raises ``MemoryError`` — exercises the OOM taxonomy
``raise``    the cell raises ``RuntimeError`` — exercises exception capture
``corrupt``  the cell completes but its record is torn — exercises
             payload validation

Nothing in ``src/`` knows about faults.  The patch replaces the
executor's module globals, and every path the product takes to a cell
reads them: ``run_cell_resilient`` calls ``run_cell_once`` /
``run_cell_inline``, which the patch wraps to note each cell's attempt
number, and those call ``run_cell`` and ``row_to_record``, which fire
the fault.  The executor forks its worker (``_MP_START_METHOD``), so a
global patched here reaches the child, attempt note included.

A forked worker fails the way a real one does (it sleeps past its
deadline, kills itself, raises), and the executor's own mapping
(``_child_entry``, the parent's pipe handling, ``_validate_payload``)
turns that into a typed error.  In-process (``isolation="inline"``) a
``hang`` cannot hang the caller, so it raises the
:class:`~repro.core.errors.CellTimeout` the process path would, and a
``crash`` raises ``RuntimeError`` like ``raise``; ``run_cell_inline``'s
``except`` arms type the rest.
"""

from __future__ import annotations

import json
import os
import signal
import time

from repro.core.errors import CellTimeout
from repro.resilience import executor

KINDS = ("hang", "crash", "oom", "raise", "corrupt")


def inject(monkeypatch, faults: dict[str, tuple[str, int]]) -> None:
    """Fire ``faults`` (cell id -> ``(kind, until_attempt)``) on every
    executor path until ``monkeypatch`` undoes it."""
    for kind, _ in faults.values():
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; choose from {KINDS}")
    home = os.getpid()
    attempts: dict[str, int] = {}
    run_once, run_inline = executor.run_cell_once, executor.run_cell_inline
    run_cell, row_to_record = executor.run_cell, executor.row_to_record

    def firing(cell_id: str) -> str | None:
        kind, until = faults.get(cell_id, (None, 0))
        if until and attempts.get(cell_id, 1) > until:
            return None
        return kind

    def noting(run):
        def attempt(cell, **kw):
            attempts[cell.cell_id] = kw.get("attempt", 1)
            return run(cell, **kw)
        return attempt

    def faulty_run_cell(cell, **kw):
        kind = firing(cell.cell_id)
        forked = os.getpid() != home
        if kind == "hang":
            if not forked:
                raise CellTimeout(cell.cell_id, 0)
            while True:                  # the parent kills us at the deadline
                time.sleep(3600)
        if kind == "crash" and forked:
            os.kill(os.getpid(), signal.SIGKILL)
        if kind == "oom":
            raise MemoryError(f"injected allocator OOM in {cell.cell_id}")
        if kind in ("crash", "raise"):
            raise RuntimeError(f"injected {kind} in {cell.cell_id}")
        return run_cell(cell, **kw)

    def torn_row_to_record(row, cell, **kw):
        record = row_to_record(row, cell, **kw)
        if firing(cell.cell_id) == "corrupt":
            return json.dumps(record)[:64]       # the record, cut mid-member
        return record

    monkeypatch.setattr(executor, "run_cell_once", noting(run_once))
    monkeypatch.setattr(executor, "run_cell_inline", noting(run_inline))
    monkeypatch.setattr(executor, "run_cell", faulty_run_cell)
    monkeypatch.setattr(executor, "row_to_record", torn_row_to_record)
