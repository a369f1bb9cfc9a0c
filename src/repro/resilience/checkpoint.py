"""Checkpoint store: an append-only JSON-lines journal of matrix progress.

Every completed cell (and every exhausted failure) is appended as one JSON
line and flushed+fsynced, so a ``kill -9`` mid-sweep loses at most the cell
in flight.  ``load()`` tolerates a truncated trailing line — the signature
of a crash mid-append — and keeps the *latest* record per cell id, so a
resumed run that re-executes a previously failed cell simply supersedes
the failure record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator


class CheckpointStore:
    """Journal of cell records keyed by ``cell_id``."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CheckpointStore({str(self.path)!r})"

    # -- write --------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (one JSON line, flushed and fsynced).

        If a previous run crashed mid-append the file ends in a torn line
        without a newline; heal it first so the new record starts a fresh
        line instead of concatenating onto the wreckage.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True, allow_nan=True)
        with open(self.path, "ab+") as f:
            f.seek(0, os.SEEK_END)
            if f.tell() > 0:
                f.seek(-1, os.SEEK_END)
                if f.read(1) != b"\n":
                    f.write(b"\n")
            f.write(line.encode("utf-8") + b"\n")
            f.flush()
            os.fsync(f.fileno())

    # -- read ---------------------------------------------------------------
    def _iter_records(self) -> Iterator[dict[str, Any]]:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue     # torn tail from a crash mid-append
                if isinstance(rec, dict) and "cell" in rec:
                    yield rec

    def load(self) -> dict[str, dict[str, Any]]:
        """Latest record per cell id (later lines supersede earlier)."""
        out: dict[str, dict[str, Any]] = {}
        for rec in self._iter_records():
            out[rec["cell"]] = rec
        return out

    def clear(self) -> None:
        """Start the journal over (``--resume`` off overwrites)."""
        if self.path.exists():
            self.path.unlink()
