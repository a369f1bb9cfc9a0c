"""Export characterization results to CSV files (for plotting/papers).

``export_all(rows, out_dir)`` writes one CSV per figure-style view plus a
master per-run table — the artefact a downstream study would ingest.
"""

from __future__ import annotations

import os
from typing import Sequence

from .metrics import CPU_COLUMNS, cpu_table, gpu_table
from .comptype import breakdown_table, fig8_table
from .report import FAILURE_COLUMNS, failure_table, write_csv
from .runner import Row


def export_all(rows: Sequence[Row], out_dir: str | os.PathLike,
               failures: Sequence = ()) -> list[str]:
    """Write every standard view of ``rows`` under ``out_dir``.

    Returns the list of files written.  GPU views are skipped when no row
    carries GPU metrics.  A partial matrix exports cleanly: rows restored
    from a checkpoint read every view, the framework fraction included,
    from their journaled CPU summary, and ``failures`` (CellFailure
    objects or journal dicts from a resilient sweep) become
    ``failures.csv`` so downstream consumers see which cells are missing
    and why.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    def emit(name: str, headers, table) -> None:
        if not table:
            return
        path = os.path.join(out_dir, name)
        write_csv(headers, table, path)
        written.append(path)

    emit("cpu_metrics.csv", CPU_COLUMNS, cpu_table(rows))
    emit("cycle_breakdown.csv",
         ["workload", "ctype", "frontend", "badspec", "retiring",
          "backend"], breakdown_table(rows))
    emit("comptype_averages.csv",
         ["metric", "CompStruct", "CompProp", "CompDyn"], fig8_table(rows))
    emit("gpu_metrics.csv",
         ["workload", "dataset", "bdr", "mdr", "read_gbs", "ipc"],
         gpu_table(rows))
    fw = [[r.workload, r.dataset, r.cpu.framework_fraction]
          for r in rows if r.cpu is not None]
    emit("framework_fraction.csv",
         ["workload", "dataset", "framework_fraction"], fw)
    emit("failures.csv", FAILURE_COLUMNS, failure_table(failures))
    return written
