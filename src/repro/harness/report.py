"""Report rendering: ASCII tables, CSV export and partial-matrix views.

Every benchmark prints its figure's data as a table (the paper's
qualitative expectation beside it is ``benchmarks/paper.py``'s
``paper_note``), so a run of ``pytest benchmarks/`` doubles as the
EXPERIMENTS.md evidence log.
"""

from __future__ import annotations

import csv
import os
from typing import Any, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str | None = None, floatfmt: str = ".3f") -> str:
    """Render an ASCII table (monospace aligned)."""
    def fmt(x: Any) -> str:
        if isinstance(x, float):
            return format(x, floatfmt)
        return str(x)

    srows = [[fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in srows)) if srows else len(h)
              for i, h in enumerate(headers)]
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for r in srows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def write_csv(headers: Sequence[str], rows: Sequence[Sequence[Any]],
              path: str | os.PathLike) -> None:
    """Write rows to a CSV file (for downstream plotting)."""
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(headers)
        w.writerows(rows)


# -- partial-matrix rendering (resilient sweeps) ----------------------------

FAILURE_COLUMNS = ("workload", "dataset", "failure", "attempts", "detail")


def failure_table(failures: Sequence[Any]) -> list[list]:
    """Flatten CellFailure records into report rows.

    Accepts :class:`~repro.resilience.matrix.CellFailure` objects or the
    equivalent journal dicts, so both a live sweep and a loaded checkpoint
    render the same way.
    """
    out = []
    for f in failures:
        if isinstance(f, dict):
            out.append([f.get("workload", "?"), f.get("dataset", "?"),
                        f.get("failure_kind", "error"),
                        f.get("attempts", 1), f.get("message", "")])
        else:
            out.append([f.workload, f.dataset, f.kind, f.attempts,
                        f.message])
    return out


def matrix_table(rows: Sequence[Any], failures: Sequence[Any] = (), *,
                 metric: str = "ipc", floatfmt: str = ".3f") -> str:
    """Workload x dataset grid of one CPU metric, degrading gracefully:
    failed cells render as ``FAILED(kind)``, missing cells as ``-``.

    This is the partial-matrix view — a sweep with a permanently hanging
    cell still produces a complete, readable report.
    """
    failed: dict[tuple[str, str], str] = {}
    for f in failure_table(failures):
        failed[(f[0], f[1])] = f"FAILED({f[2]})"
    values: dict[tuple[str, str], float] = {}
    workloads: list[str] = []
    datasets: list[str] = []
    for r in rows:
        if r.workload not in workloads:
            workloads.append(r.workload)
        if r.dataset not in datasets:
            datasets.append(r.dataset)
        if r.cpu is not None:
            values[(r.workload, r.dataset)] = r.cpu.summary().get(
                metric, float("nan"))
    for w, d in failed:
        if w not in workloads:
            workloads.append(w)
        if d not in datasets:
            datasets.append(d)
    grid = []
    for w in workloads:
        line: list[Any] = [w]
        for d in datasets:
            if (w, d) in values:
                line.append(values[(w, d)])
            else:
                line.append(failed.get((w, d), "-"))
        grid.append(line)
    return format_table(["workload"] + datasets, grid,
                        title=f"{metric} (partial matrix)",
                        floatfmt=floatfmt)
