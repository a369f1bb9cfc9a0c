"""The unit of resilient execution: one workload x dataset x machine cell.

A :class:`Cell` is a *recipe*, not a result — it names a workload, a
registry dataset (key + scale + seed), a named machine, and whether the
GPU model runs.  Recipes are tiny, picklable, and reconstructible in a
worker subprocess, which is what lets the executor re-run a cell after a
crash and the checkpoint store resume a sweep in a fresh process.

Completed cells are journaled as flat JSON records (metric summaries, not
live metric objects: traces are far too heavy to checkpoint).  A record
restored from the journal rehydrates into a :class:`~repro.harness.runner.Row`
whose metrics are :class:`RestoredMetrics` stand-ins — duck-typed to the
``summary()``/attribute surface the report and export layers consume.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

from ..arch.machine import PAPER_XEON, SCALED_XEON, TEST_MACHINE, MachineConfig
from ..core.taxonomy import ComputationType

#: Named machine registry: cells reference machines by name so a worker
#: subprocess (and a resumed run) can reconstruct the exact configuration.
MACHINES: dict[str, MachineConfig] = {
    "scaled": SCALED_XEON,
    "test": TEST_MACHINE,
    "paper": PAPER_XEON,
}

#: Workload outputs worth journaling: scalar shape descriptors that the
#: multicore projection (gpu_speedup barriers) and reports consume.
_SCALAR_OUTPUT_KEYS = ("depth", "rounds", "launches", "iterations",
                      "n_colors", "n_components", "triangles", "max_core",
                      "visited")


@dataclass(frozen=True)
class Cell:
    """One characterization cell of the matrix sweep."""

    workload: str
    dataset: str                 # datagen registry key, e.g. "ldbc"
    scale: float = 1.0
    seed: int = 0
    machine: str = "scaled"      # key into MACHINES
    with_gpu: bool = False
    #: Trace-store directory (optional).  Execution detail, not identity:
    #: a cell computes the same metrics with or without the store, so it
    #: stays out of :attr:`cell_id` and old journal records rehydrate fine.
    trace_store: str | None = None

    def __post_init__(self):
        if self.machine not in MACHINES:
            raise KeyError(f"unknown machine {self.machine!r}; "
                           f"choose from {sorted(MACHINES)}")

    @property
    def cell_id(self) -> str:
        """Stable identity string — the checkpoint/journal key."""
        gpu = "gpu" if self.with_gpu else "cpu"
        return (f"{self.workload}:{self.dataset}:s{self.scale:g}"
                f":r{self.seed}:{self.machine}:{gpu}")

    def machine_config(self) -> MachineConfig:
        return MACHINES[self.machine]

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Cell":
        return cls(**d)


def run_cell(cell: Cell, *, spec=None, memo: bool = True):
    """Execute one cell synchronously: build the dataset, characterize.

    This is the function the isolated worker runs; imports are local so a
    spawned subprocess pays them lazily.  A caller that already holds the
    cell's generated dataset passes it as ``spec``; ``memo`` is
    :func:`~repro.harness.runner.characterize`'s.
    """
    from ..datagen.registry import make as make_dataset
    from ..harness.runner import characterize

    if spec is None:
        spec = make_dataset(cell.dataset, scale=cell.scale, seed=cell.seed)
    return characterize(cell.workload, spec,
                        machine=cell.machine_config(),
                        with_gpu=cell.with_gpu,
                        memo=memo,
                        trace_store=cell.trace_store)


# -- JSON record <-> Row ----------------------------------------------------

def _json_safe(v: Any):
    """Best-effort conversion of an output value to a JSON scalar."""
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, float)):
        return None if isinstance(v, float) and not math.isfinite(v) else v
    try:                           # numpy scalar
        return _json_safe(v.item())
    except (AttributeError, ValueError):
        return None


def row_to_record(row, cell: Cell, *, attempts: int = 1) -> dict[str, Any]:
    """Flatten a Row into the JSON-lines checkpoint record (the
    executor stamps ``elapsed_s`` once the cell is done)."""
    outputs = {}
    if row.result is not None:
        for k in _SCALAR_OUTPUT_KEYS:
            if k in row.result.outputs:
                s = _json_safe(row.result.outputs[k])
                if s is not None:
                    outputs[k] = s
    extras = {k: v for k, v in row.extras.items()
              if isinstance(v, (str, int, float, bool))
              or (isinstance(v, list)
                  and all(isinstance(x, (str, int, float, bool))
                          for x in v))}
    return {
        "kind": "row",
        "cell": cell.cell_id,
        "cell_args": cell.to_dict(),
        "workload": row.workload,
        "dataset": row.dataset,
        "ctype": row.ctype.value,
        "cpu_summary": row.cpu.summary() if row.cpu is not None else None,
        "gpu_summary": row.gpu.summary() if row.gpu is not None else None,
        "outputs": outputs,
        "extras": extras,
        "attempts": attempts,
        "elapsed_s": None,
    }


def failure_record(cell: Cell, error, *, attempts: int) -> dict[str, Any]:
    """Journal record for a cell that exhausted its attempts."""
    last = getattr(error, "last", error)
    return {
        "kind": "failure",
        "cell": cell.cell_id,
        "cell_args": cell.to_dict(),
        "workload": cell.workload,
        "dataset": cell.dataset,
        "failure_kind": last.kind,
        "message": last.message,
        "attempts": attempts,
    }


class RestoredMetrics:
    """Stand-in for CPU/GPU metrics rehydrated from a checkpoint summary.

    Exposes the surface the harness tables use: ``summary()``, summary
    keys as attributes, and (for CPU summaries) a ``breakdown`` with
    ``fractions()``.
    """

    #: attribute -> summary-key aliases (live objects use property names
    #: that differ from their summary keys).
    _ALIASES = {"exec_time": "exec_time_s", "n_instrs": "instrs"}

    def __init__(self, summary: dict[str, float]):
        self._summary = dict(summary)

    def summary(self) -> dict[str, float]:
        return dict(self._summary)

    def __getattr__(self, name: str):
        key = self._ALIASES.get(name, name)
        try:
            return self._summary[key]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def breakdown(self) -> "_RestoredBreakdown":
        return _RestoredBreakdown(self._summary)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RestoredMetrics({len(self._summary)} metrics)"


class _RestoredBreakdown:
    """Fractions()-compatible view over journaled cycles_* keys."""

    def __init__(self, summary: dict[str, float]):
        self._s = summary

    def fractions(self) -> dict[str, float]:
        return {"Frontend": self._s.get("cycles_frontend", 0.0),
                "BadSpeculation": self._s.get("cycles_badspeculation", 0.0),
                "Retiring": self._s.get("cycles_retiring", 0.0),
                "Backend": self._s.get("cycles_backend", 0.0)}


@dataclass
class RestoredResult:
    """Minimal WorkloadResult stand-in: journaled scalar outputs only."""

    name: str
    outputs: dict[str, Any]


def record_to_row(record: dict[str, Any]):
    """Rehydrate a journaled "row" record into a harness Row."""
    from ..harness.runner import Row

    cpu = record.get("cpu_summary")
    gpu = record.get("gpu_summary")
    row = Row(
        workload=record["workload"],
        dataset=record["dataset"],
        ctype=ComputationType(record["ctype"]),
        cpu=RestoredMetrics(cpu) if cpu else None,
        gpu=RestoredMetrics(gpu) if gpu else None,
        result=RestoredResult(record["workload"],
                              dict(record.get("outputs") or {})),
        extras=dict(record.get("extras") or {}),
    )
    row.extras.setdefault("restored", True)
    return row
