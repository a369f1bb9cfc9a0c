"""Workload registry — the paper's Table 4.

Maps workload names to classes with their computation type, category and
GPU availability; provides the ``run()`` convenience entry point and the
Table 4 summary rows used by the coverage bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.graph import PropertyGraph
from ..core.trace import Tracer
from .base import Workload, WorkloadResult
from .bcentr import BCentr
from .bfs import BFS
from .ccomp import CComp
from .dcentr import DCentr
from .dfs import DFS
from .gcolor import GColor
from .gcons import GCons
from .gibbs import Gibbs
from .gup import GUp
from .kcore import KCore
from .spath import SPath
from .tc import TC
from .tmorph import TMorph

#: All 13 GraphBIG workloads (12 CPU-characterized + DFS; 8 with GPU
#: kernels), keyed by the paper's names.
WORKLOADS: dict[str, type[Workload]] = {
    w.NAME: w for w in (BFS, DFS, GCons, GUp, TMorph, SPath, KCore,
                        CComp, GColor, TC, Gibbs, DCentr, BCentr)
}

#: Names of the workloads with GPU kernels (paper: 8 GPU workloads).
GPU_WORKLOADS: tuple[str, ...] = tuple(
    name for name, cls in WORKLOADS.items() if cls.HAS_GPU)


@dataclass(frozen=True)
class Table4Row:
    """One row of the paper's workload-summary table."""

    workload: str
    category: str
    computation_type: str
    gpu: bool
    algorithm: str


_ALGORITHMS = {
    "BFS": "level-synchronous queue BFS",
    "DFS": "iterative stack DFS",
    "GCons": "incremental vertex/edge insertion",
    "GUp": "random vertex deletion with edge unlink",
    "TMorph": "DAG moralization (construct+traverse+update)",
    "SPath": "Dijkstra with binary heap",
    "kCore": "Matula & Beck smallest-last peeling",
    "CComp": "BFS labelling (CPU) / Soman (GPU)",
    "GColor": "Luby-Jones independent sets",
    "TC": "Schank edge-iterator intersection",
    "Gibbs": "Gibbs sampling over CPTs",
    "DCentr": "degree scan",
    "BCentr": "Brandes dependency accumulation",
}


def table4() -> list[Table4Row]:
    """The Table 4 summary rows (all workloads, registry order)."""
    return [Table4Row(name, cls.CATEGORY.value, cls.CTYPE.value,
                      cls.HAS_GPU, _ALGORITHMS[name])
            for name, cls in WORKLOADS.items()]


def get(name: str) -> Workload:
    """Instantiate workload ``name`` (KeyError lists valid names)."""
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(WORKLOADS)}") from None


def run(name: str, g: PropertyGraph, tracer: Tracer | None = None,
        **params: Any) -> WorkloadResult:
    """Run workload ``name`` on ``g`` (see each workload's ``kernel`` for
    its parameters)."""
    return get(name).run(g, tracer=tracer, **params)
