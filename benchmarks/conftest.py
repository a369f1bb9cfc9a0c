"""Shared benchmark infrastructure.

Every figure/table benchmark draws from one memoized characterization pass
(the ``suite`` session fixture).  The dataset scale is controlled by the
``REPRO_BENCH_SCALE`` environment variable (default 1.0 = the scaled-Xeon
configuration the models are calibrated at; smaller values run faster but
compress the contrasts).

Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows each figure's paper-vs-measured table.
"""

from __future__ import annotations

import os

import pytest

from repro.arch.machine import SCALED_XEON
from repro.bayes import munin_like
from repro.datagen import REGISTRY, make
from benchmarks.paper import DATA_SENSITIVE_WORKLOADS
from repro.harness import (
    CPU_WORKLOADS,
    GPU_WORKLOAD_SET,
    characterize,
    run_cpu_workload,
)
from repro.harness.runner import Row
from repro.workloads import WORKLOADS

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


class Suite:
    """Lazy, memoizing access to every experiment's characterization."""

    def __init__(self):
        self.machine = SCALED_XEON
        self.scale = BENCH_SCALE
        self._datasets = None
        self._main = None
        self._sens = None
        self._bn = None

    @property
    def datasets(self):
        if self._datasets is None:
            # the Table 7 suite, generated in registry order
            self._datasets = {name: make(name, scale=self.scale, seed=SEED)
                              for name in REGISTRY}
        return self._datasets

    @property
    def ldbc(self):
        return self.datasets["ldbc"]

    @property
    def bn(self):
        if self._bn is None:
            # MUNIN-like network scaled with the benchmark scale
            self._bn = munin_like(
                n_vertices=max(120, int(1041 * min(self.scale, 1.0))),
                n_edges=max(160, int(1397 * min(self.scale, 1.0))),
                target_params=max(4000, int(80592 * min(self.scale, 1.0))),
                seed=SEED)
        return self._bn

    def main_rows(self) -> dict[str, Row]:
        """All CPU workloads characterized on the LDBC graph (Figs. 1,
        5-8)."""
        if self._main is None:
            rows = {}
            for name in CPU_WORKLOADS:
                if name == "Gibbs":
                    result, cpu = run_cpu_workload(
                        name, self.ldbc, machine=self.machine,
                        gibbs_bn=self.bn)
                    rows[name] = Row(name, self.ldbc.name,
                                     WORKLOADS[name].CTYPE, cpu=cpu,
                                     result=result)
                else:
                    rows[name] = characterize(name, self.ldbc,
                                              machine=self.machine)
            self._main = rows
        return self._main

    def sens_rows(self) -> list[Row]:
        """Data-sensitivity matrix with GPU metrics (Figs. 9-13)."""
        if self._sens is None:
            rows = []
            for wname in DATA_SENSITIVE_WORKLOADS:
                for spec in self.datasets.values():
                    rows.append(characterize(wname, spec,
                                             machine=self.machine,
                                             with_gpu=True))
            # the GPU-only extras (GColor, BCentr) on every dataset
            for wname in GPU_WORKLOAD_SET:
                if wname in DATA_SENSITIVE_WORKLOADS:
                    continue
                for spec in self.datasets.values():
                    rows.append(characterize(wname, spec,
                                             machine=self.machine,
                                             with_gpu=True))
            self._sens = rows
        return self._sens

    def gpu_rows(self) -> dict[tuple[str, str], Row]:
        return {(r.workload, r.dataset): r for r in self.sens_rows()
                if r.gpu is not None}


@pytest.fixture(scope="session")
def suite():
    return Suite()


def show(text: str) -> None:
    """Print a figure table (visible with pytest -s)."""
    print("\n" + text)
