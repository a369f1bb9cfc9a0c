"""Tests for the NDP projection (the paper's future-work extension)."""

import pytest

from benchmarks.ablations import NDPConfig, project_ndp
from repro.arch import CPUModel, SCALED_XEON
from repro.core.trace import Tracer
from repro.core import trace as T

import numpy as np


def _metrics(scattered=True, n=4000):
    rng = np.random.default_rng(0)
    t = Tracer()
    for _ in range(n):
        t.enter(T.R_VERTEX_SCAN)
        t.i(8)
        if scattered:
            t.r(int(rng.integers(0, 1 << 24)) & ~7)
        else:
            t.r(64)
        t.leave()
    return CPUModel(SCALED_XEON).run(t.freeze())


class TestNDPProjection:
    def test_memory_bound_workload_wins(self):
        proj = project_ndp(_metrics(scattered=True))
        assert proj.speedup > 1.5
        assert proj.memory_bound_fraction > 0.5

    def test_compute_bound_workload_gains_less(self):
        mem = project_ndp(_metrics(scattered=True))
        cpu = project_ndp(_metrics(scattered=False))
        # relative gain is larger for the miss-dominated run
        assert mem.speedup > cpu.speedup

    def test_more_vaults_help(self):
        m = _metrics()
        few = project_ndp(m, NDPConfig(n_vaults=4))
        many = project_ndp(m, NDPConfig(n_vaults=32))
        assert many.ndp_cycles < few.ndp_cycles

    def test_locality_matters(self):
        m = _metrics()
        local = project_ndp(m, locality=0.95)
        remote = project_ndp(m, locality=0.05)
        assert local.speedup > remote.speedup

    def test_locality_validated(self):
        with pytest.raises(ValueError):
            project_ndp(_metrics(), locality=1.5)

    def test_projection_fields(self):
        proj = project_ndp(_metrics())
        assert proj.baseline_cycles > 0
        assert proj.ndp_cycles > 0
        assert 0 <= proj.memory_bound_fraction <= 1


class TestNDPOnRealWorkload:
    def test_bfs_projection(self):
        from repro.datagen import ldbc
        from repro.harness import characterize, clear_cache
        clear_cache()
        spec = ldbc(400, avg_degree=8, seed=1)
        row = characterize("BFS", spec, machine=SCALED_XEON)
        proj = project_ndp(row.cpu)
        # CompStruct traversals are the NDP sweet spot
        assert proj.speedup > 1.0
