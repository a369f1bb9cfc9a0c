"""API edge cases across the public surface."""

import numpy as np
import pytest

from repro.core.errors import VertexNotFound
from repro.formats.convert import csr_to_coo
from tests.conftest import build


class TestWorkloadParameterErrors:
    def test_bfs_missing_root(self, tiny_spec):
        from repro import workloads as W
        g = build(tiny_spec)
        with pytest.raises(VertexNotFound):
            W.run("BFS", g, root=10 ** 9)

    def test_spath_missing_root(self, tiny_spec):
        from repro import workloads as W
        g = build(tiny_spec)
        with pytest.raises(VertexNotFound):
            W.run("SPath", g, root=-5)

    def test_dfs_missing_root(self, tiny_spec):
        from repro import workloads as W
        g = build(tiny_spec)
        with pytest.raises(VertexNotFound):
            W.run("DFS", g, root=10 ** 9)


class TestSpecMaterializations:
    def test_coo(self, tiny_spec):
        coo = csr_to_coo(tiny_spec.csr())
        assert coo.m == tiny_spec.m
        pairs = set(zip(coo.src.tolist(), coo.dst.tolist()))
        for s, d in tiny_spec.edges:
            assert (int(s), int(d)) in pairs


class TestReportHelpers:
    def test_paper_note(self):
        from benchmarks.paper import paper_note
        assert "paper:" in paper_note("something")


class TestPaperXeon:
    def test_runs_on_trace(self):
        from repro.arch import CPUModel, PAPER_XEON
        from repro.core.trace import Tracer
        from tests.oracles import MemoryHierarchy
        t = Tracer()
        rng = np.random.default_rng(0)
        addrs = (rng.integers(0, 1 << 22, 500) & ~7).astype(np.uint64)
        for a in addrs.tolist():
            t.i(6)
            t.r(a)
        m = CPUModel(PAPER_XEON).run(t.freeze())
        assert m.ipc > 0
        # the unscaled 20 MB LLC swallows a toy footprint: a second pass
        # over the same addresses is all L3 hits
        hier = MemoryHierarchy(PAPER_XEON)
        hier.simulate(addrs)
        _, (_, _, l3_misses) = hier.simulate(addrs)
        assert not len(l3_misses)


class TestGPURunnerParams:
    def test_bcentr_sampled(self, tiny_spec):
        from repro.gpu import run_gpu_workload
        out, m = run_gpu_workload("BCentr", tiny_spec, n_sources=3)
        assert out["n_sources"] == 3
        assert m.exec_time > 0

    def test_custom_device(self):
        from repro.gpu import K40, DeviceConfig, KernelStats, time_kernel
        slow = DeviceConfig(n_sms=1, clock_ghz=0.1, peak_bw_gbs=10)
        stats = KernelStats(warp_issues=1000, dram_transactions=500)
        assert (time_kernel(stats, slow).exec_time
                > time_kernel(stats, K40).exec_time)
