"""Correctness + divergence-shape tests for the 8 GPU kernels."""

import numpy as np
import pytest

from repro.datagen import ca_road, ldbc
from repro.gpu import GPU_KERNELS, run_gpu_workload
from repro.harness.runner import kernel_params
from tests.oracles import (
    coloring_errors,
    nx_graph,
    reference_bcentr,
    reference_bfs,
    reference_ccomp,
    reference_dcentr,
    reference_kcore,
    reference_spath,
    reference_tc,
)


@pytest.fixture(scope="module")
def social():
    return ldbc(600, avg_degree=10, seed=2)


@pytest.fixture(scope="module")
def road():
    return ca_road(400, seed=1)


class TestKernelCorrectness:
    def test_bfs(self, social):
        out, _ = run_gpu_workload("BFS", social, root=0)
        ref = reference_bfs(social, 0)
        assert all(out["levels"][v] == d for v, d in ref.items())
        assert out["visited"] == len(ref)

    def test_bfs_unreached_minus_one(self, road):
        out, _ = run_gpu_workload("BFS", road, root=0)
        ref = reference_bfs(road, 0)
        unreached = set(range(road.n)) - set(ref)
        assert all(out["levels"][v] == -1 for v in unreached)

    def test_spath(self, social):
        out, _ = run_gpu_workload("SPath", social, root=0)
        ref = reference_spath(social, 0)
        assert all(out["dist"][v] == pytest.approx(d)
                   for v, d in ref.items())

    def test_kcore(self, social):
        out, _ = run_gpu_workload("kCore", social)
        ref = reference_kcore(social)
        assert all(out["core"][v] == c for v, c in ref.items())

    def test_kcore_road(self, road):
        out, _ = run_gpu_workload("kCore", road)
        ref = reference_kcore(road)
        assert all(out["core"][v] == c for v, c in ref.items())

    def test_ccomp(self, social, road):
        for spec in (social, road):
            out, _ = run_gpu_workload("CComp", spec)
            assert out["n_components"] == reference_ccomp(spec)

    def test_ccomp_labels_consistent(self, road):
        import networkx as nx
        out, _ = run_gpu_workload("CComp", road)
        comp = out["comp"]
        und = nx.Graph(nx_graph(road))
        for cset in nx.connected_components(und):
            assert len({comp[v] for v in cset}) == 1

    def test_gcolor_proper(self, social):
        out, _ = run_gpu_workload("GColor", social)
        colors = {v: int(c) for v, c in enumerate(out["colors"])}
        assert not coloring_errors(social.n, social.edges, colors)
        assert (out["colors"] >= 0).all()

    def test_tc(self, social, road):
        for spec in (social, road):
            out, _ = run_gpu_workload("TC", spec)
            assert out["triangles"] == reference_tc(spec)

    def test_dcentr(self, social):
        out, _ = run_gpu_workload("DCentr", social)
        ref = reference_dcentr(social)
        assert all(out["dc"][v] == ref[v] for v in ref)

    def test_bcentr_exact(self):
        spec = ldbc(150, avg_degree=5, seed=4)
        out, _ = run_gpu_workload("BCentr", spec, n_sources=None)
        ref = reference_bcentr(spec)
        for v, b in ref.items():
            assert out["bc"][v] == pytest.approx(b, abs=1e-6)

    def test_unknown_kernel(self, social):
        with pytest.raises(KeyError):
            run_gpu_workload("DFS", social)


class TestDivergenceShape:
    """Fig. 10's qualitative layout of the divergence space."""

    @pytest.fixture(scope="class")
    def metrics(self, social):
        out = {}
        for name in GPU_KERNELS:
            _, m = run_gpu_workload(name, social,
                                    **kernel_params(name, social))
            out[name] = m
        return out

    def test_edge_centric_ccomp_converged(self, metrics):
        assert metrics["CComp"].bdr < 0.05

    def test_ccomp_memory_divergent(self, metrics):
        assert metrics["CComp"].mdr > 0.5

    def test_tc_bdr_below_thread_centric(self, metrics):
        assert metrics["TC"].bdr < metrics["GColor"].bdr
        assert metrics["TC"].bdr < metrics["DCentr"].bdr

    def test_kcore_lowest_thread_centric_bdr(self, metrics):
        thread_centric = ("BFS", "SPath", "GColor", "DCentr", "BCentr")
        assert all(metrics["kCore"].bdr < metrics[k].bdr
                   for k in thread_centric)

    def test_gcolor_bcentr_branch_heavy(self, metrics):
        assert metrics["GColor"].bdr > 0.6
        assert metrics["BCentr"].bdr > 0.6

    def test_all_rates_in_unit_interval(self, metrics):
        for m in metrics.values():
            assert 0.0 <= m.bdr <= 1.0
            assert 0.0 <= m.mdr <= 1.0

    def test_divergence_data_sensitivity(self, social, road):
        """Fig. 13: the road network's low degrees reduce BDR for the
        degree-loop kernels."""
        for name in ("BFS", "GColor", "DCentr"):
            _, ms = run_gpu_workload(name, social,
                                     **kernel_params(name, social))
            _, mr = run_gpu_workload(name, road, **kernel_params(name, road))
            assert mr.bdr < ms.bdr


class TestEdgeCentricBFS:
    def test_matches_thread_centric(self, social):
        import numpy as np
        from benchmarks.ablations import GPUBfsEdgeCentric
        from repro.formats.convert import csr_to_coo
        from repro.gpu.kernels import GPUBfs
        csr = social.csr()
        coo = csr_to_coo(csr)
        out_t, _ = GPUBfs().run(csr, coo, root=0)
        out_e, _ = GPUBfsEdgeCentric().run(csr, coo, root=0)
        assert np.array_equal(out_t["levels"], out_e["levels"])

    def test_bdr_collapses(self, social):
        from repro.formats.convert import csr_to_coo
        from benchmarks.ablations import GPUBfsEdgeCentric
        from repro.gpu.device import time_kernel
        from repro.gpu.kernels import GPUBfs
        csr = social.csr()
        coo = csr_to_coo(csr)
        _, st_t = GPUBfs().run(csr, coo, root=0)
        _, st_e = GPUBfsEdgeCentric().run(csr, coo, root=0)
        assert time_kernel(st_e).bdr < 0.05 < time_kernel(st_t).bdr

    def test_requires_coo(self, social):
        import pytest
        from benchmarks.ablations import GPUBfsEdgeCentric
        with pytest.raises(ValueError):
            GPUBfsEdgeCentric().run(social.csr(), None, root=0)
