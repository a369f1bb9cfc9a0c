"""Degenerate-input robustness: single vertices, empty adjacencies,
isolated graphs — the corners a downstream user will hit first."""

import numpy as np

from repro import workloads as W
from repro.core.graph import PropertyGraph
from repro.formats import CSRGraph, from_edge_arrays
from repro.workloads import common_edge_schema, common_vertex_schema


def single_vertex_graph():
    g = PropertyGraph(common_vertex_schema(), common_edge_schema())
    g.add_vertex(0)
    return g


def edgeless_graph(n=5):
    g = PropertyGraph(common_vertex_schema(), common_edge_schema())
    for i in range(n):
        g.add_vertex(i)
    return g


class TestSingleVertexWorkloads:
    def test_bfs(self):
        res = W.run("BFS", single_vertex_graph(), root=0)
        assert res.outputs["levels"] == {0: 0}

    def test_dfs(self):
        res = W.run("DFS", single_vertex_graph(), root=0)
        assert res.outputs["order"] == {0: 0}

    def test_spath(self):
        res = W.run("SPath", single_vertex_graph(), root=0)
        assert res.outputs["dists"] == {0: 0.0}

    def test_kcore(self):
        res = W.run("kCore", single_vertex_graph())
        assert res.outputs["core"] == {0: 0}

    def test_tc(self):
        assert W.run("TC", single_vertex_graph()).outputs["triangles"] == 0

    def test_ccomp(self):
        res = W.run("CComp", single_vertex_graph())
        assert res.outputs["n_components"] == 1

    def test_gcolor(self):
        res = W.run("GColor", single_vertex_graph())
        assert res.outputs["colors"] == {0: 0}

    def test_dcentr(self):
        assert W.run("DCentr",
                     single_vertex_graph()).outputs["dc"] == {0: 0.0}

    def test_bcentr(self):
        assert W.run("BCentr", single_vertex_graph(),
                     n_sources=None).outputs["bc"] == {0: 0.0}

    def test_tmorph(self):
        res = W.run("TMorph", single_vertex_graph())
        assert res.outputs["moral_edges"] == set()


class TestEdgelessGraphs:
    def test_ccomp_all_singletons(self):
        res = W.run("CComp", edgeless_graph(7))
        assert res.outputs["n_components"] == 7

    def test_gcolor_one_color(self):
        res = W.run("GColor", edgeless_graph(7))
        assert res.outputs["n_colors"] == 1

    def test_kcore_all_zero(self):
        res = W.run("kCore", edgeless_graph(4))
        assert set(res.outputs["core"].values()) == {0}

    def test_gup_can_empty_the_graph(self):
        g = edgeless_graph(4)
        res = W.run("GUp", g, fraction=1.0, seed=0)
        assert res.outputs["remaining_vertices"] == 0


class TestDegenerateCSR:
    def test_empty_graph_csr(self):
        csr = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert csr.n == 0 and csr.m == 0

    def test_single_vertex_csr(self):
        csr = from_edge_arrays(1, [], [])
        assert list(csr.degrees()) == [0]
        assert list(csr.neighbors(0)) == []

    def test_gpu_kernels_on_edgeless_spec(self):
        from repro.core.taxonomy import DataSource
        from repro.datagen import GraphSpec
        from repro.gpu import run_gpu_workload
        from repro.harness.runner import kernel_params
        spec = GraphSpec("lonely", DataSource.SYNTHETIC, 40,
                         np.array([[0, 1]]))
        for name in ("BFS", "kCore", "CComp", "TC", "DCentr"):
            out, m = run_gpu_workload(name, spec, **kernel_params(name, spec))
            assert 0.0 <= m.bdr <= 1.0
        out, _ = run_gpu_workload("TC", spec)
        assert out["triangles"] == 0
