"""Correctness tests for the analytics and social workloads."""

import pytest

from repro import workloads as W
from repro.datagen import GraphSpec, ca_road, watson_gene
from tests.conftest import build
from tests.oracles import (
    coloring_errors,
    nx_graph,
    reference_bcentr,
    reference_ccomp,
    reference_dcentr,
    reference_kcore,
    reference_tc,
)


class TestKCore:
    def test_matches_networkx(self, small_spec, small_graph):
        res = W.run("kCore", small_graph)
        assert res.outputs["core"] == reference_kcore(small_spec)

    def test_max_core_consistent(self, small_graph):
        res = W.run("kCore", small_graph)
        assert res.outputs["max_core"] == max(res.outputs["core"].values())

    def test_road_network(self):
        spec = ca_road(400, seed=1)
        g = build(spec)
        res = W.run("kCore", g)
        assert res.outputs["core"] == reference_kcore(spec)

    def test_writes_core_property(self, small_graph):
        res = W.run("kCore", small_graph)
        for vid, k in list(res.outputs["core"].items())[:20]:
            assert small_graph.vget(vid, "core") == k


class TestCComp:
    def test_component_count(self, small_spec, small_graph):
        res = W.run("CComp", small_graph)
        assert res.outputs["n_components"] == reference_ccomp(small_spec)

    def test_labels_partition_correctly(self, small_spec, small_graph):
        import networkx as nx
        res = W.run("CComp", small_graph)
        comp = res.outputs["comp"]
        und = nx.Graph(nx_graph(small_spec))
        for cset in nx.connected_components(und):
            labels = {comp[v] for v in cset}
            assert len(labels) == 1

    def test_disconnected_graph(self):
        # the modules alone, their bridges dropped: 20 islands
        gene = watson_gene(800, seed=4)
        local = (gene.edges // 40)[:, 0] == (gene.edges // 40)[:, 1]
        spec = GraphSpec("modules", gene.source, gene.n, gene.edges[local])
        g = build(spec)
        res = W.run("CComp", g)
        assert res.outputs["n_components"] == reference_ccomp(spec)
        assert res.outputs["n_components"] > 1


class TestGColor:
    def test_proper_coloring(self, small_spec, small_graph):
        res = W.run("GColor", small_graph)
        assert not coloring_errors(small_spec.n, small_spec.edges,
                                   res.outputs["colors"])

    def test_all_vertices_colored(self, small_graph):
        res = W.run("GColor", small_graph)
        assert len(res.outputs["colors"]) == small_graph.num_vertices
        assert min(res.outputs["colors"].values()) >= 0

    def test_color_count_bounded_by_max_degree(self, tiny_spec):
        g = build(tiny_spec)
        res = W.run("GColor", g)
        maxdeg = int(tiny_spec.degrees_undirected().max())
        assert res.outputs["n_colors"] <= maxdeg + 1



class TestTC:
    def test_matches_networkx(self, small_spec, small_graph):
        res = W.run("TC", small_graph)
        assert res.outputs["triangles"] == reference_tc(small_spec)

    def test_per_vertex_sums_to_three_times_total(self, small_graph):
        res = W.run("TC", small_graph)
        assert (sum(res.outputs["per_vertex"].values())
                == 3 * res.outputs["triangles"])

    def test_triangle_free_graph(self):
        # the lattice alone, its diagonal shortcuts dropped
        road = ca_road(200, seed=0)
        step = road.edges[:, 1] - road.edges[:, 0]
        lattice = (step == 1) | (step == road.meta["side"])
        spec = GraphSpec("lattice", road.source, road.n, road.edges[lattice],
                         directed=False)
        g = build(spec)
        res = W.run("TC", g)
        assert res.outputs["triangles"] == reference_tc(spec)

    def test_known_triangle(self):
        from repro.core.graph import PropertyGraph
        from repro.workloads import common_vertex_schema
        g = PropertyGraph(common_vertex_schema())
        for i in range(4):
            g.add_vertex(i)
        for s, d in [(0, 1), (1, 2), (2, 0), (0, 3)]:
            g.add_edge(s, d)
        assert W.run("TC", g).outputs["triangles"] == 1


class TestDCentr:
    def test_matches_degree_sums(self, small_spec, small_graph):
        res = W.run("DCentr", small_graph)
        ref = reference_dcentr(small_spec)
        assert all(res.outputs["dc"][v] == ref[v] for v in ref)

    def test_final_property_value(self, small_graph):
        res = W.run("DCentr", small_graph)
        for vid in list(res.outputs["dc"])[:20]:
            assert small_graph.vget(vid, "dc") == res.outputs["dc"][vid]


class TestBCentr:
    def test_exact_matches_networkx(self, tiny_spec):
        g = build(tiny_spec)
        res = W.run("BCentr", g, n_sources=None)     # all sources
        ref = reference_bcentr(tiny_spec)
        for v, b in ref.items():
            assert res.outputs["bc"][v] == pytest.approx(b, abs=1e-6)

    def test_sampled_is_scaled_estimate(self, tiny_spec):
        g = build(tiny_spec)
        res = W.run("BCentr", g, n_sources=30)
        ref = reference_bcentr(tiny_spec)
        top_ref = max(ref, key=ref.get)
        got = res.outputs["bc"]
        # the top exact vertex should rank highly in the estimate
        rank = sorted(got, key=got.get, reverse=True).index(top_ref)
        assert rank < max(5, len(got) // 10)

    def test_star_graph_center(self):
        from repro.core.graph import PropertyGraph
        from repro.workloads import common_vertex_schema
        g = PropertyGraph(common_vertex_schema(), directed=False)
        for i in range(6):
            g.add_vertex(i)
        for i in range(1, 6):
            g.add_edge(0, i)
        res = W.run("BCentr", g, n_sources=None)
        bc = res.outputs["bc"]
        assert bc[0] == max(bc.values())
        assert all(bc[i] == pytest.approx(0.0) for i in range(1, 6))
