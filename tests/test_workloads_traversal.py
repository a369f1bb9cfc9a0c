"""Correctness tests for the traversal workloads (BFS, DFS, SPath)."""

import pytest

from repro import workloads as W
from repro.core.trace import Tracer
from repro.datagen import ca_road, ldbc
from tests.conftest import build
from tests.oracles import (
    nx_graph,
    reference_bfs,
    reference_dfs,
    reference_spath,
)


class TestBFS:
    def test_levels_match_networkx(self, small_spec, small_graph):
        res = W.run("BFS", small_graph, root=0)
        assert res.outputs["levels"] == dict(reference_bfs(small_spec, 0))

    def test_parents_are_one_level_up(self, small_graph):
        res = W.run("BFS", small_graph, root=0)
        levels, parents = res.outputs["levels"], res.outputs["parents"]
        for v, p in parents.items():
            if v != 0:
                assert levels[p] == levels[v] - 1

    def test_visited_counts(self, small_spec, small_graph):
        res = W.run("BFS", small_graph, root=0)
        assert res.outputs["visited"] == len(res.outputs["levels"])

    def test_unreachable_not_labelled(self):
        spec = ldbc(200, avg_degree=4, seed=8)
        g = build(spec)
        iso = g.add_vertex(10_000)
        res = W.run("BFS", g, root=0)
        assert 10_000 not in res.outputs["levels"]
        assert g.vget(iso, "level") == -1

    def test_traced_matches_untraced(self, small_spec):
        r1 = W.run("BFS", build(small_spec), root=0)
        r2 = W.run("BFS", build(small_spec), tracer=Tracer(), root=0)
        assert r1.outputs["levels"] == r2.outputs["levels"]
        assert r2.trace is not None and r2.trace.n_accesses > 0

    def test_road_network(self):
        spec = ca_road(400, seed=2)
        g = build(spec)
        res = W.run("BFS", g, root=0)
        ref = reference_bfs(spec, 0)
        assert res.outputs["levels"] == dict(ref)

    def test_writes_level_property(self, small_graph):
        W.run("BFS", small_graph, root=0)
        assert small_graph.vget(0, "level") == 0


class TestDFS:
    def test_preorder_matches_networkx(self, small_spec, small_graph):
        res = W.run("DFS", small_graph, root=0)
        got = sorted(res.outputs["order"], key=res.outputs["order"].get)
        assert got == reference_dfs(small_spec, 0)

    def test_orders_unique_and_dense(self, small_graph):
        res = W.run("DFS", small_graph, root=0)
        orders = sorted(res.outputs["order"].values())
        assert orders == list(range(len(orders)))

    def test_root_first(self, small_graph):
        res = W.run("DFS", small_graph, root=3)
        assert res.outputs["order"][3] == 0
        assert res.outputs["parents"][3] == 3


class TestSPath:
    def test_unit_weights_match_networkx(self, small_spec, small_graph):
        res = W.run("SPath", small_graph, root=0)
        ref = reference_spath(small_spec, 0)
        assert res.outputs["dists"] == {k: float(v) for k, v in ref.items()}

    def test_nonuniform_weights(self, tiny_spec):
        import networkx as nx
        g = build(tiny_spec)
        nxg = nx_graph(tiny_spec)
        # weight edges by (src + dst) % 5 + 1
        for vid in g.vertex_ids():
            for dst, node in g.find_vertex(vid).out.items():
                w = (vid + dst) % 5 + 1.0
                g.eset(node, "weight", w)
                nxg[vid][dst]["weight"] = w
        res = W.run("SPath", g, root=0)
        ref = nx.single_source_dijkstra_path_length(nxg, 0)
        for v, d in ref.items():
            assert res.outputs["dists"][v] == pytest.approx(d)

    def test_negative_weight_rejected(self, tiny_spec):
        g = build(tiny_spec)
        v0 = g.find_vertex(0)
        first = next(iter(v0.out.values()))
        g.eset(first, "weight", -1.0)
        with pytest.raises(ValueError):
            W.run("SPath", g, root=0)

    def test_settled_counts(self, small_graph):
        res = W.run("SPath", small_graph, root=0)
        assert res.outputs["settled"] == len(res.outputs["dists"])

    def test_traced_matches_untraced(self, small_spec):
        r1 = W.run("SPath", build(small_spec), root=0)
        r2 = W.run("SPath", build(small_spec), tracer=Tracer(), root=0)
        assert r1.outputs["dists"] == r2.outputs["dists"]
