"""Tests for the Graph 500-style output validators."""

import pytest

from repro import workloads as W
from repro.workloads.validate import (
    validate_bfs,
    validate_kcore,
    validate_sssp,
    validate_triangles,
)
from tests.conftest import build
from tests.oracles import coloring_errors, validate_components


@pytest.fixture(scope="module")
def graph_and_results(small_spec):
    g = build(small_spec)
    res = {
        "bfs": W.run("BFS", g, root=0).outputs,
        "sssp": W.run("SPath", g, root=0).outputs,
        "colors": W.run("GColor", g).outputs,
        "core": W.run("kCore", g).outputs,
        "comp": W.run("CComp", g).outputs,
        "tc": W.run("TC", g).outputs,
    }
    return g, res


class TestValidatorsAcceptCorrectOutputs:
    def test_bfs(self, graph_and_results):
        g, res = graph_and_results
        assert validate_bfs(g, 0, res["bfs"]["levels"],
                            res["bfs"]["parents"]) == []

    def test_sssp(self, graph_and_results):
        g, res = graph_and_results
        assert validate_sssp(g, 0, res["sssp"]["dists"]) == []

    def test_coloring(self, small_spec, graph_and_results):
        _, res = graph_and_results
        assert coloring_errors(small_spec.n, small_spec.edges,
                               res["colors"]["colors"]) == []

    def test_kcore(self, graph_and_results):
        g, res = graph_and_results
        assert validate_kcore(g, res["core"]["core"]) == []

    def test_components(self, graph_and_results):
        g, res = graph_and_results
        assert validate_components(g, res["comp"]["comp"]) == []

    def test_triangles(self, graph_and_results):
        g, res = graph_and_results
        assert validate_triangles(g, res["tc"]["triangles"],
                                  res["tc"]["per_vertex"]) == []


class TestValidatorsRejectCorruptedOutputs:
    def test_bfs_level_skip(self, graph_and_results):
        g, res = graph_and_results
        bad = dict(res["bfs"]["levels"])
        victim = max(bad, key=bad.get)
        bad[victim] += 5
        assert validate_bfs(g, 0, bad, res["bfs"]["parents"])

    def test_bfs_wrong_root(self, graph_and_results):
        g, res = graph_and_results
        assert validate_bfs(g, 0, {0: 1}, {0: 0})

    def test_sssp_too_long(self, graph_and_results):
        g, res = graph_and_results
        bad = dict(res["sssp"]["dists"])
        victim = max(bad, key=bad.get)
        bad[victim] += 100.0
        assert validate_sssp(g, 0, bad)

    def test_coloring_conflict(self, small_spec, graph_and_results):
        g, res = graph_and_results
        bad = dict(res["colors"]["colors"])
        vid = next(iter(g.vertex_ids()))
        v = g.find_vertex(vid)
        if v.out:
            dst = next(iter(v.out))
            bad[dst] = bad[vid]
            assert coloring_errors(small_spec.n, small_spec.edges, bad)

    def test_kcore_inflated(self, graph_and_results):
        g, res = graph_and_results
        bad = dict(res["core"]["core"])
        vid = next(iter(bad))
        bad[vid] = 10 ** 6
        assert validate_kcore(g, bad)

    def test_components_split(self, graph_and_results):
        g, res = graph_and_results
        bad = dict(res["comp"]["comp"])
        vid = next(v for v in g.vertex_ids()
                   if g.find_vertex(v).out)
        bad[vid] = -42
        assert validate_components(g, bad)

    def test_triangles_inconsistent(self, graph_and_results):
        g, res = graph_and_results
        assert validate_triangles(g, res["tc"]["triangles"] + 1,
                                  res["tc"]["per_vertex"])
