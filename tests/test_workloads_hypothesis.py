"""Property-based tests of workload invariants on random graphs."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro import workloads as W
from repro.datagen import GraphSpec
from repro.core.taxonomy import DataSource
from repro.workloads import common_edge_schema, common_vertex_schema
from tests.oracles import (
    coloring_errors,
    reference_ccomp,
    reference_kcore,
    reference_tc,
)


@st.composite
def random_spec(draw, max_n=40, max_m=120):
    n = draw(st.integers(4, max_n))
    m = draw(st.integers(1, max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=m))
    return GraphSpec("rand", DataSource.SYNTHETIC, n, np.array(edges))


def build(spec):
    return spec.build(vertex_schema=common_vertex_schema(),
                      edge_schema=common_edge_schema())


@given(random_spec())
@settings(max_examples=40, deadline=None)
def test_bfs_levels_are_shortest_distances(spec):
    g = build(spec)
    res = W.run("BFS", g, root=0)
    levels = res.outputs["levels"]
    assert levels.get(0) == 0
    # edge relaxation: no edge can skip more than one level
    for s, d in spec.edges:
        if int(s) in levels:
            assert levels.get(int(d), 10 ** 9) <= levels[int(s)] + 1


@given(random_spec())
@settings(max_examples=30, deadline=None)
def test_coloring_always_proper(spec):
    g = build(spec)
    res = W.run("GColor", g)
    assert not coloring_errors(spec.n, spec.edges, res.outputs["colors"])
    assert len(res.outputs["colors"]) == spec.n


@given(random_spec())
@settings(max_examples=30, deadline=None)
def test_kcore_matches_networkx(spec):
    g = build(spec)
    res = W.run("kCore", g)
    assert res.outputs["core"] == reference_kcore(spec)


@given(random_spec())
@settings(max_examples=30, deadline=None)
def test_tc_matches_networkx(spec):
    g = build(spec)
    res = W.run("TC", g)
    assert res.outputs["triangles"] == reference_tc(spec)


@given(random_spec())
@settings(max_examples=30, deadline=None)
def test_ccomp_labels_equal_reachability(spec):
    g = build(spec)
    res = W.run("CComp", g)
    assert res.outputs["n_components"] == reference_ccomp(spec)


@given(random_spec(), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_gup_leaves_consistent_graph(spec, seed):
    g = build(spec)
    W.run("GUp", g, fraction=0.5, seed=seed)
    arcs = sum(len(g.find_vertex(v).out) for v in g.vertex_ids())
    assert arcs == g.num_edges
    for vid in g.vertex_ids():
        v = g.find_vertex(vid)
        for dst in v.out:
            assert dst in g
        for src in v.inn:
            assert src in g
