"""Cross-cutting invariants that tie subsystems together."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro import workloads as W
from repro.core.taxonomy import DataSource
from repro.datagen import GraphSpec
from repro.workloads import common_edge_schema, common_vertex_schema
from tests.oracles import moral_edges


@st.composite
def dag_edges(draw, max_n=20):
    n = draw(st.integers(3, max_n))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 2),
                                   st.integers(1, n - 1)),
                         max_size=40))
    return n, sorted((a, b) for a, b in edges if a < b)


@given(dag_edges())
@settings(max_examples=60, deadline=None)
def test_moralization_marries_every_v_structure(data):
    n, edges = data
    moral = moral_edges(n, edges)
    parents = {}
    for p, c in edges:
        parents.setdefault(c, []).append(p)
    # original edges survive (undirected)
    for p, c in edges:
        assert (min(p, c), max(p, c)) in moral
    # every co-parent pair is married
    for c, ps in parents.items():
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                if a != b:
                    assert (min(a, b), max(a, b)) in moral
    # nothing else is added
    expected = {(min(p, c), max(p, c)) for p, c in edges}
    for c, ps in parents.items():
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                if a != b:
                    expected.add((min(a, b), max(a, b)))
    assert moral == expected


@st.composite
def small_graph(draw):
    n = draw(st.integers(3, 25))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=50))
    return GraphSpec("x", DataSource.SYNTHETIC, n, np.array(edges))


def _build(spec):
    return spec.build(vertex_schema=common_vertex_schema(),
                      edge_schema=common_edge_schema())


@given(small_graph())
@settings(max_examples=30, deadline=None)
def test_spath_unit_weights_equals_bfs_levels(spec):
    """Dijkstra with unit weights must reproduce BFS distances."""
    bfs = W.run("BFS", _build(spec), root=0).outputs["levels"]
    sp = W.run("SPath", _build(spec), root=0).outputs["dists"]
    assert set(bfs) == set(sp)
    for v, lvl in bfs.items():
        assert sp[v] == float(lvl)


@given(small_graph())
@settings(max_examples=30, deadline=None)
def test_gpu_bfs_agrees_with_cpu_bfs(spec):
    from repro.gpu import run_gpu_workload
    cpu = W.run("BFS", _build(spec), root=0).outputs["levels"]
    gpu, _ = run_gpu_workload("BFS", spec, root=0)
    for v in range(spec.n):
        assert gpu["levels"][v] == cpu.get(v, -1)


@given(small_graph())
@settings(max_examples=25, deadline=None)
def test_dcentr_equals_component_sums(spec):
    """Sum of degree centralities equals twice the arc count."""
    g = _build(spec)
    arcs = g.num_edges
    dc = W.run("DCentr", g).outputs["dc"]
    assert sum(dc.values()) == 2 * arcs


@given(small_graph())
@settings(max_examples=25, deadline=None)
def test_kcore_max_bounded_by_degeneracy_bound(spec):
    g = _build(spec)
    res = W.run("kCore", g)
    deg = spec.degrees_undirected()
    assert res.outputs["max_core"] <= max(int(deg.max()), 0)


@given(small_graph())
@settings(max_examples=20, deadline=None)
def test_validators_accept_every_random_run(spec):
    from repro.workloads.validate import validate_bfs
    from tests.oracles import coloring_errors, validate_components
    g = _build(spec)
    bfs = W.run("BFS", g, root=0).outputs
    assert validate_bfs(g, 0, bfs["levels"], bfs["parents"]) == []
    g2 = _build(spec)
    colors = W.run("GColor", g2).outputs["colors"]
    assert coloring_errors(spec.n, spec.edges, colors) == []
    g3 = _build(spec)
    comp = W.run("CComp", g3).outputs["comp"]
    assert validate_components(g3, comp) == []
