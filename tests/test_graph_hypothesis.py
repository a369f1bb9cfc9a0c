"""Property-based tests: graph invariants under random operation sequences."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.errors import DuplicateEdge, EdgeNotFound, VertexNotFound
from repro.core.graph import PropertyGraph
from repro.core.properties import Field, Schema
from repro.core.trace import Tracer

N_IDS = 12

op = st.one_of(
    st.tuples(st.just("addv"), st.integers(0, N_IDS - 1)),
    st.tuples(st.just("delv"), st.integers(0, N_IDS - 1)),
    st.tuples(st.just("adde"), st.integers(0, N_IDS - 1),
              st.integers(0, N_IDS - 1)),
)


def apply_ops(g: PropertyGraph, ops) -> None:
    for o in ops:
        try:
            if o[0] == "addv":
                g.add_vertex(o[1])
            elif o[0] == "delv":
                g.delete_vertex(o[1])
            else:
                g.add_edge(o[1], o[2])
        except (VertexNotFound, EdgeNotFound, DuplicateEdge, Exception):
            pass


def check_invariants(g: PropertyGraph) -> None:
    # arc count equals recount
    arcs = sum(len(g.find_vertex(v).out) for v in g.vertex_ids())
    assert arcs == g.num_edges
    for vid in list(g.vertex_ids()):
        v = g.find_vertex(vid)
        # every out-edge target exists and records us as in-neighbour
        for dst in v.out:
            assert dst in g
            assert vid in g.find_vertex(dst).inn
        # every in-neighbour exists and has the arc
        for src in v.inn:
            assert src in g
            assert vid in g.find_vertex(src).out


@given(st.lists(op, max_size=60))
@settings(max_examples=120, deadline=None)
def test_random_ops_keep_invariants(ops):
    g = PropertyGraph(Schema([Field("x")]))
    apply_ops(g, ops)
    check_invariants(g)


@given(st.lists(op, max_size=60))
@settings(max_examples=60, deadline=None)
def test_random_ops_traced_matches_untraced(ops):
    g1 = PropertyGraph(Schema([Field("x")]))
    t = Tracer()
    g2 = PropertyGraph(Schema([Field("x")]), tracer=t)
    apply_ops(g1, ops)
    apply_ops(g2, ops)
    assert set(g1.vertex_ids()) == set(g2.vertex_ids())
    assert g1.num_edges == g2.num_edges
    # tracer region stack stays balanced through error paths
    assert len(t._rstack) == 1


@given(st.lists(op, max_size=60))
@settings(max_examples=60, deadline=None)
def test_random_ops_undirected_symmetry(ops):
    g = PropertyGraph(Schema([Field("x")]), directed=False)
    apply_ops(g, ops)
    for vid in g.vertex_ids():
        for dst in g.find_vertex(vid).out:
            assert vid in g.find_vertex(dst).out, \
                f"missing mirror arc {dst}->{vid}"


@given(st.lists(st.integers(0, 200), min_size=1, max_size=80, unique=True))
@settings(max_examples=50, deadline=None)
def test_vertex_addresses_never_overlap(ids):
    g = PropertyGraph(Schema([Field("x")]))
    size = g._vsize
    addrs = sorted(g.add_vertex(i).addr for i in ids)
    for a, b in zip(addrs, addrs[1:]):
        assert b - a >= size
