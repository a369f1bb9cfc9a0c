"""Property-based tests on the format conversions."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.graph import PropertyGraph
from repro.formats import csr_to_coo, from_edge_arrays, to_csr


@st.composite
def edge_set(draw, max_n=24):
    n = draw(st.integers(2, max_n))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=60))
    return n, sorted(edges)


@given(edge_set())
@settings(max_examples=60, deadline=None)
def test_csr_coo_roundtrip_preserves_edges(data):
    n, edges = data
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    csr = from_edge_arrays(n, src, dst)
    coo = csr_to_coo(csr)
    back = from_edge_arrays(coo.n, coo.src, coo.dst)
    got = sorted((int(v), int(d)) for v in range(n)
                 for d in back.neighbors(v))
    assert got == edges


@given(edge_set())
@settings(max_examples=40, deadline=None)
def test_propertygraph_csr_roundtrip(data):
    n, edges = data
    g = PropertyGraph()
    for v in range(n):
        g.add_vertex(v)
    for s, d in edges:
        g.add_edge(s, d)
    csr, ids = to_csr(g)
    got = sorted((int(ids[v]), int(ids[d])) for v in range(csr.n)
                 for d in csr.neighbors(v))
    assert got == edges


@given(edge_set())
@settings(max_examples=40, deadline=None)
def test_undirected_is_symmetric_superset(data):
    n, edges = data
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    und = from_edge_arrays(n, src, dst).undirected()
    pairs = {(int(v), int(d)) for v in range(n)
             for d in und.neighbors(v)}
    for s, d in edges:
        assert (s, d) in pairs and (d, s) in pairs
    for s, d in pairs:
        assert (d, s) in pairs
