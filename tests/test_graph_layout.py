"""Identity gates for the one-pass populating step.

``PropertyGraph.from_edges`` lays a cold graph out in one pass; the loop
through ``add_vertex`` / ``add_edges`` it replaced is
``tests/oracles.py:loop_from_edges``.  The addresses the step assigns
decide every simulated miss, so the two must leave the same graph down to
the allocator's RNG state, and raise the same errors with the same
arguments.
"""

from functools import lru_cache

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.errors import GraphError
from repro.core.graph import PropertyGraph
from repro.core.memmodel import AGED_HEAP, PACKED_HEAP
from repro.core.properties import Field, Schema
from repro.datagen.registry import make
from repro.workloads import common_edge_schema, common_vertex_schema
from tests.oracles import loop_from_edges

DATASETS = ("ldbc", "twitter", "watson", "roadnet", "knowledge")


def layout_state(g: PropertyGraph) -> tuple:
    """Everything the populating step decides, addresses relative to the
    graph's arena base (each allocator claims its own arena)."""
    base = g.alloc.base
    cursor, nbytes, nallocs, rng_state, tags = g.alloc.snapshot()
    vertices = [(vid, v.vid, v.addr - base, v.props,
                 [(d, e.dst, e.addr - base, e.props)
                  for d, e in v.out.items()],
                 list(v.inn))
                for vid, v in g._v.items()]
    return (cursor - base, nbytes, nallocs, rng_state, list(tags.items()),
            g._index_base - base, g._index_cap, g._stack_base - base,
            g.num_edges, g._next_vid, g._sp, g.directed, vertices)


def assert_same_layout(got: PropertyGraph, want: PropertyGraph) -> None:
    assert layout_state(got) == layout_state(want)
    # each vertex and edge owns its property list, as add_vertex/_add_arc
    # give it one
    props = [v.props for v in got._v.values()]
    props += [e.props for v in got._v.values() for e in v.out.values()]
    assert len({id(p) for p in props}) == len(props)


@lru_cache(maxsize=None)
def _spec(name, scale):
    return make(name, scale=scale, seed=0)


@pytest.mark.parametrize("heap", [PACKED_HEAP, AGED_HEAP],
                         ids=["packed", "aged"])
@pytest.mark.parametrize("scale", [0.05, 0.25])
@pytest.mark.parametrize("name", DATASETS)
def test_registry_dataset_layout_equals_the_loop(name, scale, heap):
    spec = _spec(name, scale)
    kw = dict(directed=spec.directed, vertex_schema=common_vertex_schema(),
              edge_schema=common_edge_schema(), heap=heap)
    assert_same_layout(PropertyGraph.from_edges(spec.n, spec.edges, **kw),
                       loop_from_edges(spec.n, map(tuple, spec.edges), **kw))


def test_spec_build_is_the_loop_on_an_aged_heap(tiny_spec):
    kw = dict(vertex_schema=common_vertex_schema(),
              edge_schema=common_edge_schema())
    assert_same_layout(tiny_spec.build(**kw),
                       loop_from_edges(tiny_spec.n, tiny_spec.edges,
                                       directed=tiny_spec.directed,
                                       heap=AGED_HEAP, **kw))


def test_no_primitive_is_called(monkeypatch):
    def refuse(*_a, **_k):
        raise AssertionError("from_edges went through a primitive")
    for name in ("add_vertex", "add_edge", "add_edges", "_add_arc"):
        monkeypatch.setattr(PropertyGraph, name, refuse)
    g = PropertyGraph.from_edges(1100, [(0, 1), (1, 0), (1099, 3)],
                                 directed=False, heap=AGED_HEAP)
    assert g.num_edges == 4 and g._index_cap == 2048


def test_from_edges_takes_no_tracer():
    with pytest.raises(TypeError):
        PropertyGraph.from_edges(2, [(0, 1)], tracer=None)


# -- random edge lists --------------------------------------------------------

VSCHEMA = Schema([Field("level", default=-1), Field("tag", default="v")])
ESCHEMA = Schema([Field("w", default=1.0)])


@st.composite
def edge_lists(draw):
    """``(n, edges)``: ids from a small pool so duplicates, reversed pairs
    and self loops are common; ``n`` up to past 2048 so the vertex index
    regrows twice; now and then one endpoint out of range."""
    n = draw(st.one_of(st.integers(0, 9),
                       st.sampled_from([1023, 1024, 1025, 2048, 2049,
                                        2100])))
    pool = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=1,
                         max_size=6))
    ids = st.sampled_from(pool)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=30))
    if edges and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(edges) - 1))
        bad = draw(st.sampled_from([-1, n, n + 7]))
        row = list(edges[i])
        row[draw(st.integers(0, 1))] = bad
        edges[i] = tuple(row)
    return n, edges


def _outcome(build, n, edges, **kw):
    try:
        return build(n, edges, **kw), None
    except GraphError as exc:
        return None, (type(exc), exc.args, vars(exc))


@given(edge_lists(), st.booleans(), st.booleans(), st.booleans(),
       st.sampled_from([PACKED_HEAP, AGED_HEAP]))
@settings(max_examples=200, deadline=None)
def test_random_edge_lists_layout_equals_the_loop(case, directed, skip,
                                                  as_array, heap):
    n, edges = case
    kw = dict(directed=directed, vertex_schema=VSCHEMA, edge_schema=ESCHEMA,
              heap=heap, skip_duplicates=skip)
    arg = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array \
        else edges
    got, got_err = _outcome(PropertyGraph.from_edges, n, arg, **kw)
    want, want_err = _outcome(loop_from_edges, n, edges, **kw)
    assert got_err == want_err
    if want is not None:
        assert_same_layout(got, want)
