"""Unit tests for the vertex-centric property graph (repro.core.graph)."""

import pytest

from repro.core.errors import (
    DuplicateEdge,
    DuplicateVertex,
    VertexNotFound,
)
from repro.core.graph import PropertyGraph, V_PROP_OFF
from repro.core.memmodel import AGED_HEAP
from repro.core.properties import Field, Schema
from repro.core.trace import Tracer

from tests.oracles import (
    neighbor_ids, payload_get, payload_read, reset_tracer, scan_vertices,
)


@pytest.fixture
def schema():
    return Schema([Field("level", default=-1), Field("tag", default=0)])


@pytest.fixture
def g(schema):
    return PropertyGraph(schema, Schema([Field("weight", default=1.0)]))


class TestVertexPrimitives:
    def test_add_and_find(self, g):
        v = g.add_vertex(7)
        assert g.find_vertex(7) is v
        assert 7 in g
        assert g.num_vertices == 1

    def test_auto_ids(self, g):
        a = g.add_vertex()
        b = g.add_vertex()
        assert a.vid != b.vid

    def test_auto_id_skips_taken(self, g):
        g.add_vertex(0)
        g.add_vertex(1)
        v = g.add_vertex()
        assert v.vid not in (0, 1) or g.num_vertices == 3

    def test_duplicate_vertex(self, g):
        g.add_vertex(1)
        with pytest.raises(DuplicateVertex):
            g.add_vertex(1)

    def test_find_missing(self, g):
        with pytest.raises(VertexNotFound):
            g.find_vertex(42)

    def test_has_vertex(self, g):
        g.add_vertex(1)
        assert g.has_vertex(1)
        assert not g.has_vertex(2)

    def test_vertex_addresses_distinct(self, g):
        addrs = {g.add_vertex(i).addr for i in range(50)}
        assert len(addrs) == 50

    def test_delete_vertex(self, g):
        g.add_vertex(1)
        g.add_vertex(2)
        g.add_edge(1, 2)
        g.delete_vertex(2)
        assert 2 not in g
        assert g.num_edges == 0
        assert g.find_vertex(1).out == {}

    def test_delete_vertex_removes_in_edges(self, g):
        for i in range(4):
            g.add_vertex(i)
        g.add_edge(0, 3)
        g.add_edge(1, 3)
        g.add_edge(3, 2)
        g.delete_vertex(3)
        assert g.num_edges == 0
        assert 3 not in g.find_vertex(0).out
        assert 3 not in g.find_vertex(2).inn

    def test_delete_missing_vertex(self, g):
        with pytest.raises(VertexNotFound):
            g.delete_vertex(9)


class TestEdgePrimitives:
    def test_add_find_edge(self, g):
        g.add_vertex(1)
        g.add_vertex(2)
        e = g.add_edge(1, 2)
        assert g.find_edge(1, 2) is e
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)
        assert g.num_edges == 1

    def test_add_edge_missing_endpoint(self, g):
        g.add_vertex(1)
        with pytest.raises(VertexNotFound):
            g.add_edge(1, 99)
        with pytest.raises(VertexNotFound):
            g.add_edge(99, 1)

    def test_duplicate_edge(self, g):
        g.add_vertex(1)
        g.add_vertex(2)
        g.add_edge(1, 2)
        with pytest.raises(DuplicateEdge):
            g.add_edge(1, 2)

    def test_in_neighbour_bookkeeping(self, g):
        for i in range(3):
            g.add_vertex(i)
        g.add_edge(0, 2)
        g.add_edge(1, 2)
        assert set(g.in_neighbors(2)) == {0, 1}

    def test_self_loop_allowed(self, g):
        g.add_vertex(1)
        g.add_edge(1, 1)
        assert g.has_edge(1, 1)


class TestUndirected:
    def test_add_edge_mirrors(self, schema):
        g = PropertyGraph(schema, directed=False)
        g.add_vertex(1)
        g.add_vertex(2)
        g.add_edge(1, 2)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.num_edges == 2


class TestTraversal:
    def test_neighbors_insertion_order(self, g):
        for i in range(5):
            g.add_vertex(i)
        for d in (3, 1, 4):
            g.add_edge(0, d)
        assert [d for d, _ in g.neighbors(0)] == [3, 1, 4]

    def test_neighbors_accepts_vid(self, g):
        g.add_vertex(0)
        g.add_vertex(1)
        g.add_edge(0, 1)
        assert [d for d, _ in g.neighbors(0)] == [1]

    def test_vertices_scan(self, g):
        ids = [g.add_vertex(i).vid for i in range(6)]
        assert [v.vid for v in g.vertices()] == ids

    def test_degree(self, g):
        g.add_vertex(0)
        g.add_vertex(1)
        g.add_edge(0, 1)
        assert g.degree(0) == 1
        assert g.degree(1) == 0

    def test_break_mid_neighbors_keeps_tracer_balanced(self, schema):
        t = Tracer()
        g = PropertyGraph(schema, tracer=t)
        for i in range(4):
            g.add_vertex(i)
        for d in (1, 2, 3):
            g.add_edge(0, d)
        for d, _ in g.neighbors(0):
            break
        assert len(t._rstack) == 1


class TestBlockPrimitives:
    """The block oracles ``scan_vertices``/``neighbor_ids`` must emit the
    exact stream of the generator primitives they stand for
    (vertices()/neighbors(), drained)."""

    _COLS = ("addrs", "rw", "iat", "acc_region",
             "branch_sites", "branch_taken")

    def _graph(self, schema):
        t = Tracer()
        g = PropertyGraph(schema, tracer=t)
        for i in range(12):
            g.add_vertex(i)
        for i in range(12):
            g.add_edge(i, (i + 1) % 12)
            g.add_edge(i, (i + 5) % 12)
        return g, t

    def _capture(self, g, t, fn):
        # same graph for both captures: heap addresses must match, and the
        # scan-stack pointer must start from the same rotation
        reset_tracer(t)
        g._sp = 0
        out = fn()
        return out, t.freeze()

    def test_scan_vertices_matches_generator(self, schema):
        g, t = self._graph(schema)
        ids_gen, ft_gen = self._capture(
            g, t, lambda: [v.vid for v in g.vertices()])
        ids_blk, ft_blk = self._capture(
            g, t, lambda: [v.vid for v in scan_vertices(g)])
        assert ids_blk == ids_gen
        import numpy as np
        for f in self._COLS:
            assert np.array_equal(getattr(ft_gen, f),
                                  getattr(ft_blk, f)), f
        assert ft_blk.n_instrs == ft_gen.n_instrs
        assert ft_blk.fw_accesses == ft_gen.fw_accesses

    def test_neighbor_ids_matches_generator(self, schema):
        g, t = self._graph(schema)
        v = g.find_vertex(3)
        gen, ft_gen = self._capture(
            g, t, lambda: [d for d, _ in g.neighbors(v)])
        blk, ft_blk = self._capture(g, t, lambda: neighbor_ids(g, v))
        assert blk == gen
        import numpy as np
        for f in self._COLS:
            assert np.array_equal(getattr(ft_gen, f),
                                  getattr(ft_blk, f)), f
        assert ft_blk.n_instrs == ft_gen.n_instrs

    def test_neighbor_ids_empty_vertex(self, schema):
        t = Tracer()
        g = PropertyGraph(schema, tracer=t)
        g.add_vertex(0)
        assert neighbor_ids(g, 0) == []
        assert len(t._rstack) == 1

    def test_untraced_graph(self, schema):
        g = PropertyGraph(schema)
        g.add_vertex(0)
        g.add_vertex(1)
        g.add_edge(0, 1)
        assert [v.vid for v in scan_vertices(g)] == [0, 1]
        assert neighbor_ids(g, 0) == [1]


class TestProperties:
    def test_vset_vget(self, g):
        v = g.add_vertex(1)
        g.vset(v, "level", 5)
        assert g.vget(v, "level") == 5
        assert g.vget(1, "level") == 5

    def test_defaults(self, g):
        v = g.add_vertex(1)
        assert g.vget(v, "level") == -1

    def test_add_vertex_with_props(self, g):
        v = g.add_vertex(1, level=3, tag=9)
        assert g.vget(v, "level") == 3
        assert g.vget(v, "tag") == 9

    def test_edge_props(self, g):
        g.add_vertex(1)
        g.add_vertex(2)
        e = g.add_edge(1, 2, weight=2.5)
        assert g.eget(e, "weight") == 2.5
        g.eset(e, "weight", 7.0)
        assert g.eget(e, "weight") == 7.0

    def test_payload(self):
        s = Schema([Field("cpt", payload=0)])
        g = PropertyGraph(s)
        v = g.add_vertex(0)
        addr = g.payload_set(v, "cpt", [1, 2, 3], nbytes=24)
        got_addr, val = payload_get(g, v, "cpt")
        assert got_addr == addr
        assert val == [1, 2, 3]
        payload_read(g, addr, 2)

    def test_payload_unset_raises(self):
        s = Schema([Field("cpt", payload=0)])
        g = PropertyGraph(s)
        v = g.add_vertex(0)
        with pytest.raises(VertexNotFound):
            payload_get(g, v, "cpt")


class TestConstruction:
    def test_from_edges(self, schema):
        g = PropertyGraph.from_edges(4, [(0, 1), (1, 2), (0, 1)],
                                     vertex_schema=schema)
        assert g.num_vertices == 4
        assert g.num_edges == 2     # duplicate skipped

    def test_from_edges_strict(self, schema):
        with pytest.raises(DuplicateEdge):
            PropertyGraph.from_edges(3, [(0, 1), (0, 1)],
                                     skip_duplicates=False)

    def test_index_growth(self, schema):
        g = PropertyGraph(schema)
        g.add_vertex(5000)
        assert g._index_cap > 5000
        assert g.find_vertex(5000).vid == 5000


class TestTracedEquivalence:
    """Traced and untraced runs must produce identical graph state."""

    def _build(self, tracer):
        g = PropertyGraph(Schema([Field("x", default=0)]), tracer=tracer)
        for i in range(20):
            g.add_vertex(i)
        for i in range(19):
            g.add_edge(i, i + 1)
        g.delete_vertex(10)
        return g

    def test_same_state(self):
        g1 = self._build(None)
        g2 = self._build(Tracer())
        assert set(g1.vertex_ids()) == set(g2.vertex_ids())
        assert g1.num_edges == g2.num_edges
        for vid in g1.vertex_ids():
            assert (sorted(g1.find_vertex(vid).out)
                    == sorted(g2.find_vertex(vid).out))

    def test_tracer_recorded_something(self):
        t = Tracer()
        self._build(t)
        ft = t.freeze()
        assert ft.n_accesses > 50
        assert ft.n_instrs > 100
        assert ft.fw_instrs == ft.n_instrs   # everything was framework work

    def test_aged_heap_build(self, schema):
        g = PropertyGraph(schema, heap=AGED_HEAP)
        a = g.add_vertex(0).addr
        b = g.add_vertex(1).addr
        assert b > a

    def test_prop_write_address_in_prop_area(self, schema):
        t = Tracer()
        g = PropertyGraph(schema, tracer=t)
        v = g.add_vertex(0)
        g.vset(v, "level", 1)
        ft = t.freeze()
        prop_addr = ft.addrs[-1]
        assert prop_addr >= v.addr + V_PROP_OFF


class TestStateSnapshot:
    def _graph(self):
        schema = Schema([Field("level", default=-1)])
        eschema = Schema([Field("weight", default=1.0)])
        g = PropertyGraph(schema, eschema, heap=AGED_HEAP)
        for vid in range(8):
            g.add_vertex(vid)
        for s in range(8):
            g.add_edge(s, (s + 1) % 8)
        return g

    def test_restore_rewinds_props_and_allocator(self):
        g = self._graph()
        snap = g.state_snapshot()
        addr_before = g.alloc.alloc(64)
        g.alloc.restore(snap[0])
        # property mutation + an extra allocation, then rewind
        snap = g.state_snapshot()
        v = g.find_vertex(3)
        g.vset(v, "level", 9)
        e = g.find_edge(3, 4)
        g.eset(e, "weight", 2.5)
        mid = g.alloc.alloc(128)
        g.restore_state(snap)
        assert g.vget(g.find_vertex(3), "level") == -1
        assert g.eget(g.find_edge(3, 4), "weight") == 1.0
        # the same allocation sequence replays to the same address
        assert g.alloc.alloc(128) == mid
        assert addr_before != mid or True

    def test_restore_replays_identical_traces(self):
        g = self._graph()
        snap = g.state_snapshot()

        def run():
            t = Tracer()
            g.attach_tracer(t)
            for vid in range(8):
                v = g.find_vertex(vid)
                g.vset(v, "level", vid)
                g.vget(v, "level")
            g.detach_tracer()
            return t.freeze()

        f1 = run()
        g.restore_state(snap)
        f2 = run()
        assert f1.addrs.tolist() == f2.addrs.tolist()
        assert f1.iat.tolist() == f2.iat.tolist()
        assert f1.n_instrs == f2.n_instrs
