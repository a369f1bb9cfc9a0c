"""Tests for the streaming-mutation subsystem: the versioned snapshot
store (COW commits, pinned snapshot isolation, retention/compaction,
net-effect deltas), the bulk PropertyGraph mutators, and — property
tested — the incremental BFS/CComp kernels against full batch recompute
after every random mutation batch."""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.errors import BadRequest, MutationError, SnapshotExpired
from repro.core.graph import PropertyGraph
from repro.dynamic import (
    IncrementalBFS,
    IncrementalCComp,
    MutOp,
    SnapshotStore,
    churn_ops,
    parse_op,
    parse_ops,
)
from repro.workloads import common_edge_schema, common_vertex_schema, run

# a small diamond + a disconnected island: 0->1, 0->2, 1->3, 2->3, 4<->5
EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5)]


def _store(**kw):
    kw.setdefault("directed", False)
    return SnapshotStore.from_edges(6, EDGES, **kw)


def add(s, d):
    return MutOp("add_edge", src=s, dst=d)


def dele(s, d):
    return MutOp("del_edge", src=s, dst=d)


# -- wire op parsing ---------------------------------------------------------

class TestOps:
    def test_roundtrip(self):
        for raw in ({"op": "add_vertex", "vid": 7},
                    {"op": "del_vertex", "vid": 7},
                    {"op": "add_edge", "src": 1, "dst": 2},
                    {"op": "del_edge", "src": 1, "dst": 2},
                    {"op": "set_prop", "vid": 3, "name": "state",
                     "value": "hot"}):
            op = parse_op(raw)
            assert parse_op(op.as_dict()) == op

    def test_rejects_garbage(self):
        for raw in (42, {"op": "nope"}, {"op": "add_edge", "src": 1},
                    {"op": "add_vertex", "vid": "x"},
                    {"op": "set_prop", "vid": 1, "name": ""},
                    {"op": "add_edge", "src": -1, "dst": 2}):
            with pytest.raises(BadRequest):
                parse_op(raw)

    def test_batch_cap(self):
        huge = [{"op": "add_vertex", "vid": i} for i in range(10_001)]
        with pytest.raises(BadRequest):
            parse_ops(huge)


# -- snapshot store ----------------------------------------------------------

class TestStoreBasics:
    def test_base_version(self):
        store = _store()
        assert store.head == 0 and store.floor == 0
        with store.snapshot() as snap:
            assert snap.n_vertices == 6
            # undirected base: both arc directions stored
            assert snap.n_arcs == 2 * len(EDGES)
            assert snap.has_arc(1, 0) and snap.has_arc(0, 1)

    def test_commit_advances_head(self):
        store = _store()
        v, delta, skipped = store.commit([add(3, 4)])
        assert v == store.head == 1
        assert delta.version == 1 and skipped == 0
        with store.snapshot() as snap:
            assert snap.has_arc(3, 4) and snap.has_arc(4, 3)

    def test_lenient_skips_noops_strict_raises(self):
        store = _store()
        v, _, skipped = store.commit([add(0, 1), dele(2, 5)])
        assert skipped == 2 and v == 1       # version still burned
        with pytest.raises(MutationError):
            store.commit([add(0, 1)], strict=True)

    def test_strict_failure_is_atomic(self):
        store = _store()
        before = store.snapshot()
        with pytest.raises(MutationError):
            store.commit([add(3, 4), dele(2, 5)], strict=True)
        assert store.head == 0
        with store.snapshot() as now:
            assert not now.has_arc(3, 4)      # first op rolled back
            assert sorted(now.arcs()) == sorted(before.arcs())
        before.close()

    def test_del_vertex_drops_incident_arcs(self):
        store = _store()
        store.commit([MutOp("del_vertex", src=0)])
        with store.snapshot() as snap:
            assert not snap.has_vertex(0)
            assert not snap.has_arc(1, 0)
            assert 0 not in snap.und_neighbors(1)

    def test_properties_are_versioned(self):
        store = _store()
        store.commit([MutOp("set_prop", src=2, name="state", value="a")])
        store.commit([MutOp("set_prop", src=2, name="state", value="b")])
        old = store.snapshot(1)
        new = store.snapshot(2)
        assert old.vget(2, "state") == "a"
        assert new.vget(2, "state") == "b"
        old.close(), new.close()


class TestSnapshotIsolation:
    def test_pinned_reader_is_immutable_under_writes(self):
        store = _store()
        pinned = store.snapshot()            # version 0
        frozen = (sorted(pinned.arcs()), pinned.n_vertices,
                  sorted(pinned.vertex_ids()))
        for i in range(10):
            store.commit(parse_ops(churn_ops(random.Random(i), 6, 4)))
        assert store.head == 10
        # the pinned view answers exactly as before the writes
        assert sorted(pinned.arcs()) == frozen[0]
        assert pinned.n_vertices == frozen[1]
        assert sorted(pinned.vertex_ids()) == frozen[2]
        # and a fresh pin sees the head
        with store.snapshot() as head:
            assert head.version == 10
        pinned.close()

    def test_materialize_equals_batch_load(self):
        store = _store()
        store.commit([add(3, 5), dele(0, 1)])
        with store.snapshot() as snap:
            g = snap.materialize()
        assert sorted(g.vertex_ids()) == sorted(snap.vertex_ids())
        assert g.has_edge(3, 5) and not g.has_edge(0, 1)


class TestRetention:
    def test_floor_advances_and_old_pins_expire(self):
        store = _store(max_versions=4)
        for i in range(12):
            store.commit([add(0, 3)] if i % 2 == 0 else [dele(0, 3)])
        assert store.head == 12
        # the window keeps max_versions versions inclusive of the head
        assert store.floor == store.head - 4 + 1
        with pytest.raises(SnapshotExpired):
            store.snapshot(0)
        with pytest.raises(SnapshotExpired):
            store.deltas_since(0)
        # inside the window both still work
        store.snapshot(store.floor).close()
        assert len(store.deltas_since(store.floor)) == 3

    def test_pin_blocks_compaction(self):
        store = _store(max_versions=2)
        pinned = store.snapshot()            # pin version 0
        for i in range(8):
            store.commit([add(0, 3)] if i % 2 == 0 else [dele(0, 3)])
        # retention would put the floor at 7, but the pin holds it at 0
        assert store.floor == 0
        both_ways = sorted({(a, b) for s, d in EDGES
                            for a, b in ((s, d), (d, s))})
        assert sorted(pinned.arcs()) == both_ways
        pinned.close()
        store.commit([add(2, 4)])
        assert store.floor > 0               # release unblocked folding

    def test_compaction_preserves_head_state(self):
        store = _store(max_versions=3)
        rng = random.Random(7)
        for i in range(15):
            store.commit(parse_ops(churn_ops(rng, 6, 3)))
        with store.snapshot() as snap:
            arcs = sorted(snap.arcs())
            vids = sorted(snap.vertex_ids())
        folded = store.compact()
        assert folded >= 0
        with store.snapshot() as snap:
            assert sorted(snap.arcs()) == arcs
            assert sorted(snap.vertex_ids()) == vids


class TestDeltaNetEffect:
    def test_add_then_del_in_one_batch_cancels(self):
        store = _store()
        _, delta, _ = store.commit([add(3, 4), dele(3, 4)])
        assert delta.added_arcs == () and delta.removed_arcs == ()
        assert delta.size == 0

    def test_del_then_readd_cancels(self):
        store = _store()
        _, delta, _ = store.commit([dele(0, 1), add(0, 1)])
        assert delta.size == 0

    def test_vertex_add_del_cancels(self):
        store = _store()
        _, delta, _ = store.commit(
            [MutOp("add_vertex", src=9), MutOp("del_vertex", src=9)])
        assert delta.added_vertices == () == delta.removed_vertices


# -- bulk PropertyGraph mutators ---------------------------------------------

class TestBulkMutators:
    def _graph(self):
        g = PropertyGraph(common_vertex_schema(), common_edge_schema())
        for v in range(5):
            g.add_vertex(v)
        return g

    def test_add_edges_counts_and_skips_duplicates(self):
        g = self._graph()
        assert g.add_edges([(0, 1), (1, 2), (0, 1)]) == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_add_edges_accepts_numpy_rows(self):
        np = pytest.importorskip("numpy")
        g = self._graph()
        block = np.array([[0, 1], [2, 3], [3, 4]])
        assert g.add_edges(block) == 3
        assert g.has_edge(3, 4)

    def test_add_edges_strict_duplicate_raises(self):
        g = self._graph()
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            g.add_edges([(0, 1)], skip_duplicates=False)

    def test_del_edges_counts_and_missing_ok(self):
        g = self._graph()
        g.add_edges([(0, 1), (1, 2)])
        assert g.del_edges([(0, 1), (3, 4)]) == 1
        assert not g.has_edge(0, 1)
        with pytest.raises(KeyError):
            g.del_edges([(3, 4)], missing_ok=False)


# -- incremental kernels vs batch recompute ----------------------------------

def _batch_bfs(snap, root):
    g = snap.materialize()
    if not snap.has_vertex(root):
        return {}
    return run("BFS", g, root=root).outputs["levels"]


def _batch_comp(snap):
    g = snap.materialize()
    return run("CComp", g).outputs


class TestIncrementalEquivalence:
    def test_bfs_follows_adds_and_deletes(self):
        store = _store()
        bfs = IncrementalBFS(store, root=0)
        bfs.refresh()
        assert bfs.outputs()["levels"] == {0: 0, 1: 1, 2: 1, 3: 2}
        store.commit([add(3, 4)])            # island joins via 3
        assert bfs.refresh() == "incremental"
        assert bfs.outputs()["levels"][5] == 4
        store.commit([dele(0, 1), dele(0, 2)])  # root cut off
        bfs.refresh()
        assert bfs.outputs()["levels"] == {0: 0}

    def test_comp_merges_and_splits(self):
        store = _store()
        comp = IncrementalCComp(store)
        comp.refresh()
        assert comp.outputs()["n_components"] == 2
        store.commit([add(3, 4)])
        assert comp.refresh() == "incremental"
        assert comp.outputs()["n_components"] == 1
        store.commit([dele(3, 4)])
        comp.refresh()
        out = comp.outputs()
        assert out["n_components"] == 2
        assert out["comp"][4] == out["comp"][5] == 4

    def test_recompute_fallback_after_expiry(self):
        store = _store(max_versions=2)
        bfs = IncrementalBFS(store, root=0)
        bfs.refresh()
        for i in range(8):
            store.commit([add(0, 3)] if i % 2 == 0 else [dele(0, 3)])
        # synced version 0 predates the floor: delta chain is gone
        assert bfs.refresh() == "recompute"
        assert bfs.outputs()["levels"] == _batch_bfs(store.snapshot(), 0)

    def test_comp_splits_a_path_cut_twice_in_one_batch(self):
        # the side that exhausts first is split off; what stays behind
        # ({4,5,6} with {0,1,2}) is itself disconnected
        store = SnapshotStore.from_edges(
            7, [(i, i + 1) for i in range(6)], directed=False)
        comp = IncrementalCComp(store)
        comp.refresh()
        store.commit([dele(2, 3), dele(3, 4)])
        assert comp.refresh() == "incremental"
        out = comp.outputs()
        assert out["n_components"] == 3
        assert out["comp"] == {0: 0, 1: 0, 2: 0, 3: 3, 4: 4, 5: 4, 6: 4}
        with store.snapshot() as snap:
            assert out == _batch_comp(snap)

    def test_comp_splits_a_star_three_ways_on_hub_deletion(self):
        # hub 0 with three two-vertex arms: deleting the hub leaves
        # three pieces, witnessed only by the hub's recorded arcs
        store = SnapshotStore.from_edges(
            7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)],
            directed=False)
        comp = IncrementalCComp(store)
        comp.refresh()
        store.commit([MutOp("del_vertex", src=0)])
        assert comp.refresh() == "incremental"
        out = comp.outputs()
        assert out["n_components"] == 3
        assert out["comp"] == {1: 1, 2: 1, 3: 3, 4: 3, 5: 5, 6: 5}
        with store.snapshot() as snap:
            assert out == _batch_comp(snap)

    # derandomized: tier-1 runs the same 60 draws every time, and the
    # draws that once failed are pinned.  ``cuts`` prefixes every batch
    # with that many deletions of edges present at the time — on these
    # path-like graphs nearly every edge is a bridge, so one batch
    # removes several bridges (and now and then a vertex) at once.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 12),
           batches=st.integers(1, 8), cuts=st.integers(0, 4))
    @example(seed=13, n=10, batches=3, cuts=0)
    @example(seed=154, n=6, batches=4, cuts=0)
    @example(seed=275, n=10, batches=2, cuts=0)
    @example(seed=5, n=9, batches=4, cuts=3)
    def test_random_churn_matches_batch_kernels(self, seed, n, batches,
                                                cuts):
        rng = random.Random(seed)
        edges = [(i, i + 1) for i in range(n - 1)
                 if rng.random() < 0.7]
        store = SnapshotStore.from_edges(n, edges, directed=False)
        bfs = IncrementalBFS(store, root=0)
        comp = IncrementalCComp(store)
        for _ in range(batches):
            ops = churn_ops(rng, n, rng.randint(1, 6))
            with store.snapshot() as snap:
                present = sorted((u, v) for u in snap.vertex_ids()
                                 for v in snap.out_neighbors(u) if u < v)
            for u, v in rng.sample(present, min(cuts, len(present))):
                ops.insert(0, {"op": "del_edge", "src": u, "dst": v})
            if cuts and rng.random() < 0.3:
                # never vertex 0: the BFS root stays meaningful
                ops.insert(0, {"op": "del_vertex",
                               "vid": rng.randrange(1, n)})
            store.commit(parse_ops(ops))
            bfs.refresh()
            comp.refresh()
            with store.snapshot() as snap:
                assert bfs.outputs()["levels"] == _batch_bfs(snap, 0)
                want = _batch_comp(snap)
                got = comp.outputs()
                assert got["comp"] == want["comp"]
                assert got["n_components"] == want["n_components"]
