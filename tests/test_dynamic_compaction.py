"""Gates on the snapshot store's incremental compaction.

* **identity** — a store compacting from its per-version log and a twin
  compacting by the displaced full walk (``tests/oracles.py::
  full_walk_compact``) hold equal state and answer every retained
  version's reads alike after every step of random batches (all five op
  kinds, ids outside the graph, strict failures), pins, releases and
  explicit ``compact()`` calls;
* **counts, no clocks** — compaction never iterates a whole map, the log
  is bounded by the retention window, and a head snapshot counts from
  the store's own counters;
* **rollback** — what a failed strict batch restores, what it leaves
  behind, and that compaction folds the remainder.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.dynamic.store as store_mod
from repro.core.errors import MutationError
from repro.dynamic import MutOp, SnapshotStore

from tests.oracles import full_walk_compact

N = 6
EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5)]
IDS = N + 3                           # ops also name ids outside the graph


def add_v(v):
    return MutOp("add_vertex", src=v)


def del_v(v):
    return MutOp("del_vertex", src=v)


def add_e(s, d):
    return MutOp("add_edge", src=s, dst=d)


def del_e(s, d):
    return MutOp("del_edge", src=s, dst=d)


def set_p(v, name, value):
    return MutOp("set_prop", src=v, name=name, value=value)


def _twins(*, directed, max_versions):
    engine = SnapshotStore.from_edges(N, EDGES, directed=directed,
                                      max_versions=max_versions)
    oracle = SnapshotStore.from_edges(N, EDGES, directed=directed,
                                      max_versions=max_versions)
    oracle._compact_locked = lambda: full_walk_compact(oracle)
    return engine, oracle


def _state(store):
    return {"head": store.head, "floor": store.floor,
            "vspans": store._vspans, "out": store._out,
            "inn": store._inn, "props": store._props,
            "deltas": sorted(store._deltas),
            "n_vertices": store.n_vertices, "n_arcs": store.n_arcs,
            "stats": store.stats.as_dict()}


def _reads(store):
    """What every retained version answers."""
    names = sorted({(vid, name) for vid, hist in store._props.items()
                    for name in hist})
    out = {}
    for v in range(store.floor, store.head + 1):
        with store.snapshot(v) as snap:
            out[v] = (snap.adjacency(), snap.vertex_ids(),
                      snap.n_vertices, snap.n_arcs,
                      [snap.vget(vid, name) for vid, name in names])
    return out


def _drive(stores, steps):
    """Apply ``steps`` to every store alike; yield after each one."""
    pins = [[] for _ in stores]
    for step in steps:
        kind = step[0]
        if kind == "commit":
            failed = []
            for store in stores:
                try:
                    store.commit(step[1], strict=step[2])
                    failed.append(False)
                except MutationError:
                    failed.append(True)
            assert len(set(failed)) == 1
        elif kind == "pin":
            for store, held in zip(stores, pins):
                held.append(store.snapshot(
                    max(store.floor, store.head - step[1])))
        elif kind == "release":
            for held in pins:
                if held:
                    held.pop(step[1] % len(held)).close()
        else:
            folded = {store.compact() for store in stores}
            assert len(folded) == 1
        yield


def _assert_identical(steps, *, directed, max_versions):
    engine, oracle = _twins(directed=directed, max_versions=max_versions)
    for _ in _drive((engine, oracle), steps):
        assert _state(engine) == _state(oracle)
        assert _reads(engine) == _reads(oracle)
        # pinning to read bumps snapshots_pinned on both alike
        assert engine.stats.as_dict() == oracle.stats.as_dict()


_vid = st.integers(0, IDS - 1)
_op = st.one_of(
    st.builds(add_v, _vid), st.builds(del_v, _vid),
    st.builds(add_e, _vid, _vid), st.builds(del_e, _vid, _vid),
    st.builds(set_p, _vid, st.sampled_from("ab"), st.integers(0, 3)))
_step = st.one_of(
    st.tuples(st.just("commit"), st.lists(_op, max_size=6),
              st.booleans()),
    st.tuples(st.just("commit"), st.lists(_op, max_size=6),
              st.just(False)),
    st.tuples(st.just("pin"), st.integers(0, 6)),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("compact")))


def _random_steps(rng, n_steps):
    def op():
        a, b = rng.randrange(IDS), rng.randrange(IDS)
        return rng.choice((add_v(a), del_v(a), add_e(a, b), del_e(a, b),
                           set_p(a, rng.choice("ab"), rng.randrange(4))))
    steps = []
    for _ in range(n_steps):
        roll = rng.random()
        if roll < 0.75:
            steps.append(("commit",
                          [op() for _ in range(rng.randrange(7))],
                          rng.random() < 0.25))
        elif roll < 0.85:
            steps.append(("pin", rng.randrange(7)))
        elif roll < 0.95:
            steps.append(("release", rng.randrange(8)))
        else:
            steps.append(("compact",))
    return steps


class TestIdentityWithFullWalk:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(steps=st.lists(_step, max_size=40), directed=st.booleans(),
           max_versions=st.sampled_from((1, 2, 3, 5, 64)))
    def test_random_steps(self, steps, directed, max_versions):
        _assert_identical(steps, directed=directed,
                          max_versions=max_versions)

    @pytest.mark.parametrize("max_versions", (1, 2, 3, 5, 64))
    def test_seeded_long_runs(self, max_versions):
        for seed in range(12):
            rng = random.Random(seed * 7 + max_versions)
            _assert_identical(_random_steps(rng, 60),
                              directed=bool(seed % 2),
                              max_versions=max_versions)

    @pytest.mark.parametrize("max_versions", (1, 2, 3, 5))
    def test_vertex_deleted_and_readded_in_one_batch(self, max_versions):
        steps = [("commit", [del_v(3), add_v(3), add_e(3, 0)], False)]
        steps += [("commit", [set_p(0, "a", i)], False) for i in range(8)]
        _assert_identical(steps, directed=False,
                          max_versions=max_versions)

    @pytest.mark.parametrize("max_versions", (1, 2, 3, 5))
    def test_arc_added_and_deleted_in_a_failed_strict_batch(
            self, max_versions):
        steps = [("commit", [add_e(3, 4), del_e(3, 4), del_e(0, 5)], True),
                 ("commit", [del_e(0, 1), set_p(1, "a", 1), add_v(0)], True)]
        steps += [("commit", [add_e(1, 4)] if i % 2 else [del_e(1, 4)],
                   False) for i in range(8)]
        _assert_identical(steps, directed=False,
                          max_versions=max_versions)

    def test_pin_released_after_the_floor_target_moved_ten_on(self):
        steps = [("commit", [del_e(0, 1), set_p(0, "a", 0)], False),
                 ("pin", 0)]
        steps += [("commit", [add_e(0, 1), set_p(0, "a", i), del_v(5)]
                   if i % 2 else [del_e(0, 1), add_v(5), add_e(5, 4)],
                   False) for i in range(12)]
        steps += [("release", 0), ("commit", [], False), ("compact",)]
        engine, oracle = _twins(directed=False, max_versions=2)
        floors = []
        for _ in _drive((engine, oracle), steps):
            assert _state(engine) == _state(oracle)
            assert _reads(engine) == _reads(oracle)
            floors.append(engine.floor)
        assert floors[-3] == 1 and floors[-2] == 13   # one 12-version fold


class _NoWalk(dict):
    """A map that refuses to be iterated whole."""

    def _refuse(self, *args):
        raise AssertionError("compaction iterated a whole map")

    __iter__ = items = values = keys = _refuse


class TestCompactionCounts:
    def test_compaction_never_iterates_a_whole_map(self):
        store = SnapshotStore.from_edges(N, EDGES, directed=False,
                                         max_versions=4)
        store._vspans = _NoWalk(store._vspans)
        store._out = _NoWalk(store._out)
        store._props = _NoWalk(store._props)
        rng = random.Random(23)
        for step in _random_steps(rng, 300):
            if step[0] == "commit":
                store.commit(step[1])
        assert store.head > 200
        assert store.stats.compactions >= store.head - 4
        assert store.stats.spans_folded > 100

    @pytest.mark.parametrize("max_versions", (1, 3, 64))
    def test_log_is_bounded_by_the_retention_window(self, max_versions):
        for seed in range(10):
            store = SnapshotStore.from_edges(
                N, EDGES, directed=bool(seed % 2),
                max_versions=max_versions)
            steps = _random_steps(random.Random(seed), 80)
            for _ in _drive((store,), steps):
                assert all(v > store.floor for v in store._touched)
                assert len(store._touched) \
                    <= store.info()["versions_retained"]

    def test_head_counts_come_from_the_counters(self, monkeypatch):
        calls = []
        real = store_mod._alive_at

        def counting(spans, v):
            calls.append(v)
            return real(spans, v)

        monkeypatch.setattr(store_mod, "_alive_at", counting)
        for seed in range(200):
            store = SnapshotStore.from_edges(
                N, EDGES, directed=bool(seed % 2),
                max_versions=(1, 2, 3, 5, 64)[seed % 5])
            steps = _random_steps(random.Random(1000 + seed), 25)
            for _ in _drive((store,), steps):
                pass
            with store.snapshot() as head:
                del calls[:]
                counts = head.n_vertices, head.n_arcs
                assert not calls
                assert counts == (len(head.vertex_ids()),
                                  len(list(head.arcs())))

    def test_older_pin_still_sweeps_its_own_version(self):
        store = SnapshotStore.from_edges(N, EDGES, directed=False)
        store.commit([del_v(5), add_e(0, 3)])
        old = store.snapshot()
        before = old.n_vertices, old.n_arcs
        assert before == (store.n_vertices, store.n_arcs) == (5, 8 + 2)
        store.commit([del_v(4), del_e(0, 1), add_v(7)])
        store.commit([add_e(7, 0)])
        assert (old.n_vertices, old.n_arcs) == before
        assert before == (len(old.vertex_ids()), len(list(old.arcs())))
        assert (store.n_vertices, store.n_arcs) == (5, 8 + 2)
        old.close()


class TestRollbackRemainder:
    def test_failed_batch_leaves_no_empty_rows(self):
        store = SnapshotStore.from_edges(4, [], directed=False)
        with pytest.raises(MutationError):
            store.commit([add_e(3, 0), add_v(0)], strict=True)
        assert store._out == {} and store._inn == {}
        assert store.n_arcs == 0 and store.head == 0

    def test_arc_added_and_deleted_in_a_failed_batch_keeps_an_empty_span(
            self):
        store = SnapshotStore.from_edges(N, EDGES, max_versions=2)
        with pytest.raises(MutationError):
            store.commit([add_e(3, 4), del_e(3, 4), del_e(0, 5)],
                         strict=True)
        assert store._out[3][4] == [[1, 1]]      # not restored ...
        assert store.n_arcs == len(EDGES)
        store.commit([set_p(0, "a", 1)])
        for v in (0, 1):                         # ... and never visible
            with store.snapshot(v) as snap:
                assert not snap.has_arc(3, 4)
                assert snap.n_arcs == len(EDGES)
        store.commit([])
        assert store.floor == 1                  # the floor passed v=1
        assert 3 not in store._out and 4 not in store._inn

    def test_vertex_deleted_and_readded_in_a_failed_batch_keeps_two_spans(
            self):
        store = SnapshotStore.from_edges(N, EDGES, max_versions=2)
        with pytest.raises(MutationError):
            store.commit([del_v(4), add_v(4), add_v(0)], strict=True)
        assert store._vspans[4] == [[0, 1], [1, None]]
        # the vertex's arc died with it and rollback reopened it
        assert store._out[4][5] == [[0, None]]
        assert store.n_vertices == N and store.n_arcs == len(EDGES)
        store.commit([set_p(4, "a", 1)])
        for v in (0, 1):
            with store.snapshot(v) as snap:
                assert snap.has_vertex(4) and snap.has_arc(4, 5)
                assert snap.n_vertices == N
        store.commit([])
        assert store.floor == 1
        assert store._vspans[4] == [[1, None]]
