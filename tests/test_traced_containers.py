"""Unit tests for the traced algorithmic containers (queue/stack/heap).

These are the "task queues and temporal local variables" whose reuse the
paper credits for graph computing's high L1D hit rates — their address
behaviour matters as much as their semantics.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.graph import PropertyGraph
from repro.core.trace import Tracer
from repro.workloads.base import (
    NULL_TRACER,
    TracedHeap,
    TracedQueue,
    TracedStack,
)
from tests.oracles import heap_pop


@pytest.fixture
def g():
    return PropertyGraph()


class TestTracedQueue:
    def test_fifo(self, g):
        q = TracedQueue(g, NULL_TRACER)
        for i in range(5):
            q.push(i)
        assert [q.pop() for _ in range(5)] == list(range(5))

    def test_len_and_bool(self, g):
        q = TracedQueue(g, NULL_TRACER)
        assert not q and len(q) == 0
        q.push("x")
        assert q and len(q) == 1
        q.pop()
        assert not q

    def test_pop_empty(self, g):
        with pytest.raises(IndexError):
            TracedQueue(g, NULL_TRACER).pop()

    def test_addresses_stay_within_buffer(self, g):
        t = Tracer()
        q = TracedQueue(g, t)
        for i in range(3 * q.cap):
            q.push(i)
            q.pop()
        ft = t.freeze()
        assert ft.addrs.min() >= q.base
        assert ft.addrs.max() < q.base + q.cap * 8

    def test_interleaved_compaction(self, g):
        q = TracedQueue(g, NULL_TRACER)
        out = []
        for i in range(10_000):
            q.push(i)
            if i % 2:
                out.append(q.pop())
        while q:
            out.append(q.pop())
        assert out == sorted(out)
        assert len(out) == 10_000


class TestTracedStack:
    def test_lifo(self, g):
        s = TracedStack(g, NULL_TRACER)
        for i in range(5):
            s.push(i)
        assert [s.pop() for _ in range(5)] == [4, 3, 2, 1, 0]

    def test_pop_empty(self, g):
        with pytest.raises(IndexError):
            TracedStack(g, NULL_TRACER).pop()

    def test_addresses_wrap_capacity(self, g):
        t = Tracer()
        s = TracedStack(g, t)
        for i in range(s.cap + 12):
            s.push(i)
        ft = t.freeze()
        assert ft.addrs.max() < s.base + s.cap * 8

    @given(st.lists(st.one_of(st.just("push"), st.just("pop")),
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_matches_list_semantics(self, ops):
        g = PropertyGraph()
        s = TracedStack(g, NULL_TRACER)
        ref = []
        n = 0
        for op in ops:
            if op == "push":
                s.push(n)
                ref.append(n)
                n += 1
            elif ref:
                assert s.pop() == ref.pop()
            else:
                with pytest.raises(IndexError):
                    s.pop()
        assert len(s) == len(ref)


class TestTracedHeap:
    def test_min_order(self, g):
        h = TracedHeap(g, NULL_TRACER)
        for x in (5, 1, 4, 1, 3):
            h.push((x, x))
        assert [heap_pop(h)[0] for _ in range(5)] == [1, 1, 3, 4, 5]

    def test_pop_empty(self, g):
        with pytest.raises(IndexError):
            heap_pop(TracedHeap(g, NULL_TRACER))

    def test_charges_log_depth_touches(self, g):
        t = Tracer()
        h = TracedHeap(g, t)
        for i in range(64):
            h.push((i, i))
        ft = t.freeze()
        # 64 pushes cost O(sum log i) touches, far below O(n^2)
        assert ft.n_accesses < 64 * 10

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_always_sorted(self, xs):
        g = PropertyGraph()
        h = TracedHeap(g, NULL_TRACER)
        for i, x in enumerate(xs):
            h.push((x, i))
        out = [heap_pop(h)[0] for _ in range(len(xs))]
        assert out == sorted(xs)
