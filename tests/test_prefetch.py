"""Tests for the prefetcher models."""

import numpy as np

from repro.arch.cache import CacheConfig
from benchmarks.ablations import (
    NextLinePrefetcher,
    PrefetchStats,
    StridePrefetcher,
    prefetch_comparison,
)
from repro.core import trace as T
from repro.core.trace import Tracer

CFG = CacheConfig("L2", size=2 * 1024, assoc=4, line=64)


def _sequential_trace(n=400, stride=64):
    t = Tracer()
    for i in range(n):
        t.i(4)
        t.r(i * stride)
    return t.freeze()


def _random_trace(n=400, seed=0):
    rng = np.random.default_rng(seed)
    t = Tracer()
    t.enter(T.R_NEIGHBORS)
    for _ in range(n):
        t.i(4)
        t.r(int(rng.integers(0, 1 << 22)) & ~7)
    t.leave()
    return t.freeze()


class TestNextLine:
    def test_perfect_on_sequential(self):
        st = NextLinePrefetcher(CFG).evaluate(_sequential_trace())
        assert st.accuracy > 0.95
        assert st.coverage > 0.9

    def test_useless_on_random(self):
        st = NextLinePrefetcher(CFG).evaluate(_random_trace())
        assert st.accuracy < 0.2

    def test_no_misses_no_prefetches(self):
        t = Tracer()
        for _ in range(100):
            t.i(1)
            t.r(0)
        st = NextLinePrefetcher(CFG).evaluate(t.freeze())
        assert st.issued <= 1
        assert st.demand_misses <= 1


class TestStride:
    def test_learns_constant_stride(self):
        st = StridePrefetcher(CFG).evaluate(_sequential_trace(stride=128))
        assert st.accuracy > 0.9
        assert st.coverage > 0.8

    def test_pointer_chasing_defeats_it(self):
        st = StridePrefetcher(CFG).evaluate(_random_trace())
        assert st.coverage < 0.1

    def test_per_region_independence(self):
        # two interleaved regions with different strides both learnable
        t = Tracer()
        rid = t.register_region("other")
        for i in range(200):
            t.i(2)
            t.r(i * 64)
            t.enter(rid)
            t.i(2)
            t.r(1 << 30 | (i * 256))
            t.leave()
        st = StridePrefetcher(CFG).evaluate(t.freeze())
        assert st.accuracy > 0.8


class TestComparison:
    def test_both_evaluated(self):
        res = prefetch_comparison(_sequential_trace(), CFG)
        assert set(res) == {"next-line", "stride"}
        assert all(isinstance(v, PrefetchStats) for v in res.values())

    def test_graph_traversal_gains_little(self):
        """The paper's point: irregular traversals leave prefetchers
        nearly nothing to cover."""
        from repro.datagen import ldbc
        from repro.workloads import (BFS, common_edge_schema,
                                     common_vertex_schema)
        spec = ldbc(300, avg_degree=8, seed=1)
        t = Tracer()
        g = spec.build(vertex_schema=common_vertex_schema(),
                       edge_schema=common_edge_schema())
        BFS().run(g, tracer=t, root=0)
        res = prefetch_comparison(t.freeze(), CFG)
        assert res["stride"].coverage < 0.4
        assert res["next-line"].coverage < 0.5
