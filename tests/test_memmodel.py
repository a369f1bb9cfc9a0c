"""Unit tests for the simulated heap (repro.core.memmodel)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.memmodel import (
    AGED_HEAP,
    PACKED_HEAP,
    HeapModel,
    SimAllocator,
)


class TestHeapModel:
    def test_alignment_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HeapModel(align=24)

    def test_negative_scatter_rejected(self):
        with pytest.raises(ValueError):
            HeapModel(scatter=-1)

    def test_presets(self):
        assert PACKED_HEAP.scatter == 0
        assert AGED_HEAP.scatter > 0


class TestSimAllocator:
    def test_alignment(self):
        a = SimAllocator(HeapModel(align=16))
        for size in (1, 7, 15, 16, 100):
            assert a.alloc(size) % 16 == 0

    def test_packed_is_contiguous(self):
        a = SimAllocator(PACKED_HEAP)
        p = a.alloc(16)
        q = a.alloc(16)
        assert q == p + 16

    def test_scatter_inserts_gaps(self):
        a = SimAllocator(AGED_HEAP)
        addrs = [a.alloc(16) for _ in range(200)]
        gaps = [b - a_ - 16 for a_, b in zip(addrs, addrs[1:])]
        assert any(g > 0 for g in gaps)

    def test_scatter_is_deterministic(self):
        a1 = SimAllocator(HeapModel(scatter=64, seed=3))
        a2 = SimAllocator(HeapModel(scatter=64, seed=3))
        assert [a1.alloc(8) - a1.base for _ in range(50)] == \
               [a2.alloc(8) - a2.base for _ in range(50)]

    def test_zero_size_rejected(self):
        a = SimAllocator()
        with pytest.raises(ValueError):
            a.alloc(0)

    def test_arenas_are_disjoint(self):
        a = SimAllocator()
        b = SimAllocator()
        pa = a.alloc(1 << 20)
        pb = b.alloc(1 << 20)
        assert abs(pa - pb) >= (1 << 20)

    def test_footprint_and_counts(self):
        a = SimAllocator()
        a.alloc(100)
        a.alloc(28)
        assert a.footprint == 128
        assert a.n_allocs == 2

    def test_tag_accounting(self):
        a = SimAllocator()
        a.alloc(64, tag="vertex")
        a.alloc(32, tag="vertex")
        a.alloc(16, tag="edge")
        assert a.tag_bytes("vertex") == 96
        assert a.snapshot()[-1] == {"vertex": 96, "edge": 16}
        assert a.tag_bytes("missing") == 0

    def test_alloc_array(self):
        a = SimAllocator()
        base = a.alloc_array(10, 8)
        nxt = a.alloc(8)
        assert nxt >= base + 80


class TestAllocMany:
    """``alloc_many`` is a loop of ``alloc``: addresses and every piece of
    allocator state after it, the scatter RNG included."""

    @given(st.lists(st.integers(1, 5000), max_size=40),
           st.integers(0, 40), st.sampled_from([16, 64]),
           st.sampled_from([0, 1, 7, 96, 1000]), st.integers(0, 2 ** 32),
           st.sampled_from([None, "vertex"]))
    @settings(max_examples=200, deadline=None)
    def test_equals_a_loop_of_alloc(self, sizes, lead, align, scatter, seed,
                                    tag):
        model = HeapModel(align=align, scatter=scatter, seed=seed)
        loop, many = SimAllocator(model), SimAllocator(model)

        def state(a):   # the snapshot, its cursor relative to the arena
            cursor, *rest = a.snapshot()
            return cursor - a.base, *rest

        if lead:        # leave the cursor unaligned first
            loop.alloc(lead, tag="index")
            many.alloc(lead, tag="index")
        want = [loop.alloc(s, tag=tag) - loop.base for s in sizes]
        got = many.alloc_many(np.asarray(sizes, dtype=np.int64), tag=tag)
        assert got.dtype == np.int64
        assert (got - many.base).tolist() == want
        assert state(many) == state(loop)
        assert list(many.snapshot()[-1]) == list(loop.snapshot()[-1])
        # and the next scalar allocation lands where the loop's would
        assert many.alloc(24) - many.base == loop.alloc(24) - loop.base

    def test_rejects_a_non_positive_size_like_alloc(self):
        a = SimAllocator(AGED_HEAP)
        before = a.snapshot()
        with pytest.raises(ValueError, match="got 0"):
            a.alloc_many(np.array([16, 0, 16]))
        assert a.snapshot() == before

    @pytest.mark.parametrize("high", [2, 3, 2 * AGED_HEAP.scatter + 1,
                                      2001, (1 << 32) + 5])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_a_sized_draw_is_the_scalar_stream(self, high, seed):
        """The assumption ``alloc_many`` rests on: one sized ``integers``
        draw yields the values, and leaves the generator state, of that
        many scalar draws.  A numpy release that breaks it fails here."""
        scalar = np.random.default_rng(seed)
        sized = np.random.default_rng(seed)
        for k in (1, 2, 3, 64, 1000):
            want = [int(scalar.integers(0, high)) for _ in range(k)]
            assert sized.integers(0, high, size=k).tolist() == want
            assert sized.bit_generator.state == scalar.bit_generator.state
