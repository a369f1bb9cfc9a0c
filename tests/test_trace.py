"""Unit tests for the execution tracer (repro.core.trace)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.errors import TraceError
from repro.core import trace as T
from repro.core.trace import FrozenTrace, Tracer


class TestEventRecording:
    def test_reads_and_writes(self):
        t = Tracer()
        t.r(100)
        t.w(200)
        ft = t.freeze()
        assert list(ft.addrs) == [100, 200]
        assert list(ft.rw) == [0, 1]

    def test_instruction_index_at_access(self):
        t = Tracer()
        t.i(5)
        t.r(1)
        t.i(3)
        t.w(2)
        ft = t.freeze()
        assert list(ft.iat) == [5, 8]
        assert ft.n_instrs == 8

    def test_branches(self):
        t = Tracer()
        t.br(T.B_EDGE_LOOP, True)
        t.br(T.B_EDGE_LOOP, False)
        ft = t.freeze()
        assert ft.n_branches == 2
        assert list(ft.branch_taken) == [1, 0]

    def test_aliases(self):
        t = Tracer()
        t.read(1)
        t.write(2)
        t.instr(3)
        t.branch(1, True)
        ft = t.freeze()
        assert ft.n_accesses == 2
        assert ft.n_instrs == 3
        assert ft.n_branches == 1


class TestRegions:
    def test_enter_leave_tracks_region(self):
        t = Tracer()
        t.r(1)
        t.enter(T.R_FIND_VERTEX)
        t.r(2)
        t.leave()
        t.r(3)
        ft = t.freeze()
        assert list(ft.acc_region) == [T.R_IDLE, T.R_FIND_VERTEX, T.R_IDLE]

    def test_unbalanced_leave_raises(self):
        t = Tracer()
        with pytest.raises(TraceError):
            t.leave()

    def test_framework_instruction_split(self):
        t = Tracer()
        t.i(10)                      # user (R_IDLE)
        t.enter(T.R_ADD_EDGE)
        t.i(30)                      # framework
        t.leave()
        ft = t.freeze()
        assert ft.fw_instrs == 30
        assert ft.user_instrs == 10
        assert ft.framework_fraction() == pytest.approx(0.75)

    def test_framework_access_split(self):
        t = Tracer()
        t.r(1)
        t.enter(T.R_NEIGHBORS)
        t.r(2)
        t.r(3)
        t.leave()
        assert t.fw_accesses == 2

    def test_empty_trace_fraction_zero(self):
        assert Tracer().freeze().framework_fraction() == 0.0

    def test_region_sequence_records_visits(self):
        t = Tracer()
        t.enter(T.R_FIND_VERTEX)
        t.leave()
        t.enter(T.R_ADD_EDGE)
        t.leave()
        ft = t.freeze()
        seq = list(ft.region_seq)
        assert T.R_FIND_VERTEX in seq
        assert T.R_ADD_EDGE in seq
        assert seq[0] == T.R_IDLE

    def test_region_instr_attribution(self):
        t = Tracer()
        t.enter(T.R_PROP_GET)
        t.i(7)
        t.leave()
        ft = t.freeze()
        idx = list(ft.region_seq).index(T.R_PROP_GET)
        assert ft.region_instrs[idx] == 7


class TestRegistration:
    def test_register_region_ids_monotone(self):
        t = Tracer()
        r1 = t.register_region("k1")
        r2 = t.register_region("k2", code_bytes=512)
        assert r2 == r1 + 1
        assert r1 >= T.USER_REGION_BASE
        assert t.regions[r2].code_bytes == 512
        assert not t.regions[r1].framework

    def test_register_branch_site(self):
        t = Tracer()
        s1 = t.register_branch_site()
        s2 = t.register_branch_site()
        assert s2 == s1 + 1
        assert s1 >= T.USER_BRANCH_BASE

    def test_framework_regions_predefined(self):
        t = Tracer()
        assert t.regions[T.R_NEIGHBORS].framework
        assert not t.regions[T.R_IDLE].framework


class TestReset:
    def test_reset_clears_events(self):
        t = Tracer()
        t.i(5)
        t.r(1)
        t.br(1, True)
        t.enter(T.R_FIND_VERTEX)
        t.leave()
        t.reset()
        ft = t.freeze()
        assert ft.n_accesses == 0
        assert ft.n_instrs == 0
        assert ft.n_branches == 0
        assert list(ft.region_seq) == [T.R_IDLE]

    def test_reset_keeps_registrations(self):
        t = Tracer()
        rid = t.register_region("kern")
        t.reset()
        assert rid in t.regions


class TestFreezeIsolation:
    """Freeze must be idempotent and never alias live tracer buffers
    (regression for the array-backed tracer's chunk reuse)."""

    def _fill(self, t, base=0):
        for j in range(5):
            t.i(2)
            t.r(base + 64 * j)
        t.br(T.B_EDGE_LOOP, True)

    def test_mutating_after_freeze_leaves_frozen_unchanged(self):
        t = Tracer()
        self._fill(t)
        ft = t.freeze()
        addrs_before = ft.addrs.copy()
        iat_before = ft.iat.copy()
        taken_before = ft.branch_taken.copy()
        self._fill(t, base=10_000)      # keeps writing into live chunks
        t.br(T.B_EDGE_LOOP, False)
        assert np.array_equal(ft.addrs, addrs_before)
        assert np.array_equal(ft.iat, iat_before)
        assert np.array_equal(ft.branch_taken, taken_before)

    def test_freeze_twice_is_identical_and_independent(self):
        t = Tracer()
        self._fill(t)
        f1 = t.freeze()
        f2 = t.freeze()
        assert np.array_equal(f1.addrs, f2.addrs)
        assert f1.addrs is not f2.addrs
        f2.addrs[0] = 999
        assert f1.addrs[0] != 999

    def test_reset_after_freeze_leaves_frozen_unchanged(self):
        t = Tracer()
        self._fill(t)
        ft = t.freeze()
        n = ft.n_accesses
        t.reset()
        self._fill(t, base=50_000)
        assert ft.n_accesses == n
        assert ft.addrs[0] == 0
        assert not np.any(ft.addrs >= 50_000)

    def test_freeze_across_chunk_boundary(self):
        from repro.core.trace import _CHUNK
        t = Tracer()
        k = _CHUNK + 17
        for j in range(k):
            t.i(1)
            t.r(j * 8)
        ft = t.freeze()
        assert ft.n_accesses == k
        assert np.array_equal(ft.addrs,
                              np.arange(k, dtype=np.uint64) * 8)
        assert np.array_equal(ft.iat,
                              np.arange(1, k + 1, dtype=np.uint64))


class TestVectorizedBulk:
    def test_bulk_empty_is_noop(self):
        t = Tracer()
        t.bulk_emit([], [], [], [], n_instrs=0, fw_instrs=0, fw_accesses=0)
        t.bulk_branch_events([], [])
        ft = t.freeze()
        assert ft.n_accesses == 0
        assert ft.n_branches == 0
        assert ft.n_instrs == 0


def _one_event_block(t, addr):
    t.bulk_emit([addr], [1], [t.n], [t.region], n_instrs=0, fw_instrs=0,
                fw_accesses=0)


class TestSealInPlace:
    """A batch seals the scalar run before it where it lies: one chunk
    serves many runs (a fresh 1.4 MB chunk per seal made a 50 k-event
    trace request 2.6 GB)."""

    def test_alternating_scalar_and_bulk_accesses_share_chunks(self):
        tracemalloc.start()
        try:
            t = Tracer()
            for j in range(2000):
                t.r(8 * j)
                _one_event_block(t, 8 * j + 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        ref = Tracer()
        for j in range(2000):
            ref.r(8 * j)
            ref.w(8 * j + 4)
        fa, fb = t.freeze(), ref.freeze()
        for f in ("addrs", "rw", "iat", "acc_region"):
            assert np.array_equal(getattr(fa, f), getattr(fb, f)), f
        assert fa.n_accesses == 4000

    def test_alternating_scalar_and_bulk_branches_share_chunks(self):
        tracemalloc.start()
        try:
            t = Tracer()
            for j in range(2000):
                t.br(T.B_EDGE_LOOP, j % 3)
                t.bulk_branch_events([T.B_FIND_HIT], [j % 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        ref = Tracer()
        for j in range(2000):
            ref.br(T.B_EDGE_LOOP, j % 3)
            ref.br(T.B_FIND_HIT, j % 2)
        fa, fb = t.freeze(), ref.freeze()
        assert np.array_equal(fa.branch_sites, fb.branch_sites)
        assert np.array_equal(fa.branch_taken, fb.branch_taken)
        assert fa.n_branches == 4000

    def test_sealed_runs_survive_a_chunk_boundary(self):
        """Scalar appends on both sides of a batch, across the end of a
        chunk: the sealed prefix, the batch and the tail all freeze."""
        from repro.core.trace import _CHUNK
        t = Tracer()
        for j in range(_CHUNK - 3):
            t.r(j)
        _one_event_block(t, 7)
        for j in range(10):
            t.r(j)
        ft = t.freeze()
        assert ft.addrs.tolist() == (list(range(_CHUNK - 3)) + [7]
                                     + list(range(10)))


class TestBulkEmitRefusals:
    """``bulk_emit`` vouches for the one column nothing else checks."""

    def _tracer(self):
        t = Tracer()
        t.i(10)
        t.r(64)
        t.br(T.B_EDGE_LOOP, True)
        return t

    @pytest.mark.parametrize("iat, match", [
        ([12, 11, 13], "decreases"),            # runs backwards
        ([9, 11, 13], "leaves"),                # starts before the block
        ([11, 13, 16], "leaves"),               # ends after it
    ])
    def test_refused_block_leaves_the_tracer_untouched(self, iat, match):
        t = self._tracer()
        before = t.freeze()
        with pytest.raises(TraceError, match=match):
            t.bulk_emit([0, 8, 16], [0, 0, 1], iat, [T.R_IDLE] * 3,
                        n_instrs=5, fw_instrs=0, fw_accesses=0,
                        head_instrs=5)
        after = t.freeze()
        for f in ("addrs", "rw", "iat", "acc_region", "branch_sites",
                  "region_seq", "region_instrs"):
            assert np.array_equal(getattr(before, f), getattr(after, f)), f
        assert (after.n_instrs, after.n_accesses) == (10, 1)

    def test_block_spanning_its_instructions_is_accepted(self):
        t = self._tracer()
        t.bulk_emit([0, 8, 16], [0, 0, 1], [10, 12, 15], [T.R_IDLE] * 3,
                    n_instrs=5, fw_instrs=0, fw_accesses=0, head_instrs=5)
        ft = t.freeze()
        assert ft.iat.tolist() == [10, 10, 12, 15]
        assert ft.n_instrs == 15


def test_frozen_dtypes():
    t = Tracer()
    t.i(1)
    t.r(12345)
    ft = t.freeze()
    assert ft.addrs.dtype == np.uint64
    assert ft.rw.dtype == np.uint8
    assert ft.acc_region.dtype == np.uint32
    assert isinstance(ft, FrozenTrace)
