"""Unit tests for the SIMT accounting engine (repro.gpu.simt)."""

import numpy as np
import pytest

from repro.gpu.simt import (
    SEGMENT,
    KernelAccum,
    KernelStats,
    slots_for_loop,
    warp_of,
)
from tests.oracles import reference_kernel_stats


class TestWarpOf:
    def test_grouping(self):
        assert warp_of(np.array([0, 31, 32, 63, 64])).tolist() == \
            [0, 0, 1, 1, 2]


class TestSlotsForLoop:
    def test_counts(self):
        trips = np.array([2, 0, 1])
        threads, steps, slots = slots_for_loop(trips)
        assert threads.tolist() == [0, 0, 2]
        assert steps.tolist() == [0, 1, 0]

    def test_same_warp_same_step_share_slot(self):
        trips = np.zeros(64, dtype=np.int64)
        trips[0] = 2
        trips[1] = 2
        trips[32] = 1
        threads, steps, slots = slots_for_loop(trips)
        by = {(t, s): sl for t, s, sl in zip(threads, steps, slots)}
        assert by[(0, 0)] == by[(1, 0)]       # same warp, same step
        assert by[(0, 0)] != by[(0, 1)]       # different step
        assert by[(0, 0)] != by[(32, 0)]      # different warp

    def test_empty(self):
        threads, steps, slots = slots_for_loop(np.zeros(5, dtype=np.int64))
        assert len(threads) == 0


class TestComputeAccounting:
    def test_uniform_full_warps_no_divergence(self):
        acc = KernelAccum()
        acc.uniform_op(np.ones(64, dtype=bool), 3.0)
        st = acc.stats
        assert st.warp_issues == 6.0          # 2 warps x 3 instrs
        assert st.lane_issues == 192.0
        assert st.bdr == pytest.approx(0.0)

    def test_sparse_active_high_divergence(self):
        active = np.zeros(64, dtype=bool)
        active[0] = True
        active[32] = True
        acc = KernelAccum()
        acc.uniform_op(active, 1.0)
        assert acc.stats.bdr == pytest.approx(31 / 32)

    def test_loop_charges_warp_max(self):
        trips = np.zeros(32, dtype=np.int64)
        trips[0] = 10
        trips[1] = 2
        acc = KernelAccum()
        acc.loop(trips, 1.0)
        st = acc.stats
        assert st.warp_issues == 10.0
        assert st.lane_issues == 12.0
        assert st.bdr == pytest.approx(1 - 12 / 320)

    def test_balanced_loop_low_divergence(self):
        acc = KernelAccum()
        acc.loop(np.full(32, 5, dtype=np.int64), 1.0)
        assert acc.stats.bdr == pytest.approx(0.0)

    def test_inactive_warps_free(self):
        active = np.zeros(96, dtype=bool)
        active[:32] = True
        acc = KernelAccum()
        acc.uniform_op(active, 1.0)
        assert acc.stats.warp_issues == 1.0


class TestMemoryAccounting:
    def test_fully_coalesced_no_replay(self):
        acc = KernelAccum()
        # 32 lanes, 4-byte elements, one 128 B segment
        slots = np.zeros(32, dtype=np.int64)
        addrs = np.arange(32) * 4
        acc.mem_op(slots, addrs)
        st = acc.stats
        assert st.mem_base_issues == 1
        assert st.mem_replays == 0
        assert st.mdr == 0.0

    def test_fully_scattered_replays(self):
        acc = KernelAccum()
        slots = np.zeros(32, dtype=np.int64)
        addrs = np.arange(32) * SEGMENT * 7
        acc.mem_op(slots, addrs)
        st = acc.stats
        assert st.mem_replays == 31
        assert st.mdr == pytest.approx(31 / 32)

    def test_two_segments_one_replay(self):
        acc = KernelAccum()
        slots = np.zeros(32, dtype=np.int64)
        addrs = np.arange(32) * 8    # 8-byte stride spans 2 segments
        acc.mem_op(slots, addrs)
        assert acc.stats.mem_replays == 1

    def test_distinct_calls_do_not_merge_slots(self):
        acc = KernelAccum()
        acc.mem_op(np.zeros(2, dtype=np.int64), np.array([0, 4]))
        acc.mem_op(np.zeros(2, dtype=np.int64), np.array([0, 4]))
        assert acc.stats.mem_base_issues == 2

    def test_l2_absorbs_rereads(self):
        acc = KernelAccum(l2_bytes=64 * SEGMENT)
        addrs = np.arange(32) * 4
        acc.mem_op(np.zeros(32, dtype=np.int64), addrs)
        first = acc.stats.bytes_read
        acc.mem_op(np.zeros(32, dtype=np.int64), addrs)
        assert acc.stats.bytes_read == first     # second read hits L2

    def test_l2_capacity_eviction(self):
        acc = KernelAccum(l2_bytes=2 * SEGMENT)
        stream = (np.arange(8) * SEGMENT).astype(np.int64)
        for a in stream:
            acc.mem_op(np.zeros(1, dtype=np.int64), np.array([a]))
        before = acc.stats.dram_transactions
        acc.mem_op(np.zeros(1, dtype=np.int64), np.array([0]))
        assert acc.stats.dram_transactions == before + 1   # evicted

    def test_write_bytes_separated(self):
        acc = KernelAccum()
        acc.mem_op(np.zeros(1, dtype=np.int64), np.array([0]),
                   is_write=True)
        assert acc.stats.bytes_written == SEGMENT
        assert acc.stats.bytes_read == 0

    def test_mismatched_shapes(self):
        acc = KernelAccum()
        with pytest.raises(ValueError):
            acc.mem_op(np.zeros(2, dtype=np.int64), np.array([1]))


class TestAtomics:
    def test_intra_warp_conflicts(self):
        acc = KernelAccum()
        slots = np.zeros(4, dtype=np.int64)
        acc.atomic_op(slots, np.array([128, 128, 128, 256]))
        assert acc.stats.atomic_ops == 4
        assert acc.stats.atomic_conflicts == 2   # three lanes on addr 128

    def test_cross_slot_no_conflict(self):
        acc = KernelAccum()
        acc.atomic_op(np.array([0, 1]), np.array([128, 128]))
        assert acc.stats.atomic_conflicts == 0

    def test_atomic_rmw_reads_on_miss(self):
        acc = KernelAccum(l2_bytes=SEGMENT)
        acc.atomic_op(np.zeros(1, dtype=np.int64),
                      np.array([10 * SEGMENT]))
        assert acc.stats.bytes_written == SEGMENT
        assert acc.stats.bytes_read == SEGMENT


class TestStatsAggregation:
    def test_merge(self):
        a = KernelStats(warp_issues=1, lane_issues=32, launches=1)
        b = KernelStats(warp_issues=2, lane_issues=32, mem_replays=3,
                        mem_base_issues=1)
        a.merge(b)
        assert a.warp_issues == 3
        assert a.mem_issued == 4
        assert a.launches == 1

    def test_empty_rates(self):
        st = KernelStats()
        assert st.bdr == 0.0
        assert st.mdr == 0.0

    def test_launch_counter(self):
        acc = KernelAccum()
        acc.launch()
        acc.launch()
        assert acc.stats.launches == 2


class TestFusedVsReference:
    """``KernelAccum.stats`` (one lru_miss_idx walk over the banked
    chunks) against the inline per-segment reference LRU: identical
    KernelStats — including DRAM/byte attribution per mem_op flags."""

    @staticmethod
    def _drive(acc, seed):
        rng = np.random.default_rng(seed)
        acc.launch()
        for _ in range(6):
            n = int(rng.integers(1, 200))
            threads = np.sort(rng.integers(0, 1 << 12, n))
            slots = warp_of(threads)
            addrs = rng.integers(0, 1 << 22, n).astype(np.int64) & ~3
            kind = int(rng.integers(0, 4))
            if kind == 0:
                acc.mem_op(slots, addrs)
            elif kind == 1:
                acc.mem_op(slots, addrs, is_write=True)
            elif kind == 2:
                acc.atomic_op(slots, addrs)
            else:
                acc.uniform_op(rng.integers(0, 2, 64).astype(bool),
                               float(rng.integers(1, 5)))

    def test_random_streams_identical(self):
        for seed in range(8):
            for l2_bytes in (SEGMENT, 4 * 1024, 32 * 1024):
                acc = KernelAccum(l2_bytes=l2_bytes)
                self._drive(acc, seed)
                assert acc.stats == reference_kernel_stats(acc), seed
            assert acc.stats.dram_transactions > 0

    def test_interleaved_stats_reads(self):
        """Reading .stats mid-kernel is a pure function of the chunks
        banked so far: every read equals the reference at that point,
        repeats itself, and leaves the final result unchanged."""
        rng = np.random.default_rng(3)
        acc, untouched = KernelAccum(), KernelAccum()
        for step in range(12):
            n = int(rng.integers(1, 80))
            threads = np.sort(rng.integers(0, 1 << 10, n))
            addrs = rng.integers(0, 1 << 18, n).astype(np.int64) & ~3
            for a in (acc, untouched):
                a.mem_op(warp_of(threads), addrs,
                         is_write=bool(step % 3 == 0))
            if step % 4 == 1:
                mid = acc.stats
                assert mid == reference_kernel_stats(acc)
                assert mid == acc.stats
        assert acc.stats == untouched.stats == reference_kernel_stats(acc)

    def test_all_gpu_kernels_identical(self):
        from repro.datagen.registry import make
        from repro.gpu.device import K40
        from repro.gpu.runner import GPU_KERNELS, UNDIRECTED_KERNELS, \
            csr_to_coo
        spec = make("ldbc", scale=0.02, seed=0)
        assert len(GPU_KERNELS) == 8
        for name, cls in sorted(GPU_KERNELS.items()):
            csr = spec.csr()
            if name in UNDIRECTED_KERNELS:
                csr = csr.undirected()
            coo = csr_to_coo(csr)
            acc = KernelAccum(l2_bytes=K40.l2_bytes)
            cls().kernel(csr, coo, acc)
            assert acc.stats == reference_kernel_stats(acc), name
            assert cls().run(csr, coo, l2_bytes=K40.l2_bytes)[1] == \
                acc.stats, name
