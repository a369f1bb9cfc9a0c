"""Tests for the trace-driven multicore cache simulation."""

import numpy as np
import pytest

from repro.arch import MemoryHierarchy
from repro.arch.machine import TEST_MACHINE
from repro.core.trace import Tracer
from repro.parallel.trace_sim import (
    MulticoreCacheResult,
    _chunk_owners,
    llc_contention,
    simulate_multicore,
)
from tests.oracles import reference_multicore


def _trace(n=3000, spread=1 << 20, seed=0):
    rng = np.random.default_rng(seed)
    t = Tracer()
    for _ in range(n):
        t.i(8)
        t.r(int(rng.integers(0, spread)) & ~7)
    return t.freeze()


class TestChunkOwners:
    def test_round_robin_chunks(self):
        owners = _chunk_owners(10, 2, 3)
        assert owners.tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1]

    def test_covers_all_cores(self):
        owners = _chunk_owners(1000, 7, 16)
        assert set(owners) == set(range(7))


class TestSimulateMulticore:
    def test_p1_matches_serial_hierarchy(self):
        ft = _trace()
        solo = simulate_multicore(ft, TEST_MACHINE, p=1)
        ref = MemoryHierarchy(TEST_MACHINE).simulate(ft.addrs, ft.rw)
        assert solo.l1.misses == ref.l1.misses
        assert solo.l2.misses == ref.l2.misses
        assert solo.l3.misses == ref.l3.misses

    def test_access_conservation(self):
        ft = _trace()
        res = simulate_multicore(ft, TEST_MACHINE, p=4)
        assert sum(res.per_core_accesses) == ft.n_accesses
        assert res.l1.accesses == ft.n_accesses

    def test_l2_sees_only_l1_misses(self):
        ft = _trace()
        res = simulate_multicore(ft, TEST_MACHINE, p=4)
        assert res.l2.accesses == res.l1.misses
        assert res.l3.accesses == res.l2.misses

    def test_private_l1_benefits_from_smaller_slices(self):
        # a hot working set slightly too big for one L1 fits when split
        lines = TEST_MACHINE.l1d.size // 64 * 2
        addrs = np.tile(np.arange(lines) * 64, 40).astype(np.uint64)
        t = Tracer()
        for a in addrs.tolist():
            t.i(2)
            t.r(a)
        ft = t.freeze()
        solo = simulate_multicore(ft, TEST_MACHINE, p=1, chunk=lines // 2)
        multi = simulate_multicore(ft, TEST_MACHINE, p=4,
                                   chunk=lines // 2)
        assert multi.l1.miss_rate <= solo.l1.miss_rate

    def test_validation(self):
        ft = _trace(100)
        with pytest.raises(ValueError):
            simulate_multicore(ft, TEST_MACHINE, p=0)
        with pytest.raises(ValueError):
            simulate_multicore(ft, TEST_MACHINE, chunk=0)

    def test_empty_trace(self):
        res = simulate_multicore(Tracer().freeze(), TEST_MACHINE, p=4)
        assert res.l1.accesses == 0
        assert isinstance(res, MulticoreCacheResult)

    def test_default_p_from_machine(self):
        res = simulate_multicore(_trace(200), TEST_MACHINE)
        assert res.p == TEST_MACHINE.n_cores


class TestLLCContention:
    def test_contention_at_least_one_for_streams(self):
        ft = _trace(4000, spread=1 << 22)
        assert llc_contention(ft, TEST_MACHINE, p=4) >= 0.9

    def test_no_misses_no_contention(self):
        t = Tracer()
        for _ in range(500):
            t.i(2)
            t.r(0)
        assert llc_contention(t.freeze(), TEST_MACHINE, p=4) \
            == pytest.approx(1.0, abs=2.0)

    def test_reuse_heavy_trace_contends(self):
        # p cores re-walking one L3-sized buffer interleave evictions
        lines = TEST_MACHINE.l3.size // 64
        addrs = np.tile(np.arange(lines) * 64, 6).astype(np.uint64)
        t = Tracer()
        for a in addrs.tolist():
            t.i(2)
            t.r(a)
        ft = t.freeze()
        c = llc_contention(ft, TEST_MACHINE, p=4)
        assert c >= 1.0


class TestFusedVsReference:
    """The owner-slotted walks of ``simulate_multicore`` against the
    per-core multi-pass reference (one ``Cache`` per core and level):
    aggregate L1/L2 and shared-L3 stats must be bitwise identical."""

    def _assert_match(self, ft, machine, p, chunk=256):
        fused = simulate_multicore(ft, machine, p=p, chunk=chunk)
        ref = reference_multicore(ft, machine, p, chunk)
        assert fused == ref, (p, chunk, fused, ref)

    def test_random_traces(self):
        for seed in range(4):
            ft = _trace(3000, spread=1 << 21, seed=seed)
            for p in (1, 2, 3, 4, 8):
                self._assert_match(ft, TEST_MACHINE, p)

    def test_chunk_sizes(self):
        ft = _trace(2500, spread=1 << 20, seed=5)
        for chunk in (1, 7, 64, 256, 5000):
            self._assert_match(ft, TEST_MACHINE, 4, chunk=chunk)

    def test_scaled_machine(self):
        from repro.arch.machine import SCALED_XEON
        ft = _trace(4000, spread=1 << 22, seed=9)
        for p in (1, 2, 4):
            self._assert_match(ft, SCALED_XEON, p)

    def test_workload_trace(self):
        from repro.datagen.registry import make
        from repro.harness.runner import run_cpu_workload
        spec = make("ldbc", scale=0.02, seed=0)
        result, _ = run_cpu_workload("BFS", spec, machine=TEST_MACHINE)
        for p in (1, 2, 4):
            self._assert_match(result.trace, TEST_MACHINE, p)

    def test_reuse_heavy_trace(self):
        lines = TEST_MACHINE.l3.size // 64
        addrs = np.tile(np.arange(lines) * 64, 4).astype(np.uint64)
        t = Tracer()
        for a in addrs.tolist():
            t.i(2)
            t.r(a)
        self._assert_match(t.freeze(), TEST_MACHINE, 4)
