"""Cross-validation of the replay engine (repro.arch.replay: composed
lru_miss_idx walks) against the multi-pass reference simulators
(tests/oracles.py) — including hypothesis-generated geometries and traces.
The engine must be bitwise identical to the reference."""

import sys

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.arch import replay
from repro.arch.cache import CacheConfig, line_ids
from repro.arch.machine import SCALED_XEON, TEST_MACHINE, MachineConfig
from repro.arch.replay import stage_key
from repro.core.memmodel import PAGE_SIZE
from tests.oracles import reference_hierarchy

# the module, not the function repro.arch re-exports under the same name
replay_mod = sys.modules["repro.arch.replay"]

# small geometries that keep hypothesis runs fast but still exercise
# conflict misses, eviction, and multi-set indexing
_GEOMETRIES = [
    # (l1 size, l1 assoc, l2 size, l2 assoc, l3 size, l3 assoc)
    (256, 1, 512, 2, 2048, 4),
    (512, 2, 1024, 4, 4096, 4),
    (512, 4, 2048, 8, 8192, 8),
    (1024, 4, 4096, 2, 8192, 16),
]


def _machine(geom_idx: int, tlb_entries: int = 8) -> MachineConfig:
    s1, a1, s2, a2, s3, a3 = _GEOMETRIES[geom_idx % len(_GEOMETRIES)]
    return MachineConfig(
        name=f"hyp-{geom_idx}",
        l1d=CacheConfig("L1D", size=s1, assoc=a1, line=64, latency=4),
        l2=CacheConfig("L2", size=s2, assoc=a2, line=64, latency=12),
        l3=CacheConfig("L3", size=s3, assoc=a3, line=64, latency=42),
        icache=CacheConfig("L1I", size=4096, assoc=4, line=64, latency=4),
        tlb=CacheConfig("DTLB", size=tlb_entries * PAGE_SIZE, assoc=4,
                        line=PAGE_SIZE, latency=36),
    )


def _assert_equal(machine, addrs, rw, id_cache=None):
    ref_hier, ref_misses, ref_tlb, ref_tlb_misses = reference_hierarchy(
        machine, addrs, rw)
    rep = replay(addrs, rw, machine, id_cache=id_cache)
    for ref, got in zip(ref_misses, rep.misses, strict=True):
        assert np.array_equal(ref, got)
    assert ref_hier == rep.hierarchy
    assert np.array_equal(ref_tlb_misses, rep.tlb_misses)
    assert ref_tlb == rep.tlb


class TestFusedVsReference:
    @given(geom=st.integers(0, 3),
           seed=st.integers(0, 2**31 - 1),
           n=st.integers(0, 600))
    @settings(max_examples=40, deadline=None)
    def test_random_traces_bitwise_identical(self, geom, seed, n):
        rng = np.random.default_rng(seed)
        machine = _machine(geom)
        addrs = rng.integers(0, 1 << 20, size=n, dtype=np.uint64)
        rw = rng.integers(0, 2, size=n, dtype=np.uint8)
        _assert_equal(machine, addrs, rw)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_rw_none_matches(self, seed):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 18, size=300, dtype=np.uint64)
        _assert_equal(_machine(seed % 4), addrs, None)

    def test_shipped_machines(self):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 1 << 22, size=20000, dtype=np.uint64)
        rw = rng.integers(0, 2, size=20000, dtype=np.uint8)
        for m in (TEST_MACHINE, SCALED_XEON):
            _assert_equal(m, addrs, rw)

    def test_empty_trace(self):
        rep = replay(np.empty(0, np.uint64), np.empty(0, np.uint8),
                     TEST_MACHINE)
        assert rep.hierarchy.l1.accesses == 0
        assert rep.tlb.accesses == 0
        assert all(len(idx) == 0 for idx in rep.misses)

    def test_id_cache_reused_across_machines(self):
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 20, size=2000, dtype=np.uint64)
        cache: dict = {}
        _assert_equal(TEST_MACHINE, addrs, None, id_cache=cache)
        m = TEST_MACHINE
        assert set(cache) == {stage_key(m.l1d), stage_key(m.l1d, m.l2),
                              stage_key(m.l1d, m.l2, m.l3),
                              stage_key(m.tlb)}
        _assert_equal(SCALED_XEON, addrs, None, id_cache=cache)
        # a second replay of a machine already in the memo walks nothing
        before = {k: v.copy() for k, v in cache.items()}
        _assert_equal(TEST_MACHINE, addrs, None, id_cache=cache)
        assert cache.keys() == before.keys()
        assert all(np.array_equal(cache[k], before[k]) for k in before)

    def test_l2_stage_memo_across_llc_variants(self, monkeypatch):
        """An 8-machine sweep sharing one memo (five machines perturb
        only the L3, two the L2): every stage is keyed by the geometry
        chain down to it, the L1 and the DTLB are walked once, the L2
        once per distinct L2 geometry, and every replay stays bitwise
        identical to a fresh reference."""
        import dataclasses
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 21, size=4000, dtype=np.uint64)
        rw = rng.integers(0, 2, size=4000, dtype=np.uint8)
        base = SCALED_XEON

        def variant(tag, l2=None, l3=None):
            return dataclasses.replace(
                base, name=f"{base.name}/{tag}",
                l2=dataclasses.replace(base.l2, **(l2 or {})),
                l3=dataclasses.replace(base.l3, **(l3 or {})))

        machines = [base] + [
            variant(f"llc/{div}", l3={"size": base.l3.size // div})
            for div in (2, 4, 8)] + [
            variant("double-llc", l3={"size": base.l3.size * 2}),
            variant("llc-low-assoc", l3={"assoc": 4}),
            variant("half-l2", l2={"size": base.l2.size // 2}),
            variant("low-assoc", l2={"assoc": 2}, l3={"assoc": 4})]

        walked = []
        real = replay_mod.level_miss_idx

        def counting(cfg, addrs, at=None, owner=None):
            walked.append(cfg)
            return real(cfg, addrs, at, owner)

        monkeypatch.setattr(replay_mod, "level_miss_idx", counting)
        cache: dict = {}
        for m in machines:
            _assert_equal(m, addrs, rw, id_cache=cache)
        expected = set()
        for m in machines:
            expected |= {stage_key(m.l1d), stage_key(m.l1d, m.l2),
                         stage_key(m.l1d, m.l2, m.l3),
                         stage_key(m.tlb)}
        assert set(cache) == expected
        l2_geoms = {(m.l2.size, m.l2.assoc) for m in machines}
        assert len(l2_geoms) == 3
        assert walked.count(base.l1d) == 1
        assert walked.count(base.tlb) == 1
        assert sum(c.name == "L2" for c in walked) == len(l2_geoms)
        assert len(walked) == len(expected)


class TestCpuModelFastPath:
    def test_fast_equals_slow_on_workload(self):
        from repro.arch.cpu import CPUModel
        from repro.datagen.registry import make
        from repro.harness.runner import run_cpu_workload
        from tests.oracles import reference_branches, reference_icache

        spec = make("ldbc", scale=0.03, seed=0)
        result, _ = run_cpu_workload("BFS", spec, machine=TEST_MACHINE)
        trace = result.trace
        fast = CPUModel(TEST_MACHINE).run(trace)
        hier, _, tlb, _ = reference_hierarchy(TEST_MACHINE, trace.addrs,
                                              trace.rw)
        assert fast.hierarchy == hier
        assert fast.dtlb == tlb
        assert fast.branch == reference_branches(
            TEST_MACHINE.predictor, trace.branch_sites, trace.branch_taken,
            table_bits=TEST_MACHINE.predictor_bits)
        assert fast.icache == reference_icache(TEST_MACHINE.icache, trace)


class TestCacheLinesFastPath:
    def test_line_ids_pow2_and_non_pow2(self):
        addrs = np.array([0, 63, 64, 4095, 4096, 12345], dtype=np.uint64)
        assert np.array_equal(line_ids(addrs, 64), addrs // 64)
        assert np.array_equal(line_ids(addrs, 4096), addrs // 4096)
        assert np.array_equal(line_ids(addrs, 96), addrs // 96)
