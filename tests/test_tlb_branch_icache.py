"""Unit tests for TLB, branch predictors, and the ICache model."""

import dataclasses
import sys

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from repro.arch import (
    TEST_MACHINE,
    TLB,
    AlwaysTakenPredictor,
    BimodalPredictor,
    CPUModel,
    GSharePredictor,
    ICache,
    TLBConfig,
    code_footprint,
    deep_stack_regions,
    simulate_branches,
)
from repro.arch.branch import PREDICTORS
from repro.arch.cache import CacheConfig
from repro.arch.icache import expand_visits, layout_code
from repro.core import trace as T
from repro.core.memmodel import PAGE_SIZE
from repro.core.trace import Tracer
from tests.oracles import reference_branches, reference_icache


class TestTLB:
    def test_page_granularity(self):
        tlb = TLB(TLBConfig(entries=8, assoc=8))
        miss = tlb.simulate(np.array([0, 100, PAGE_SIZE - 1, PAGE_SIZE],
                                     dtype=np.uint64))
        assert miss.tolist() == [True, False, False, True]

    def test_capacity_eviction(self):
        tlb = TLB(TLBConfig(entries=4, assoc=4))
        pages = np.arange(8, dtype=np.uint64) * PAGE_SIZE
        tlb.simulate(pages)
        miss2 = tlb.simulate(pages[:1])
        assert miss2[0]     # page 0 evicted by pages 4..7

    def test_stats_and_penalty(self):
        tlb = TLB(TLBConfig(entries=4, assoc=4, walk_latency=30))
        tlb.simulate(np.array([0, 0, PAGE_SIZE], dtype=np.uint64))
        st = tlb.stats()
        assert st.accesses == 3
        assert st.misses == 2
        assert st.walk_cycles == 60
        assert st.penalty_fraction(600) == pytest.approx(0.1)
        assert st.mpki(2000) == pytest.approx(1.0)

    def test_reset(self):
        tlb = TLB(TLBConfig(entries=4, assoc=4))
        tlb.simulate(np.array([0], dtype=np.uint64))
        tlb.reset()
        assert tlb.stats().accesses == 0


class TestBranchPredictors:
    def test_bimodal_learns_bias(self):
        sites = np.full(1000, 7, dtype=np.uint32)
        taken = np.ones(1000, dtype=np.uint8)
        st = BimodalPredictor().simulate(sites, taken)
        assert st.miss_rate < 0.01

    def test_bimodal_random_is_bad(self):
        rng = np.random.default_rng(0)
        sites = np.full(2000, 7, dtype=np.uint32)
        taken = rng.integers(0, 2, 2000).astype(np.uint8)
        st = BimodalPredictor().simulate(sites, taken)
        assert st.miss_rate > 0.3

    def test_gshare_learns_alternation(self):
        sites = np.full(2000, 3, dtype=np.uint32)
        taken = np.tile([1, 0], 1000).astype(np.uint8)
        st = GSharePredictor().simulate(sites, taken)
        # history predictor nails a strict alternation; bimodal cannot
        st_b = BimodalPredictor().simulate(sites, taken)
        assert st.miss_rate < 0.05
        assert st_b.miss_rate > 0.3

    def test_gshare_loop_pattern(self):
        # loop of 4 iterations: T T T N repeated
        sites = np.full(4000, 5, dtype=np.uint32)
        taken = np.tile([1, 1, 1, 0], 1000).astype(np.uint8)
        st = GSharePredictor().simulate(sites, taken)
        assert st.miss_rate < 0.05

    def test_always_taken(self):
        sites = np.zeros(10, dtype=np.uint32)
        taken = np.array([1] * 7 + [0] * 3, dtype=np.uint8)
        st = AlwaysTakenPredictor().simulate(sites, taken)
        assert st.mispredicts == 3

    def test_dispatcher(self):
        st = simulate_branches(np.zeros(4, dtype=np.uint32),
                               np.ones(4, dtype=np.uint8), kind="bimodal")
        assert st.branches == 4
        with pytest.raises(ValueError):
            simulate_branches([], [], kind="oracle")

    def test_empty_stream(self):
        st = simulate_branches(np.array([], dtype=np.uint32),
                               np.array([], dtype=np.uint8))
        assert st.branches == 0
        assert st.miss_rate == 0.0

    def test_every_predictor_reachable_from_a_machine_config(self):
        t = Tracer()
        for taken in [1] * 7 + [0] * 3:
            t.br(5, taken)
        ft = t.freeze()
        got = {kind: CPUModel(dataclasses.replace(TEST_MACHINE,
                                                  predictor=kind)).run(ft).branch
               for kind in PREDICTORS}
        assert all(br.branches == 10 for br in got.values()), got
        assert got["always_taken"].mispredicts == 3     # the not-taken count

    def test_length_mismatch_is_one_value_error(self):
        for kind in PREDICTORS:
            with pytest.raises(ValueError, match="5 .* 3"):
                simulate_branches(np.zeros(5, np.uint32),
                                  np.ones(3, np.uint8), kind=kind)

    def test_nonzero_outcome_is_taken(self):
        """0/2 (or 0/256) spell not-taken/taken for the engine exactly as
        for the sequential classes, and the bulk recorders store 0/1."""
        rng = np.random.default_rng(3)
        sites = rng.integers(0, 8, 2000).astype(np.uint32)
        taken = rng.integers(0, 2, 2000)
        for kind in PREDICTORS:
            want = reference_branches(kind, sites, taken)
            for spelling in (2, 256):
                assert simulate_branches(sites, taken * spelling,
                                         kind=kind) == want, (kind, spelling)
        t = Tracer()
        t.bulk_branch_events(sites, taken * 256)
        t.bulk_branch_events(sites, taken * 2)
        stored = t.freeze().branch_taken
        assert stored.tolist() == taken.tolist() * 2


class TestBranchFastPath:
    """The vectorized clamp-tuple scan behind ``simulate_branches``
    against the sequential predictor classes: exact, not approximate."""

    def _assert_match(self, sites, taken, kind, **kwargs):
        fast = simulate_branches(sites, taken, kind=kind, **kwargs)
        loop = reference_branches(kind, sites, taken, **kwargs)
        assert fast == loop, (kind, kwargs, fast, loop)

    def test_random_streams(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 4000))
            n_sites = int(rng.integers(1, 40))
            sites = rng.integers(0, n_sites, n).astype(np.uint32)
            taken = rng.integers(0, 2, n).astype(np.uint8)
            for kind in ("bimodal", "gshare"):
                self._assert_match(sites, taken, kind)

    def test_biased_and_periodic_patterns(self):
        n = 3000
        sites = np.zeros(n, dtype=np.uint32)
        for taken in (
                np.ones(n, dtype=np.uint8),                  # saturates up
                np.zeros(n, dtype=np.uint8),                 # saturates down
                (np.arange(n) % 2).astype(np.uint8),         # alternation
                (np.arange(n) % 7 != 0).astype(np.uint8)):   # loop exits
            for kind in ("bimodal", "gshare"):
                self._assert_match(sites, taken, kind)

    def test_table_sizes(self):
        rng = np.random.default_rng(10)
        sites = rng.integers(0, 1 << 14, 2000).astype(np.uint32)
        taken = rng.integers(0, 2, 2000).astype(np.uint8)
        for bits in (2, 6, 12):
            self._assert_match(sites, taken, "gshare", table_bits=bits)
            self._assert_match(sites, taken, "bimodal", table_bits=bits)

    def test_single_event(self):
        self._assert_match(np.array([5], np.uint32),
                           np.array([1], np.uint8), "gshare")

    @given(hst.integers(1, 8), hst.sampled_from([1, 2, 3, 4, 12]),
           hst.sampled_from(["uniform", "mostly_taken", "rarely_taken",
                            "alternation", "runs"]),
           hst.integers(1, 400), hst.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_outcome_laws_match_oracle(self, n_sites, bits, law, n, seed):
        """Where the scan now differs from a scan to the longest segment:
        rows retire early under biased and run-length outcome laws, late
        under alternation, and few table bits alias sites together."""
        rng = np.random.default_rng(seed)
        sites = (rng.integers(0, n_sites, n) * 2654435761).astype(np.uint32)
        if law == "alternation":
            taken = np.arange(n) % 2
        elif law == "runs":
            taken = np.repeat(np.arange(n) % 2, rng.integers(1, 6, n))[:n]
        else:
            p = {"uniform": 0.5, "mostly_taken": 0.9, "rarely_taken": 0.1}
            taken = rng.random(n) < p[law]
        taken = taken.astype(np.uint8)
        for kind in ("bimodal", "gshare"):
            self._assert_match(sites, taken, kind, table_bits=bits)

    def test_sparse_phase(self):
        """One hot index of 40 000 ``T T N`` events decides within three
        whole-array steps; the 2 000 random events on 30 other indices
        are then under 5 % of the rows and finish compacted."""
        rng = np.random.default_rng(11)
        sites = np.concatenate([np.zeros(40_000, np.uint32),
                                rng.integers(1, 31, 2000).astype(np.uint32)])
        taken = np.concatenate([np.tile([1, 1, 0], 13_334)[:40_000],
                                rng.integers(0, 2, 2000)]).astype(np.uint8)
        mix = rng.permutation(len(sites))
        self._assert_match(sites[mix], taken[mix], "bimodal")
        self._assert_match(sites, taken, "bimodal")
        self._assert_match(sites[mix], taken[mix], "gshare")

    def test_wide_index_and_history_types(self):
        """More than 16 index or history bits leave the ``uint16`` the
        shipped geometries use; the index type holds both widths (a site
        cast to the history's narrower type would lose its top bits)."""
        rng = np.random.default_rng(12)
        sites = rng.integers(0, 1 << 20, 3000).astype(np.uint32)
        taken = rng.integers(0, 2, 3000).astype(np.uint8)
        self._assert_match(sites, taken, "bimodal", table_bits=18)
        for geometry in ({"table_bits": 18},
                         {"table_bits": 18, "history_bits": 20},
                         {"table_bits": 4, "history_bits": 40},
                         {"table_bits": 6, "history_bits": 3}):
            self._assert_match(sites, taken, "gshare", **geometry)

    def test_scan_passes_do_not_grow_with_segment_length(self):
        """Lines executed in ``arch/branch.py`` (``sys.settrace``) while
        one site's stream runs under ``bimodal``: a counter forgets its
        past after three equal outcomes, so a periodic stream costs the
        same passes at any length — by count, not by clock.  Strict
        alternation never yields a constant map: its passes grow with
        log2(n), and the answer is still the oracle's."""
        def lines(taken):
            seen = [0]

            def trace(frame, event, arg):
                if not frame.f_code.co_filename.endswith("branch.py"):
                    return None
                seen[0] += event == "line"
                return trace
            sites = np.zeros(len(taken), np.uint32)
            old = sys.gettrace()
            sys.settrace(trace)
            try:
                got = simulate_branches(sites, taken, kind="bimodal")
            finally:
                sys.settrace(old)
            return seen[0], got

        sizes = (1 << 12, 1 << 16, 1 << 18)
        for period in ([1], [1, 1, 0], [1, 1, 1, 0]):
            counts = []
            for n in sizes:
                taken = np.resize(np.array(period, np.uint8), n)
                count, got = lines(taken)
                counts.append(count)
                # closed form: the start-up transient is over in the
                # first period, then one miss per not-taken
                assert got.mispredicts == n - int(taken.sum()), (period, n)
            assert len(set(counts)) == 1, (period, counts)
            assert counts[0] < 120, (period, counts)
        counts = []
        for n in sizes:
            taken = (np.arange(n) % 2).astype(np.uint8)
            count, got = lines(taken)
            counts.append(count)
            assert got.mispredicts == n         # 2 -> 1 -> 2 -> ... all wrong
        assert counts[0] < counts[1] < counts[2], counts
        n = sizes[0]
        self._assert_match(np.zeros(n, np.uint32),
                           (np.arange(n) % 2).astype(np.uint8), "bimodal")


def _toy_trace(n_calls=200):
    t = Tracer()
    for _ in range(n_calls):
        t.enter(T.R_FIND_VERTEX)
        t.i(10)
        t.leave()
        t.enter(T.R_NEIGHBORS)
        t.i(10)
        t.leave()
    return t.freeze()


class TestICache:
    def cfg(self, size=8 * 1024):
        return CacheConfig("L1I", size=size, assoc=4, line=64)

    def test_flat_stack_low_misses(self):
        ft = _toy_trace()
        st = ICache(self.cfg()).simulate(ft)
        # all regions fit: only compulsory misses
        assert st.misses <= code_footprint(ft.regions) // 64 + 2
        assert st.mpki(ft.n_instrs) < 5

    def test_deep_stack_increases_misses(self):
        ft = _toy_trace()
        flat = ICache(self.cfg(size=1024)).simulate(ft)
        deep = ICache(self.cfg(size=1024)).simulate(ft, stack_depth=6)
        assert deep.misses > flat.misses

    def test_matches_reference_cache(self):
        ft = _toy_trace()
        for size in (512, 1024, 8 * 1024):
            for depth in (0, 3, 6):
                assert ICache(self.cfg(size)).simulate(ft, depth) == \
                    reference_icache(self.cfg(size), ft, depth), (size, depth)

    def test_cold_per_call(self):
        ft = _toy_trace()
        ic = ICache(self.cfg(size=1024))
        assert ic.simulate(ft) == ic.simulate(ft)

    def test_layout_disjoint(self):
        ft = _toy_trace(2)
        layout = layout_code(ft.regions)
        spans = sorted((base, base + n * 64) for base, n in layout.values())
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_deep_stack_regions(self):
        ft = _toy_trace(1)
        deep = deep_stack_regions(ft.regions, depth=3)
        assert len(deep) == len(ft.regions) * 4
        assert code_footprint(deep) > code_footprint(ft.regions)

    def test_expand_visits_depth_zero_identity(self):
        ft = _toy_trace(1)
        seq, regions = expand_visits(ft.region_seq, ft.regions, 0)
        assert seq is ft.region_seq
        assert regions is ft.regions

    def test_expand_visits_interleaves_wrappers(self):
        ft = _toy_trace(1)
        seq, regions = expand_visits(ft.region_seq, ft.regions, 2)
        assert len(seq) == 3 * len(ft.region_seq)

    def test_empty_trace(self):
        # only the top-level region's compulsory line touches
        st = ICache(self.cfg()).simulate(Tracer().freeze())
        assert st.misses <= 4
