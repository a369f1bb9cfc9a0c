"""Unit and property tests for the cache simulators (repro.arch)."""

import sys
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.arch import (
    CacheConfig,
    level_miss_idx,
    lru_miss_idx,
)
from tests.oracles import Cache, reference_segment_lru, resident_lines


class TestCacheConfig:
    def test_n_sets(self):
        c = CacheConfig("t", size=4096, assoc=4, line=64)
        assert c.n_sets == 16

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig("t", size=1000, assoc=4, line=64)

    def test_non_pow2_sets(self):
        with pytest.raises(ValueError):
            CacheConfig("t", size=3 * 256, assoc=1, line=64)

    def test_positive(self):
        with pytest.raises(ValueError):
            CacheConfig("t", size=0, assoc=1)


def hits(c: Cache, *addrs: int, rw=None) -> list[bool]:
    """Hit (True) or miss of each address, replayed through ``c``."""
    miss = c.simulate(np.array(addrs, dtype=np.uint64), rw)
    return (~miss).tolist()


class TestCacheBehaviour:
    def cache(self, size=512, assoc=2, line=64):
        return Cache(CacheConfig("t", size=size, assoc=assoc, line=line))

    def test_first_touch_misses_then_hits(self):
        c = self.cache()
        # first touch, again, same line, next line
        assert hits(c, 0, 0, 63, 64) == [False, True, True, False]

    def test_lru_eviction(self):
        # one set: 2-way, lines mapping to set 0 are multiples of 4 lines
        c = self.cache(size=512, assoc=2)   # 4 sets
        set_stride = 4 * 64
        a, b, d = 0, set_stride, 2 * set_stride
        hits(c, a, b, d)            # d evicts a (LRU)
        assert hits(c, a, d) == [False, True]

    def test_lru_refresh_on_hit(self):
        c = self.cache(size=512, assoc=2)
        stride = 4 * 64
        hits(c, 0, stride, 0)       # refresh 0 -> MRU
        hits(c, 2 * stride)         # evicts stride
        assert hits(c, 0) == [True]
        assert hits(c, stride) == [False]

    def test_stats(self):
        c = self.cache()
        hits(c, 0, 0, 64, rw=np.array([0, 0, 1], dtype=np.uint8))
        st = c.stats
        assert st.accesses == 3
        assert st.misses == 2
        assert st.write_misses == 1
        assert st.hits == 1
        assert st.miss_rate == pytest.approx(2 / 3)
        assert st.mpki(1000) == pytest.approx(2.0)

    def test_simulate_matches_access(self):
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 1 << 13, 500).astype(np.uint64)
        c1 = self.cache()
        mask = c1.simulate(addrs)
        c2 = self.cache()
        single = np.array([not hits(c2, int(a))[0] for a in addrs])
        assert np.array_equal(mask, single)

    def test_reset(self):
        c = self.cache()
        hits(c, 0)
        c.reset()
        assert c.stats.accesses == 0
        assert hits(c, 0) == [False]

    def test_resident_lines_bounded(self):
        c = self.cache(size=512, assoc=2)
        rng = np.random.default_rng(0)
        c.simulate(rng.integers(0, 1 << 16, 1000).astype(np.uint64))
        assert resident_lines(c) <= 8   # 4 sets x 2 ways

    def test_sequential_stream_hits_within_line(self):
        c = self.cache(size=4096, assoc=4)
        miss = c.simulate(np.arange(0, 1024, 8, dtype=np.uint64))
        # one miss per 64B line
        assert miss.sum() == 1024 // 64


def _access_loop_misses(slot, key, assoc):
    """Miss positions of one ``Cache`` per distinct slot (each a single
    set of ``assoc`` ways) fed one address at a time, keys as line
    numbers."""
    sets: dict[int, Cache] = {}
    out = []
    for i, (s, k) in enumerate(zip(slot.tolist(), key.tolist())):
        c = sets.setdefault(
            s, Cache(CacheConfig("t", size=assoc * 64, assoc=assoc)))
        if not hits(c, k * 64)[0]:
            out.append(i)
    return out


_STREAMS = st.one_of(
    st.lists(st.integers(0, 40), max_size=300),        # incl. empty, len 1
    st.lists(st.integers(0, 1 << 16), max_size=300),
    st.builds(lambda k, n: [k] * n, st.integers(0, 99),
              st.integers(1, 50)))                     # all the same key


class TestLruMissIdx:
    """The one LRU walk against one ``Cache`` fed an address at a time, in
    the three shapes it serves."""

    @given(_STREAMS, st.sampled_from([(1, 1), (2, 2), (4, 2), (8, 4),
                                      (16, 1), (2, 8)]))
    @settings(max_examples=80, deadline=None)
    def test_set_indexed(self, raw, geom):
        """A set-associative level: slot = key mod n_sets; also equal to
        Cache.simulate of that geometry and to level_miss_idx."""
        n_sets, assoc = geom
        key = np.asarray(raw, dtype=np.uint64)
        slot = key & np.uint64(n_sets - 1)
        got = lru_miss_idx(slot, key, assoc)
        assert got.dtype == np.int64
        assert got.tolist() == _access_loop_misses(slot, key, assoc)
        cfg = CacheConfig("t", size=n_sets * assoc * 64, assoc=assoc)
        addrs = key * np.uint64(64)
        assert got.tolist() == \
            np.flatnonzero(Cache(cfg).simulate(addrs)).tolist()
        assert got.tolist() == level_miss_idx(cfg, addrs).tolist()

    @given(_STREAMS, st.integers(1, 5), st.integers(1, 9),
           st.sampled_from([(1, 2), (4, 1), (4, 4)]))
    @settings(max_examples=80, deadline=None)
    def test_owner_grouped_slots(self, raw, p, chunk, geom):
        """Per-core private levels: slot = owner * n_sets + set."""
        n_sets, assoc = geom
        key = np.asarray(raw, dtype=np.uint64)
        owner = ((np.arange(len(key)) // chunk) % p).astype(np.uint64)
        slot = owner * np.uint64(n_sets) + (key & np.uint64(n_sets - 1))
        assert lru_miss_idx(slot, key, assoc).tolist() == \
            _access_loop_misses(slot, key, assoc)

    @given(_STREAMS, st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_single_slot_capacity(self, raw, capacity):
        """One fully-associative pool: constant slot, assoc = capacity."""
        key = np.asarray(raw, dtype=np.int64)
        slot = np.zeros(len(key), dtype=np.int64)
        assert lru_miss_idx(slot, key, capacity).tolist() == \
            _access_loop_misses(slot, key, capacity)
        assert reference_segment_lru([key], capacity) == \
            [len(lru_miss_idx(slot, key, capacity))]

    @given(_STREAMS, st.sampled_from([65_535, 65_536, 40 * 2048 - 1]),
           st.sampled_from([(64, 2), (2048, 4)]))
    @settings(max_examples=60, deadline=None)
    def test_wide_slot_space(self, raw, top, geom):
        """Slots at and above the uint16 limit (the merge-sort path, e.g.
        40 owners x 2 048 sets) and streams straddling it."""
        n_sets, assoc = geom
        key = np.asarray(raw + [top], dtype=np.uint64)
        base = np.where(np.arange(len(key)) % 3 == 0, 0, top - n_sets + 1)
        slot = base.astype(np.uint64) + (key & np.uint64(n_sets - 1))
        slot[-1] = top
        assert int(slot.max()) == top
        assert lru_miss_idx(slot, key, assoc).tolist() == \
            _access_loop_misses(slot, key, assoc)

    @given(st.lists(st.integers(0, 30), max_size=200), st.integers(1, 4),
           st.sampled_from(["uint64", "int64"]))
    @settings(max_examples=60, deadline=None)
    def test_extreme_keys(self, raw, assoc, dtype):
        """uint64 keys >= 2**63 and negative int64 keys (and slots) are
        keys like any other (the oracle sees the same stream shifted
        into range)."""
        small = np.asarray(raw, dtype=np.int64)
        if dtype == "uint64":
            key = small.astype(np.uint64) + np.uint64((1 << 64) - 31)
            slot = (small & 3).astype(np.uint64)
        else:
            key, slot = small - 15, (small & 3) - 2
        assert lru_miss_idx(slot, key, assoc).tolist() == \
            _access_loop_misses(small & 3, small, assoc)

    @given(_STREAMS)
    @settings(max_examples=60, deadline=None)
    def test_assoc_extremes(self, raw):
        """assoc >= distinct keys never evicts (misses = first
        occurrences); assoc = 1 hits only on an immediate repeat."""
        key = np.asarray(raw, dtype=np.uint64)
        slot = np.zeros(len(key), dtype=np.uint64)
        first = np.unique(key, return_index=True)[1]
        assert lru_miss_idx(slot, key, len(first) + 1).tolist() == \
            sorted(first.tolist())
        repeat = np.append(False, key[1:] == key[:-1])[:len(key)]
        direct = lru_miss_idx(slot, key, 1).tolist()
        assert direct == np.flatnonzero(~repeat).tolist()
        assert direct == _access_loop_misses(slot, key, 1)

    def test_concurrent_walks_equal_serial(self):
        """The service's executor pool walks different streams at once:
        every call owns its ``ways``, so nothing is shared."""
        rng = np.random.default_rng(5)
        jobs = []
        for t in range(4):
            key = rng.integers(0, 400 + 100 * t, 30_000).astype(np.uint64)
            jobs.append((key & np.uint64(15), key, 2 + t))
        serial = [lru_miss_idx(*j).tolist() for j in jobs]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futs = [pool.submit(lru_miss_idx, *j) for j in jobs * 3]
                got = [f.result(timeout=60).tolist() for f in futs]
        finally:
            sys.setswitchinterval(old)
        assert got == serial * 3

    def test_rejects_bad_arguments(self):
        key = np.arange(6, dtype=np.uint64)
        with pytest.raises(ValueError, match="slot"):
            lru_miss_idx(key[:4], key, 2)
        with pytest.raises(ValueError, match="slot"):
            lru_miss_idx(key, key[:4], 2)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="assoc"):
                lru_miss_idx(key, key, bad)
        slot = key & np.uint64(1)
        assert lru_miss_idx(slot, key, np.int64(2)).tolist() == \
            lru_miss_idx(slot, key, 2).tolist()

    def test_walk_runs_in_c(self):
        """Python frames entered (``sys.setprofile`` call events) and
        lines executed (``sys.settrace``) during one walk depend on the
        sets touched, not on the number of accesses: a per-access
        callback, comprehension or ``for`` body fails here, by count and
        not by clock."""
        def events(n):
            key = np.random.default_rng(6).integers(0, 4096, n) \
                .astype(np.uint64)
            slot = key & np.uint64(63)
            seen = {"call": 0, "line": 0}

            def prof(frame, event, arg):
                if event == "call":
                    seen["call"] += 1

            def trace(frame, event, arg):
                if event == "line":
                    seen["line"] += 1
                return trace
            old_prof, old_trace = sys.getprofile(), sys.gettrace()
            sys.setprofile(prof)
            sys.settrace(trace)
            try:
                miss = lru_miss_idx(slot, key, 8)
            finally:
                sys.settrace(old_trace)
                sys.setprofile(old_prof)
            assert len(miss) > n // 2       # the walk did real work
            return seen
        small, large = events(20_000), events(80_000)
        assert small == large
        assert large["call"] <= 64 + 64     # sets + numpy's own wrappers
        assert large["line"] < 20_000 // 10  # far below one per access

    def test_level_chaining_and_owner(self):
        """level_miss_idx(at=) feeds a level the positions above it and
        returns positions of the full stream."""
        rng = np.random.default_rng(4)
        addrs = rng.integers(0, 1 << 14, 2000).astype(np.uint64)
        l1 = CacheConfig("L1", size=512, assoc=2)
        l2 = CacheConfig("L2", size=2048, assoc=4)
        i1 = level_miss_idx(l1, addrs)
        i2 = level_miss_idx(l2, addrs, i1)
        m2 = Cache(l2).simulate(addrs[i1])
        assert i2.tolist() == i1[m2].tolist()
        owner = (np.arange(len(addrs)) // 16) % 3
        got = level_miss_idx(l1, addrs, owner=owner)
        want = np.sort(np.concatenate([
            np.flatnonzero(owner == c)[Cache(l1).simulate(addrs[owner == c])]
            for c in range(3)]))
        assert got.tolist() == want.tolist()
