"""Unit and property tests for the cache simulators (repro.arch)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.arch import (
    Cache,
    CacheConfig,
    level_miss_idx,
    lru_miss_idx,
)
from tests.oracles import reference_segment_lru


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


class TestCacheBehaviour:
    def cache(self, size=512, assoc=2, line=64):
        return Cache(CacheConfig("t", size=size, assoc=assoc, line=line))

    def test_first_touch_misses_then_hits(self):
        c = self.cache()
        assert not c.access(0)
        assert c.access(0)
        assert c.access(63)          # same line
        assert not c.access(64)      # next line

    def test_lru_eviction(self):
        # one set: 2-way, lines mapping to set 0 are multiples of 4 lines
        c = self.cache(size=512, assoc=2)   # 4 sets
        set_stride = 4 * 64
        a, b, d = 0, set_stride, 2 * set_stride
        c.access(a)
        c.access(b)
        c.access(d)                 # evicts a (LRU)
        assert not c.access(a)
        assert c.access(d)

    def test_lru_refresh_on_hit(self):
        c = self.cache(size=512, assoc=2)
        stride = 4 * 64
        c.access(0)
        c.access(stride)
        c.access(0)                 # refresh 0 -> MRU
        c.access(2 * stride)        # evicts stride
        assert c.access(0)
        assert not c.access(stride)

    def test_stats(self):
        c = self.cache()
        c.access(0)
        c.access(0)
        c.access(64, is_write=True)
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
        single = np.array([not c2.access(int(a)) for a in addrs])
        assert np.array_equal(mask, single)

    def test_reset(self):
        c = self.cache()
        c.access(0)
        c.reset()
        assert c.stats.accesses == 0
        assert not c.access(0)

    def test_resident_lines_bounded(self):
        c = self.cache(size=512, assoc=2)
        rng = np.random.default_rng(0)
        c.simulate(rng.integers(0, 1 << 16, 1000).astype(np.uint64))
        assert c.resident_lines() <= 8   # 4 sets x 2 ways

    def test_sequential_stream_hits_within_line(self):
        c = self.cache(size=4096, assoc=4)
        miss = c.simulate(np.arange(0, 1024, 8, dtype=np.uint64))
        # one miss per 64B line
        assert miss.sum() == 1024 // 64


def _access_loop_misses(slot, key, assoc):
    """Miss positions of one plain ``Cache.access`` loop per distinct slot
    (each a single set of ``assoc`` ways), keys as line numbers."""
    sets: dict[int, Cache] = {}
    out = []
    for i, (s, k) in enumerate(zip(slot.tolist(), key.tolist())):
        c = sets.setdefault(
            s, Cache(CacheConfig("t", size=assoc * 64, assoc=assoc)))
        if not c.access(k * 64):
            out.append(i)
    return out


_STREAMS = st.one_of(
    st.lists(st.integers(0, 40), max_size=300),        # incl. empty, len 1
    st.lists(st.integers(0, 1 << 16), max_size=300),
    st.builds(lambda k, n: [k] * n, st.integers(0, 99),
              st.integers(1, 50)))                     # all the same key


class TestLruMissIdx:
    """The one LRU walk against a plain ``Cache.access`` loop, in the
    three shapes it serves."""

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
