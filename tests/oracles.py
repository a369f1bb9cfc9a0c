"""Reference implementations the engine tests compare against.

Each is the short, sequential, obviously-correct form of something
``src/`` computes vectorized or composed: the stateful :class:`Cache` /
:class:`MemoryHierarchy` / :class:`TLB` and the predictor classes stay in
``src/`` (prefetchers and figure benches need them); the per-core and
per-segment loops only tests need live here.
"""

import dataclasses

import numpy as np

from repro.arch import TLB, MemoryHierarchy
from repro.arch.branch import PREDICTORS
from repro.arch.cache import Cache, CacheStats
from repro.arch.icache import ICache, ICacheStats
from repro.gpu.simt import SEGMENT, KernelStats
from repro.parallel.trace_sim import MulticoreCacheResult, _chunk_owners


def reference_hierarchy(machine, addrs, rw):
    """(HierarchyResult, TLBStats, tlb miss mask) of a cold multi-pass
    replay: one :class:`Cache` pass per level, plus the DTLB."""
    hier = MemoryHierarchy(machine).simulate(addrs, rw)
    tlb = TLB(machine.tlb)
    tlb_miss = tlb.simulate(addrs)
    return hier, tlb.stats(), tlb_miss


def reference_multicore(trace, machine, p, chunk=256):
    """Per-core private L1/L2 :class:`Cache` objects, then one shared L3
    over the merged L2-miss positions."""
    addrs = trace.addrs
    n = len(addrs)
    agg_l1 = CacheStats("L1D")
    agg_l2 = CacheStats("L2")
    l3 = Cache(machine.l3)
    if n == 0:
        return MulticoreCacheResult(p, agg_l1, agg_l2, l3.stats, [0] * p)
    owners = _chunk_owners(n, p, chunk)
    # per-core private simulation, collecting L2-miss positions
    miss_positions: list[np.ndarray] = []
    per_core_accesses: list[int] = []
    for core in range(p):
        idx = np.flatnonzero(owners == core)
        per_core_accesses.append(len(idx))
        if len(idx) == 0:
            continue
        sub = addrs[idx]
        l1 = Cache(machine.l1d)
        m1 = l1.simulate(sub)
        l2 = Cache(machine.l2)
        pos1 = idx[m1]
        m2 = l2.simulate(addrs[pos1]) if len(pos1) else np.zeros(0, bool)
        for agg, st in ((agg_l1, l1.stats), (agg_l2, l2.stats)):
            agg.accesses += st.accesses
            agg.misses += st.misses
            agg.read_misses += st.read_misses
            agg.write_misses += st.write_misses
        miss_positions.append(pos1[m2])
    # shared L3 sees the cores' miss streams in global program order
    # (the block-cyclic schedule interleaves them chunk by chunk)
    if miss_positions:
        merged = np.sort(np.concatenate(miss_positions))
        l3.simulate(addrs[merged])
    return MulticoreCacheResult(p, agg_l1, agg_l2, l3.stats,
                                per_core_accesses)


def reference_segment_lru(chunks, capacity):
    """Misses per chunk of one LRU pool of ``capacity`` segments fed the
    chunks' segment ids back to back (the device L2, probed inline)."""
    d: dict[int, None] = {}
    out = []
    for segs in chunks:
        miss = 0
        for s in np.asarray(segs).tolist():
            if s in d:
                del d[s]
                d[s] = None
            else:
                miss += 1
                d[s] = None
                if len(d) > capacity:
                    del d[next(iter(d))]
        out.append(miss)
    return out


def reference_kernel_stats(acc) -> KernelStats:
    """``acc.stats`` recomputed with :func:`reference_segment_lru` over the
    transaction chunks a :class:`KernelAccum` has banked."""
    st = dataclasses.replace(acc._stats, dram_transactions=0,
                             bytes_read=0, bytes_written=0)
    dram = reference_segment_lru([c[0] for c in acc._chunks],
                                 acc._l2_segments)
    for n, (_, is_write, rmw) in zip(dram, acc._chunks):
        st.dram_transactions += n
        if is_write:
            st.bytes_written += n * SEGMENT
            if rmw:
                st.bytes_read += n * SEGMENT
        else:
            st.bytes_read += n * SEGMENT
    return st


def reference_icache(config, trace, stack_depth=0):
    """The ICache's line-touch stream through a stateful :class:`Cache`."""
    cache = Cache(config)
    cache.simulate(ICache(config)._visit_addrs(trace, stack_depth))
    return ICacheStats(cache.stats.accesses, cache.stats.misses)


def reference_branches(kind, sites, taken, **kwargs):
    """The sequential predictor class, one branch at a time."""
    return PREDICTORS[kind](**kwargs).simulate(sites, taken)
