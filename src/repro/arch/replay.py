"""Trace replay: L1D -> L2 -> L3 and the DTLB as four LRU walks.

Replay is the hot path behind every figure, the resilience matrix and
the serving stack.  Each structure is one :func:`~repro.arch.cache.
lru_miss_idx` walk: the L1 and the DTLB see every access, the L2 sees the
L1's miss substream in program order, the L3 the L2's.  A cold level is
a pure function of its own geometry and the stream it is fed, so its
miss positions are memoized under the chain of geometries above and
including it; a machine sweep over one stored trace then walks only the
levels whose chain actually changed.

The stateful reference simulators (:class:`repro.arch.hierarchy.
MemoryHierarchy`, :class:`repro.arch.tlb.TLB`) run the same LRU state
machine over the same per-level substreams; ``tests/test_replay.py``
holds this module bitwise identical to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import CacheConfig, CacheStats, level_miss_idx
from .hierarchy import HierarchyResult
from .machine import MachineConfig
from .tlb import TLBStats


@dataclass
class ReplayResult:
    """Hierarchy + DTLB results of one replay."""

    hierarchy: HierarchyResult
    tlb: TLBStats
    tlb_miss: np.ndarray    # per-access bool, program order


def stage_key(*levels: CacheConfig) -> tuple:
    """Memo key of the last of ``levels``' miss positions when each level
    is fed the misses of the one before it and the first every access."""
    return ("lru",) + tuple((c.line, c.n_sets, c.assoc) for c in levels)


def replay(addrs: np.ndarray, rw: np.ndarray | None,
           machine: MachineConfig, *,
           id_cache: dict | None = None) -> ReplayResult:
    """Replay ``addrs`` through a cold hierarchy + DTLB.

    ``id_cache`` memoizes each stage's miss positions under
    :func:`stage_key`, so a multi-machine sweep over one trace walks the
    L1 and the DTLB once and the L2 once per distinct L2 geometry.
    """
    m = machine
    n = len(addrs)
    memo = {} if id_cache is None else id_cache
    writes = None if rw is None else np.asarray(rw)

    def misses(*levels: CacheConfig) -> np.ndarray:
        key = stage_key(*levels)
        idx = memo.get(key)
        if idx is None:
            above = misses(*levels[:-1]) if len(levels) > 1 else None
            idx = memo[key] = level_miss_idx(levels[-1], addrs, above)
        return idx

    i1 = misses(m.l1d)
    i2 = misses(m.l1d, m.l2)
    i3 = misses(m.l1d, m.l2, m.l3)
    it = misses(m.tlb.cache_config())   # probed by every access, read-only

    def mask_of(idx: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        out[idx] = True
        return out

    latency = np.zeros(n, dtype=np.int32)
    latency[i1] = m.l2.latency
    latency[i2] = m.l3.latency
    latency[i3] = m.mem_latency

    def stats_of(cfg: CacheConfig, accesses: int,
                 idx: np.ndarray) -> CacheStats:
        wmiss = 0 if writes is None else int(np.count_nonzero(writes[idx]))
        return CacheStats(cfg.name, accesses=accesses, misses=len(idx),
                          read_misses=len(idx) - wmiss, write_misses=wmiss)

    hier = HierarchyResult(
        l1=stats_of(m.l1d, n, i1),
        l2=stats_of(m.l2, len(i1), i2),
        l3=stats_of(m.l3, len(i2), i3),
        l1_miss=mask_of(i1), l2_miss=mask_of(i2), l3_miss=mask_of(i3),
        latency=latency)
    tlb = TLBStats(accesses=n, misses=len(it),
                   walk_latency=m.tlb.walk_latency)
    return ReplayResult(hierarchy=hier, tlb=tlb, tlb_miss=mask_of(it))
