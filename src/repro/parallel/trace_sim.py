"""Trace-driven multicore cache simulation.

The analytical projection in :mod:`repro.parallel.multicore` answers "how
fast", but the paper's pinned-thread runs also change *cache behaviour*:
each core keeps private L1/L2 slices of the working set while all cores
contend for the shared L3 (Table 6's 20 MB LLC).  This module replays a
workload trace as ``p`` interleaved threads — each executing a contiguous
slice of the work — through private L1/L2 hierarchies and one shared L3,
quantifying:

* the private-cache benefit (each core's slice is smaller than the whole),
* shared-LLC contention (interleaved miss streams evict each other).

Every level is the one LRU walk of :mod:`repro.arch.cache`, private
levels with the owning core folded into the set id.  Used by the
multicore-contention ablation bench; the single-core case (``p=1``)
reduces exactly to :class:`~repro.arch.hierarchy.MemoryHierarchy`, and
any ``p`` to one ``Cache`` per core and level (both tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.cache import CacheStats, level_miss_idx
from ..arch.machine import MachineConfig
from ..core.trace import FrozenTrace


@dataclass
class MulticoreCacheResult:
    """Per-level aggregate behaviour of the p-core replay."""

    p: int
    l1: CacheStats            # summed over cores
    l2: CacheStats            # summed over cores
    l3: CacheStats            # the shared LLC
    per_core_accesses: list[int]

    def l3_miss_rate(self) -> float:
        return self.l3.miss_rate

    def mpki(self, n_instrs: int) -> dict[str, float]:
        return {"L1D": self.l1.mpki(n_instrs),
                "L2": self.l2.mpki(n_instrs),
                "L3": self.l3.mpki(n_instrs)}


def _chunk_owners(n: int, p: int, chunk: int) -> np.ndarray:
    """Owner core of each access: contiguous work chunks dealt round-robin
    (the block-cyclic schedule of a pinned OpenMP loop)."""
    return (np.arange(n) // chunk) % p


def simulate_multicore(trace: FrozenTrace, machine: MachineConfig,
                       p: int | None = None,
                       chunk: int = 256) -> MulticoreCacheResult:
    """Replay ``trace`` as ``p`` threads with private L1/L2 + shared L3.

    The access stream is split block-cyclically into per-core substreams
    (approximating a parallel loop's work distribution); private levels
    see only their core's stream, and the shared L3 sees the cores' miss
    streams interleaved chunk by chunk — the eviction interleaving that
    causes LLC contention.

    Each level is one :func:`~repro.arch.cache.level_miss_idx` walk.  A
    private level is the walk with the owning core folded into the set
    id: every core's sets see exactly the accesses that core owns, in
    program order.  L2 misses come out in ascending global position, which
    is the order the shared L3 sees them in.
    """
    if p is None:
        p = machine.n_cores
    if p <= 0:
        raise ValueError("p must be positive")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    m = machine
    addrs = trace.addrs
    owners = _chunk_owners(len(addrs), p, chunk)
    i1 = level_miss_idx(m.l1d, addrs, owner=owners)
    i2 = level_miss_idx(m.l2, addrs, i1, owner=owners)
    i3 = level_miss_idx(m.l3, addrs, i2)

    def stats(name: str, accesses: int, misses: int) -> CacheStats:
        # the multicore replay carries no rw stream: every miss is a read
        return CacheStats(name, accesses=accesses, misses=misses,
                          read_misses=misses)

    return MulticoreCacheResult(
        p, stats("L1D", len(addrs), len(i1)), stats("L2", len(i1), len(i2)),
        stats(m.l3.name, len(i2), len(i3)),
        np.bincount(owners, minlength=p).tolist())


def llc_contention(trace: FrozenTrace, machine: MachineConfig,
                   p: int | None = None) -> float:
    """Shared-LLC contention factor: p-core L3 misses / 1-core L3 misses.

    > 1 means the interleaved working sets evict each other (the
    multicore tax on Fig. 7's already-poor L3 behaviour).
    """
    solo = simulate_multicore(trace, machine, p=1)
    multi = simulate_multicore(trace, machine, p=p)
    if solo.l3.misses == 0:
        return 1.0
    return multi.l3.misses / solo.l3.misses
