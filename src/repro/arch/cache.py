"""Set-associative LRU cache simulation.

The workhorse of the CPU characterization: a byte-address trace goes
through a cache level and comes out as the per-access miss stream, from
which the harness derives MPKI (Fig. 7) and hit rates (Fig. 9).  ``src/``
has one LRU, :func:`lru_miss_idx`: numpy around CPython's own C LRU
(``functools.lru_cache``), no Python bytecode per access.  The CPU levels
and DTLB in :mod:`repro.arch.replay`, the ICache, the multicore levels in
:mod:`repro.parallel.trace_sim` and the GPU L2 in :mod:`repro.gpu.simt`
compose it (:func:`level_miss_idx` for addresses).  ``tests/test_cache.py``
gates it against the stateful, obviously-correct reference ``Cache`` of
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, count

import numpy as np


def line_ids(addrs: np.ndarray, line: int) -> np.ndarray:
    """Byte addresses -> line (or page) ids, as a uint64 array."""
    addrs = np.asarray(addrs, dtype=np.uint64)
    if line & (line - 1) == 0:
        return addrs >> np.uint64(line.bit_length() - 1)
    return addrs // np.uint64(line)


def lru_miss_idx(slot: np.ndarray, key: np.ndarray, assoc: int) -> np.ndarray:
    """Ascending positions that miss in a cold LRU where access ``i``
    probes set ``slot[i]`` for ``key[i]``; each set holds ``assoc`` keys.

    ``slot`` is whatever partitions the structure: the set index of a
    set-associative cache, ``owner * n_sets + set`` for per-core private
    caches, a constant for one fully-associative pool.

    A stable argsort by slot (radix if the slots fit ``uint16``, as in
    every shipped geometry, else numpy's merge sort) groups the stream per
    set in program order.  A repeat of its set's previous key is an MRU
    hit, leaves the LRU order untouched and drops out vectorized.  The
    rest go through ``ways``, an ``lru_cache`` of ``assoc`` entries emptied
    at each set boundary: the state machine of the reference
    ``Cache.simulate`` (``tests/oracles.py``) in C, one generator resume
    per set.  It caches a count of loads: a hit returns its key's stored
    ordinal, a miss a new maximum above all before it.
    """
    n, assoc = len(key), int(assoc)         # lru_cache refuses numpy ints
    if len(slot) != n:
        raise ValueError(f"slot has {len(slot)} entries, key has {n}")
    if assoc < 1:
        raise ValueError(f"assoc must be >= 1, got {assoc}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    narrow = 0 <= slot.min() and slot.max() < 65536
    s = slot.astype(np.uint16) if narrow else slot
    order = np.argsort(s, kind="stable")
    s, k = s[order], key[order]
    head = np.append(True, s[1:] != s[:-1])          # first access of a set
    live = head | np.append(True, k[1:] != k[:-1])   # not an MRU repeat
    keys, cuts = k[live].tolist(), np.flatnonzero(head[live]).tolist()
    del s, k, head                          # peak RSS: free before the walk
    ways = lru_cache(maxsize=assoc)(partial(next, count()))  # next ignores key
    ordinal = np.fromiter(chain.from_iterable(
        ways.cache_clear() or map(ways, keys[a:b])
        for a, b in zip(cuts, cuts[1:] + [None])), np.int64, count=len(keys))
    del keys
    missed = np.diff(np.maximum.accumulate(ordinal), prepend=-1) > 0
    miss = np.zeros(n, dtype=bool)
    miss[order[live][missed]] = True
    return np.flatnonzero(miss)


def level_miss_idx(cfg: CacheConfig, addrs: np.ndarray,
                   at: np.ndarray | None = None,
                   owner: np.ndarray | None = None) -> np.ndarray:
    """Ascending positions of ``addrs`` that miss a cold cache of ``cfg``'s
    geometry fed ``addrs[at]`` in order (``at=None``: every access).

    A level's access stream is the miss stream of the level above it, so
    a hierarchy is this call chained: ``i2 = level_miss_idx(l2, addrs,
    i1)``.  ``owner`` (one core id per position of ``addrs``) gives every
    core a private copy of the level.
    """
    ids = line_ids(addrs if at is None else addrs[at], cfg.line)
    slot = ids & np.uint64(cfg.n_sets - 1)
    if owner is not None:
        own = owner if at is None else owner[at]
        slot += own.astype(np.uint64) * np.uint64(cfg.n_sets)
    miss = lru_miss_idx(slot, ids, cfg.assoc)
    return miss if at is None else at[miss]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``size`` bytes total, ``assoc`` ways, ``line`` bytes per line.
    ``n_sets`` must come out a power of two (standard indexing).
    """

    name: str
    size: int
    assoc: int
    line: int = 64
    latency: int = 4          # load-to-use cycles on a hit (DTLB: per walk)

    def __post_init__(self):
        if self.size <= 0 or self.assoc <= 0 or self.line <= 0:
            raise ValueError("size, assoc and line must be positive")
        if self.size % (self.assoc * self.line):
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"assoc*line = {self.assoc * self.line}")
        n_sets = self.size // (self.assoc * self.line)
        if n_sets & (n_sets - 1):
            raise ValueError(f"{self.name}: n_sets={n_sets} not a power of 2")

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line)


@dataclass
class CacheStats:
    """Counters of one simulated level."""

    name: str
    accesses: int = 0
    misses: int = 0
    read_misses: int = 0
    write_misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    def mpki(self, n_instrs: int) -> float:
        """Misses per kilo-instruction."""
        return 1000.0 * self.misses / n_instrs if n_instrs else 0.0
