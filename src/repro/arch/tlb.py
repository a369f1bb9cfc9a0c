"""Data TLB model.

The paper finds DTLB miss penalty is a first-order inefficiency for graph
computing (>15 % of cycles for most workloads, 12.4 % average; Fig. 6):
graph footprints span many pages and the irregular pattern has almost no
page locality.  The model is an LRU set-associative translation cache over
4 KiB pages, reusing the generic cache engine at page granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.memmodel import PAGE_SIZE
from .cache import Cache, CacheConfig


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of the DTLB: ``entries`` total, ``assoc`` ways,
    ``page`` bytes per page, ``walk_latency`` cycles per miss."""

    entries: int = 64
    assoc: int = 4
    page: int = PAGE_SIZE
    walk_latency: int = 36

    def cache_config(self) -> CacheConfig:
        return CacheConfig("DTLB", size=self.entries * self.page,
                           assoc=self.assoc, line=self.page,
                           latency=self.walk_latency)


@dataclass
class TLBStats:
    """Outcome of a DTLB simulation."""

    accesses: int
    misses: int
    walk_latency: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def walk_cycles(self) -> int:
        """Total cycles spent in page walks."""
        return self.misses * self.walk_latency

    def mpki(self, n_instrs: int) -> float:
        return 1000.0 * self.misses / n_instrs if n_instrs else 0.0


class TLB:
    """LRU DTLB; :meth:`simulate` returns the per-access miss mask."""

    def __init__(self, config: TLBConfig = TLBConfig()):
        self.config = config
        self._cache = Cache(config.cache_config())

    def reset(self) -> None:
        self._cache.reset()

    def simulate(self, addrs: np.ndarray) -> np.ndarray:
        """Replay byte addresses; True marks translation misses."""
        return self._cache.simulate(addrs)

    def stats(self) -> TLBStats:
        st = self._cache.stats
        return TLBStats(st.accesses, st.misses, self.config.walk_latency)
