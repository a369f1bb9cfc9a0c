"""Ablation models the figure benches run beside the paper's figures:
none is a paper figure, and the product (``src/repro``) runs none of
them; ``bench_ablations.py`` and ``bench_ndp_projection.py`` print their
numbers, and the tests import them from here.

* Near-data processing (NDP) projection — the paper's future-work
  target (:func:`project_ndp`).
* Hardware-prefetcher models — probing the paper's "opportunity"
  (:func:`prefetch_comparison`).
* Edge-centric GPU BFS — the mapping-model counterpart of ``GPUBfs``
  (:class:`GPUBfsEdgeCentric`).
* Longest-processing-time partitioning — the degree-aware split set
  against the block split (:func:`greedy_weighted_partition`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.arch.cache import CacheConfig, level_miss_idx
from repro.arch.cpu import CPUMetrics
from repro.core.trace import FrozenTrace
from repro.gpu.kernels.base import GPUKernel
from repro.gpu.simt import KernelAccum, warp_of
from repro.parallel.partition import Partition

# -- near-data processing ----------------------------------------------------
# The paper's future-work target.  The conclusion singles out NDP units as the next platform for GraphBIG:
# graph computing's "extremely low cache hit rate introduces challenges as
# well as opportunities for future graph architecture/system research".
# This projects a characterized workload onto a simple
# processing-in-memory organization so that the opportunity can be
# quantified:
#
# * the deep cache hierarchy is replaced by memory-side access at a flat
#   ``local_latency`` (a vault-local DRAM access, ~tCL-scale),
# * per-vault parallelism replaces the host core's ILP/MLP machinery,
# * instruction throughput per NDP core is modest (simple in-order cores).
#
# The projected speedup is the cache-miss-dominated share of the baseline
# run divided between latency saved and throughput lost — the standard
# first-order PIM argument: workloads whose time is DRAM latency win big;
# compute-retiring workloads (CompProp) do not.


@dataclass(frozen=True)
class NDPConfig:
    """A HMC/PIM-style near-data organization."""

    name: str = "ndp-16vault"
    n_vaults: int = 16
    local_latency: int = 40        # cycles: vault-local access (vs ~200)
    issue_width: int = 1           # simple in-order NDP cores
    freq_ratio: float = 0.5        # NDP core clock vs host clock
    crossbar_latency: int = 80     # remote-vault access penalty


@dataclass
class NDPProjection:
    """Outcome of projecting one workload onto the NDP organization."""

    baseline_cycles: float
    ndp_cycles: float
    memory_bound_fraction: float

    @property
    def speedup(self) -> float:
        return (self.baseline_cycles / self.ndp_cycles
                if self.ndp_cycles else 0.0)


def project_ndp(metrics: CPUMetrics, config: NDPConfig = NDPConfig(),
                locality: float = 0.5) -> NDPProjection:
    """Project a characterized run onto NDP hardware.

    Parameters
    ----------
    metrics:
        Baseline characterization from :class:`~repro.arch.cpu.CPUModel`.
    config:
        NDP organization.
    locality:
        Fraction of accesses served by the local vault (graph partitioning
        quality); the rest pay the crossbar penalty.
    """
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be in [0, 1]")
    b = metrics.breakdown
    base = metrics.cycles
    mem_fraction = b.backend / base if base else 0.0
    # memory time: every former L3 miss (DRAM access) now costs the
    # local/remote mix; former cache hits cost local latency too, but
    # NDP's per-vault parallelism covers the same MLP as the host
    accesses = metrics.hierarchy.l1.accesses
    misses = metrics.hierarchy.l3.misses
    avg_lat = (locality * config.local_latency
               + (1 - locality) * (config.local_latency
                                   + config.crossbar_latency))
    mem_cycles = (misses * avg_lat / max(metrics.mlp, 1.0)
                  + (accesses - misses) * 1.0)
    # compute time: retiring work on narrow cores at the NDP clock,
    # spread over the vaults
    compute_cycles = (metrics.n_instrs / config.issue_width
                      / config.freq_ratio / config.n_vaults)
    other = b.frontend + b.bad_speculation
    ndp_cycles = mem_cycles / config.n_vaults + compute_cycles + other
    return NDPProjection(baseline_cycles=base, ndp_cycles=ndp_cycles,
                         memory_bound_fraction=mem_fraction)


# -- hardware prefetchers ----------------------------------------------------
# Probing the paper's "opportunity".  Section 5.2.2: "The major inefficiency of graph workloads comes from
# memory subsystem.  Their extremely low cache hit rate introduces
# challenges as well as opportunities for future graph architecture/system
# research."  The first thing an architect tries is a prefetcher; these
# models quantify why the standard ones barely help pointer-chasing
# workloads (and why they do help CSR streaming):
#
# * ``NextLinePrefetcher`` — on a miss to line L, also fetch L+1.
# * ``StridePrefetcher`` — per-PC-ish stride table (here keyed by the
#   traced code region, the closest analogue to a load PC) issuing a
#   prefetch when a reference stride repeats.
#
# Both are evaluated *offline* over a trace: a prefetch is useful iff the
# predicted line is the next line referenced within the lookahead window —
# an optimistic (timeliness-free) upper bound, which makes the "prefetchers
# don't save graph traversals" conclusion conservative.
#
# The demand-miss baseline is the product's own LRU engine,
# ``level_miss_idx``, which ``tests/test_cache.py`` gates against the
# stateful reference cache.


@dataclass
class PrefetchStats:
    """Outcome of an offline prefetcher evaluation."""

    issued: int
    useful: int
    demand_misses: int        # baseline misses without prefetching
    covered: int              # baseline misses removed by useful prefetches

    @property
    def accuracy(self) -> float:
        return self.useful / self.issued if self.issued else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of demand misses eliminated."""
        return (self.covered / self.demand_misses
                if self.demand_misses else 0.0)


class NextLinePrefetcher:
    """Fetch line L+1 alongside every demand miss to L."""

    def __init__(self, config: CacheConfig, lookahead: int = 64):
        self.config = config
        self.lookahead = lookahead

    def evaluate(self, trace: FrozenTrace) -> PrefetchStats:
        lines = (np.asarray(trace.addrs, dtype=np.uint64)
                 // np.uint64(self.config.line))
        miss = level_miss_idx(self.config, trace.addrs)
        demand = len(miss)
        # a next-line prefetch at miss i is useful iff line+1 appears in
        # the next `lookahead` references
        issued = demand
        useful = 0
        lines_list = lines.tolist()
        for i in miss.tolist():
            target = lines_list[i] + 1
            window = lines_list[i + 1:i + 1 + self.lookahead]
            if target in window:
                useful += 1
        return PrefetchStats(issued=issued, useful=useful,
                             demand_misses=demand, covered=useful)


class StridePrefetcher:
    """Region-keyed stride predictor (an idealized IP-stride prefetcher).

    Tracks, per traced code region, the last address and last stride;
    when the stride repeats, the next address is predicted.  Useful iff
    the prediction matches that region's next reference.
    """

    def __init__(self, config: CacheConfig):
        self.config = config

    def evaluate(self, trace: FrozenTrace) -> PrefetchStats:
        miss = level_miss_idx(self.config, trace.addrs)
        demand = len(miss)
        line = self.config.line
        addrs = trace.addrs.tolist()
        regions = trace.acc_region.tolist()
        last_addr: dict[int, int] = {}
        last_stride: dict[int, int] = {}
        prediction: dict[int, int] = {}
        issued = 0
        useful = 0
        covered = 0
        missed = set(miss.tolist())
        for i, (a, r) in enumerate(zip(addrs, regions)):
            pred = prediction.pop(r, None)
            if pred is not None and abs(a - pred) < line:
                useful += 1
                if i in missed:
                    covered += 1
            prev = last_addr.get(r)
            if prev is not None:
                stride = a - prev
                if stride != 0 and last_stride.get(r) == stride:
                    prediction[r] = a + stride
                    issued += 1
                last_stride[r] = stride
            last_addr[r] = a
        return PrefetchStats(issued=issued, useful=useful,
                             demand_misses=demand, covered=covered)


def prefetch_comparison(trace: FrozenTrace, config: CacheConfig
                        ) -> dict[str, PrefetchStats]:
    """Evaluate both prefetchers over one trace."""
    return {"next-line": NextLinePrefetcher(config).evaluate(trace),
            "stride": StridePrefetcher(config).evaluate(trace)}


# -- edge-centric GPU BFS ----------------------------------------------------
# The mapping-model counterpart of ``GPUBfs``.  Section 5.3 attributes thread-centric kernels' branch divergence to the
# "one thread per vertex, working set = degree" mapping and credits the
# edge-centric model (CComp, TC) with balanced lanes.  This variant maps
# one thread per *edge* each launch — uniform trip counts, so BDR collapses
# while the frontier-membership gathers keep MDR high.  Paired with
# ``GPUBfs`` it isolates the mapping choice as an ablation
# (``bench_ablations.py``).


class GPUBfsEdgeCentric(GPUKernel):
    NAME = "BFS-edge"
    MODEL = "edge-centric"

    def kernel(self, csr, coo, acc: KernelAccum, *, root: int = 0,
               **_: Any) -> dict[str, Any]:
        if coo is None:
            raise ValueError("edge-centric BFS requires the COO graph")
        n, m = coo.n, coo.m
        levels = np.full(n, -1, dtype=np.int64)
        levels[root] = 0
        cur = 0
        edge_threads = np.arange(m)
        while True:
            acc.launch()
            # every edge thread: uniform body — read src/dst ids
            # (coalesced) and both endpoint levels (scattered gathers)
            acc.uniform_op(np.ones(max(m, 1), dtype=bool), 4.0)
            acc.mem_op(warp_of(edge_threads),
                       coo.base_src + 4 * edge_threads)
            acc.mem_op(warp_of(edge_threads),
                       coo.base_dst + 4 * edge_threads)
            acc.mem_op(warp_of(edge_threads),
                       csr.base_vprop + 4 * coo.src)
            active = levels[coo.src] == cur
            fresh = active & (levels[coo.dst] < 0)
            if active.any():
                acc.mem_op(warp_of(edge_threads[active]),
                           csr.base_vprop + 4 * coo.dst[active])
            if not fresh.any():
                if not (levels[coo.src] == cur).any():
                    break
                cur += 1
                if cur > n:
                    break
                continue
            acc.mem_op(warp_of(edge_threads[fresh]),
                       csr.base_vprop + 4 * coo.dst[fresh],
                       is_write=True)
            levels[coo.dst[fresh]] = cur + 1
            cur += 1
        return {"levels": levels, "depth": cur,
                "visited": int((levels >= 0).sum())}


# -- degree-aware partitioning -----------------------------------------------

def greedy_weighted_partition(weights: np.ndarray, p: int) -> Partition:
    """Longest-processing-time greedy: heaviest item to lightest part.

    The degree-aware split a tuned runtime uses; bounds imbalance at
    4/3 OPT for independent items.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    weights = np.asarray(weights, dtype=np.float64)
    owner = np.zeros(len(weights), dtype=np.int64)
    loads = np.zeros(p)
    for i in np.argsort(-weights):
        part = int(np.argmin(loads))
        owner[i] = part
        loads[part] += weights[i]
    return Partition(owner, p)
