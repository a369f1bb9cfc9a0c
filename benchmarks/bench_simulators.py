"""Raw simulator throughput benchmarks (pytest-benchmark timings).

Not a paper figure — these measure the substrate itself so performance
regressions in the cache/TLB/branch/SIMT engines are caught, and so users
can size their own experiments.
"""

import numpy as np
import pytest

from repro.arch import (
    SCALED_XEON,
    CacheConfig,
    level_miss_idx,
    line_ids,
    lru_miss_idx,
    simulate_branches,
)
from repro.arch.icache import ICache
from repro.core.memmodel import PAGE_SIZE
from repro.datagen import make
from repro.gpu.simt import KernelAccum, slots_for_loop
from repro.harness import run_cpu_workload
from tests.oracles import (
    Cache,
    GSharePredictor,
    icache_line_touches,
    lru_cache_miss_idx,
)

N = 200_000


@pytest.fixture(scope="module")
def addrs():
    rng = np.random.default_rng(0)
    return rng.integers(0, 1 << 24, N).astype(np.uint64)


def test_cache_simulator_throughput(benchmark, addrs):
    cfg = CacheConfig("L2", size=32 * 1024, assoc=8)

    def run():
        c = Cache(cfg)
        return int(c.simulate(addrs).sum())

    misses = benchmark(run)
    assert 0 < misses <= N


def test_lru_walk_throughput(benchmark, addrs):
    cfg = CacheConfig("L2", size=32 * 1024, assoc=8)
    ids = line_ids(addrs, cfg.line)
    sets = ids & np.uint64(cfg.n_sets - 1)

    def run():
        return len(lru_miss_idx(sets, ids, cfg.assoc))

    assert benchmark(run) == int(Cache(cfg).simulate(addrs).sum())


def test_lru_cache_walk_throughput(benchmark, addrs):
    """The per-set state machine in C the engine replaced — the reference
    row, not the engine."""
    cfg = CacheConfig("L2", size=32 * 1024, assoc=8)
    ids = line_ids(addrs, cfg.line)
    sets = ids & np.uint64(cfg.n_sets - 1)

    def run():
        return len(lru_cache_miss_idx(sets, ids, cfg.assoc))

    assert benchmark(run) == len(lru_miss_idx(sets, ids, cfg.assoc))


@pytest.fixture(scope="module")
def gibbs_trace():
    """Gibbs's trace: under the depth-10 deep-stack ablation (Fig. 6's
    setting) 22.9 M ICache line touches, and 18 sets overflow by a single
    line each.  (Gibbs samples a fixed network; the dataset only
    satisfies the call.)"""
    result, _ = run_cpu_workload("Gibbs", make("ldbc", scale=0.05, seed=0))
    return result.trace


@pytest.fixture(scope="module")
def deep_stack_lines(gibbs_trace):
    """The first 4 M of those line touches, built by the oracle: most
    windows are long, hold few keys and hit, so the widths run out and
    the exact counts decide."""
    return icache_line_touches(gibbs_trace, 10)[:4_000_000]


def test_deep_stack_lru_throughput(benchmark, deep_stack_lines):
    """The LRU alone on the adversarial stream."""
    cfg = SCALED_XEON.icache

    def run():
        return len(level_miss_idx(cfg, deep_stack_lines))

    assert benchmark.pedantic(run, rounds=3) > 0


def test_deep_stack_icache_throughput(benchmark, gibbs_trace):
    """The product path: only the overflowing sets' touches reach the
    LRU."""
    icache = ICache(SCALED_XEON.icache)

    def run():
        return icache.simulate(gibbs_trace, 10).misses

    assert benchmark.pedantic(run, rounds=3) > 0


def test_tlb_throughput(benchmark, addrs):
    cfg = CacheConfig("DTLB", size=64 * PAGE_SIZE, assoc=4, line=PAGE_SIZE,
                      latency=36)

    def run():
        t = Cache(cfg)
        t.simulate(addrs)
        return t.stats.misses

    assert benchmark(run) > 0


@pytest.fixture(scope="module")
def branches():
    rng = np.random.default_rng(1)
    return (rng.integers(0, 64, N).astype(np.uint32),
            rng.integers(0, 2, N).astype(np.uint8))


def test_branch_predictor_throughput(benchmark, branches):
    """The sequential class — the reference row, not the engine."""
    def run():
        return GSharePredictor().simulate(*branches).mispredicts

    assert benchmark(run) > 0


def test_branch_scan_throughput(benchmark, branches):
    def run():
        return simulate_branches(*branches, kind="gshare")

    assert benchmark(run) == GSharePredictor().simulate(*branches)


def test_simt_accounting_throughput(benchmark):
    rng = np.random.default_rng(2)
    trips = rng.integers(0, 24, 50_000)

    def run():
        acc = KernelAccum()
        acc.loop(trips, 4.0)
        threads, steps, slots = slots_for_loop(trips)
        addrs = rng.integers(0, 1 << 22, len(threads))
        acc.mem_op(slots, addrs)
        return acc.stats.mdr

    mdr = benchmark(run)
    assert 0 <= mdr <= 1
