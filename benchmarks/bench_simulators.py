"""Raw simulator throughput benchmarks (pytest-benchmark timings).

Not a paper figure — these measure the substrate itself so performance
regressions in the cache/TLB/branch/SIMT engines are caught, and so users
can size their own experiments.
"""

import numpy as np
import pytest

from repro.arch import (
    Cache,
    CacheConfig,
    GSharePredictor,
    TLB,
    TLBConfig,
    line_ids,
    lru_miss_idx,
    simulate_branches,
)
from repro.gpu.simt import KernelAccum, slots_for_loop

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


def test_tlb_throughput(benchmark, addrs):
    def run():
        t = TLB(TLBConfig(entries=64, assoc=4))
        t.simulate(addrs)
        return t.stats().misses

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
