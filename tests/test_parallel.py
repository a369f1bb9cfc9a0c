"""Unit tests for the multicore model (repro.parallel)."""

import numpy as np
import pytest

from benchmarks.ablations import greedy_weighted_partition
from repro.parallel import (
    MulticoreResult,
    block_partition,
    project_multicore,
)


class TestPartitioners:
    def test_block_covers_everything(self):
        p = block_partition(100, 7)
        assert len(p.owner) == 100
        assert set(p.owner) == set(range(7))

    def test_block_is_contiguous(self):
        p = block_partition(100, 4)
        assert (np.diff(p.owner) >= 0).all()

    def test_loads_unit_weights(self):
        p = block_partition(100, 4)
        assert p.loads().sum() == 100

    def test_imbalance_uniform(self):
        p = block_partition(100, 4)
        assert p.imbalance() == pytest.approx(1.0)

    def test_greedy_beats_block_on_skew(self):
        rng = np.random.default_rng(0)
        w = rng.zipf(1.8, 200).astype(float)
        w.sort()                            # correlated runs hurt block
        b = block_partition(len(w), 8).imbalance(w)
        g = greedy_weighted_partition(w, 8).imbalance(w)
        assert g <= b

    def test_greedy_imbalance_bounded(self):
        rng = np.random.default_rng(1)
        w = rng.zipf(2.0, 300).astype(float)
        p = greedy_weighted_partition(w, 4)
        # LPT guarantee: 4/3 OPT; OPT >= mean, so max/mean <= ~4/3 + max item
        assert p.imbalance(w) <= max(4 / 3 + 0.01,
                                     w.max() / (w.sum() / 4))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            block_partition(10, 0)


def _speedup(r: MulticoreResult) -> float:
    return r.serial_cycles / r.parallel_cycles


class TestMulticoreProjection:
    def test_amdahl_limits_speedup(self):
        r = project_multicore(1e9, p=16, workload="DFS")     # 95 % serial
        assert _speedup(r) < 2.0

    def test_fully_parallel_near_linear(self):
        r = project_multicore(1e9, p=16, workload="DCentr")  # 1 % serial
        assert _speedup(r) > 12

    def test_more_cores_never_slower_without_barriers(self):
        base = 1e8
        t8 = project_multicore(base, p=8, workload="GUp")
        t16 = project_multicore(base, p=16, workload="GUp")
        assert t16.parallel_cycles <= t8.parallel_cycles

    def test_barriers_add_cost(self):
        a = project_multicore(1e6, p=4, barriers=0)
        b = project_multicore(1e6, p=4, barriers=100)
        assert b.parallel_cycles > a.parallel_cycles

    def test_imbalance_from_weights(self):
        w = np.zeros(64)
        w[0] = 1000.0                     # one giant item
        w[1:] = 1.0
        r = project_multicore(1e6, p=8, weights=w)
        assert r.imbalance > 4.0
        assert _speedup(r) < 4.0

    def test_workload_default_serial_fraction(self):
        dfs = project_multicore(1e6, p=16, workload="DFS")
        dc = project_multicore(1e6, p=16, workload="DCentr")
        assert _speedup(dfs) < _speedup(dc)

    def test_time_seconds(self):
        r = project_multicore(2.6e9, p=1)
        assert r.time_seconds(2.6) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            project_multicore(1e6, p=0)

    def test_p1_identity(self):
        r = project_multicore(1e6, p=1, workload="GCons")
        assert r.parallel_cycles == pytest.approx(1e6)
        assert isinstance(r, MulticoreResult)
