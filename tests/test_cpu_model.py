"""Unit tests for the top-down CPU cycle model and machine configs."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.arch import (
    CPUModel,
    PAPER_XEON,
    SCALED_XEON,
    TEST_MACHINE,
    describe,
    replay,
)
from repro.arch.cpu import _memory_stall_cycles
from repro.core import trace as T
from repro.core.trace import Tracer
from tests.oracles import unique_memory_stall_cycles


def _trace(n_scatter=300, serial=False, seed=0):
    """Synthetic trace: scattered loads with instructions and branches."""
    rng = np.random.default_rng(seed)
    t = Tracer()
    region = T.R_NEIGHBORS if serial else T.R_VERTEX_SCAN
    for _ in range(n_scatter):
        t.enter(region)
        t.i(8)
        t.r(int(rng.integers(0, 1 << 22)) & ~7)
        t.br(T.B_EDGE_LOOP, True)
        t.leave()
    t.br(T.B_EDGE_LOOP, False)
    return t.freeze()


class TestCycleModel:
    def test_breakdown_sums_to_total(self):
        m = CPUModel(TEST_MACHINE).run(_trace())
        b = m.breakdown
        assert b.total == pytest.approx(m.cycles)
        assert sum(b.fractions().values()) == pytest.approx(1.0)

    def test_ipc_positive_and_bounded(self):
        m = CPUModel(TEST_MACHINE).run(_trace())
        assert 0 < m.ipc <= TEST_MACHINE.issue_width

    def test_scattered_trace_is_backend_bound(self):
        m = CPUModel(TEST_MACHINE).run(_trace())
        assert m.breakdown.fractions()["Backend"] > 0.5

    def test_serial_regions_lower_mlp(self):
        par = CPUModel(TEST_MACHINE).run(_trace(serial=False))
        ser = CPUModel(TEST_MACHINE).run(_trace(serial=True))
        assert ser.mlp <= par.mlp
        assert ser.cycles >= par.cycles

    def test_hot_trace_high_ipc(self):
        t = Tracer()
        for _ in range(500):
            t.i(8)
            t.r(64)           # always the same line
        m = CPUModel(TEST_MACHINE).run(t.freeze())
        assert m.ipc > 1.0
        assert m.breakdown.fractions()["Retiring"] > 0.5

    def test_dtlb_penalty_in_range(self):
        m = CPUModel(TEST_MACHINE).run(_trace())
        assert 0.0 <= m.dtlb_penalty < 1.0

    def test_summary_keys(self):
        s = CPUModel(TEST_MACHINE).run(_trace()).summary()
        for key in ("ipc", "l1d_mpki", "l2_mpki", "l3_mpki", "dtlb_penalty",
                    "branch_miss_rate", "icache_mpki", "cycles_backend",
                    "framework_fraction", "mlp"):
            assert key in s

    def test_deep_stack_raises_frontend(self):
        ft = _trace()
        flat = CPUModel(TEST_MACHINE).run(ft)
        deep = CPUModel(TEST_MACHINE).run(ft, stack_depth=8)
        assert (deep.breakdown.frontend > flat.breakdown.frontend)

    def test_metrics_hold_no_numpy_array(self):
        """A memoized row keeps a run's counts, not an entry per access."""
        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, f.name))
            elif isinstance(obj, (list, tuple, dict)):
                for item in obj.values() if isinstance(obj, dict) else obj:
                    yield from arrays(item)

        assert not list(arrays(CPUModel(TEST_MACHINE).run(_trace())))

    def test_footprint_recorded(self):
        m = CPUModel(TEST_MACHINE).run(_trace(), footprint_bytes=12345)
        assert m.footprint_bytes == 12345

    def test_empty_trace(self):
        # only the top-level region's compulsory ICache misses remain
        m = CPUModel(TEST_MACHINE).run(Tracer().freeze())
        assert m.breakdown.retiring == 0
        assert m.breakdown.backend == 0
        assert m.ipc == 0.0


class TestHierarchy:
    def test_miss_masks_nested(self):
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 1 << 20, 2000).astype(np.uint64)
        i1, i2, i3 = replay(addrs, None, TEST_MACHINE).misses
        # an L2 miss is an L1 miss; an L3 miss is an L2 miss
        assert len(i3) and np.isin(i3, i2).all() and np.isin(i2, i1).all()
        assert all((np.diff(idx) > 0).all() for idx in (i1, i2, i3))

    def test_mpki_and_hit_rates(self):
        addrs = np.arange(0, 64 * 100, 64, dtype=np.uint64)
        res = replay(addrs, None, TEST_MACHINE).hierarchy
        m = res.mpki(100_000)
        assert m["L1D"] >= m["L2"] >= m["L3"]
        hr = res.hit_rates()
        assert all(0.0 <= v <= 1.0 for v in hr.values())


class TestMemoryStallWindows:
    """The stall model numbers its MLP windows by run starts, which holds
    because ``iat`` never decreases, and prices each L1 miss by where the
    nested L2/L3 miss positions put it; on any non-decreasing stream it
    equals the ``np.unique`` + ``np.isin`` form bit for bit."""

    @pytest.mark.parametrize("seed", range(40))
    def test_run_start_windows_equal_the_unique_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 3000))
        # steps of 0 repeat a window, large ones skip many
        step = rng.choice([0, 0, 1, 5, 64, 700], size=n)
        iat = np.cumsum(step).astype(np.uint64)
        trace = SimpleNamespace(
            iat=iat,
            acc_region=rng.choice(np.array([T.R_NEIGHBORS, T.R_FIND_EDGE,
                                            T.R_VERTEX_SCAN, T.R_PROP_GET],
                                           dtype=np.uint32), size=n))
        # nested i3 <= i2 <= i1, each ascending, as replay returns them
        i1 = np.flatnonzero(rng.random(n) < rng.random())
        i2 = i1[rng.random(len(i1)) < rng.random()]
        i3 = i2[rng.random(len(i2)) < rng.random()]
        for machine in (SCALED_XEON, TEST_MACHINE):
            assert _memory_stall_cycles(trace, (i1, i2, i3), machine) == \
                unique_memory_stall_cycles(trace, (i1, i2, i3), machine)


class TestMachineConfigs:
    def test_presets_valid(self):
        for mc in (SCALED_XEON, TEST_MACHINE, PAPER_XEON):
            assert mc.l1d.size < mc.l2.size < mc.l3.size
            assert mc.tlb.size // mc.tlb.line > 0
            assert mc.n_cores >= 1

    def test_describe(self):
        s = describe(SCALED_XEON)
        assert "L1D" in s and "cores" in s
        assert "DTLB 32e" in s
