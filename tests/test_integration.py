"""Integration tests: the paper's headline observations must hold on a
scaled end-to-end characterization run (Sections 5.2.2 and 5.3.1)."""

import pytest

from repro.arch.machine import SCALED_XEON
from repro.bayes import munin_like
from repro.core.taxonomy import ComputationType
from repro.datagen import ca_road, ldbc
from repro.gpu import run_gpu_workload
from repro.harness import characterize, clear_cache, gpu_speedup
from repro.harness.runner import kernel_params


@pytest.fixture(scope="module")
def rows():
    """Characterize a representative workload set on a mid-size LDBC
    graph with the scaled Xeon (one shared pass for all assertions)."""
    clear_cache()
    spec = ldbc(1000, avg_degree=16, seed=0)
    bn = munin_like(n_vertices=300, n_edges=400, target_params=20000,
                    seed=0)
    names = ("BFS", "DFS", "GCons", "GUp", "SPath", "kCore", "CComp",
             "GColor", "TC", "Gibbs", "DCentr", "BCentr")
    out = {}
    for name in names:
        if name == "Gibbs":
            from repro.harness import run_cpu_workload
            result, cpu = run_cpu_workload(name, spec, machine=SCALED_XEON,
                                           gibbs_bn=bn)
            from repro.harness.runner import Row
            from repro.workloads import WORKLOADS
            out[name] = Row(name, spec.name, WORKLOADS[name].CTYPE,
                            cpu=cpu, result=result)
        else:
            out[name] = characterize(name, spec, machine=SCALED_XEON)
    return out


class TestCPUObservations:
    def test_backend_is_major_bottleneck(self, rows):
        """'Backend is the major bottleneck for most graph computing
        workloads, especially for CompStruct.'"""
        for name, r in rows.items():
            if r.ctype == ComputationType.COMP_STRUCT and name != "TC":
                assert r.cpu.breakdown.fractions()["Backend"] > 0.5, name

    def test_compprop_less_backend_bound(self, rows):
        """CompProp shows markedly lower backend share (Fig. 5: ~50 %)."""
        gibbs = rows["Gibbs"].cpu.breakdown.fractions()["Backend"]
        bfs = rows["BFS"].cpu.breakdown.fractions()["Backend"]
        assert gibbs < bfs

    def test_kcore_gup_extreme_backend(self, rows):
        """'In extreme cases, such as kCore and GUp, the backend stall
        percentage can be even higher than 90 %.'"""
        for name in ("kCore", "GUp"):
            assert rows[name].cpu.breakdown.fractions()["Backend"] > 0.85

    def test_icache_mpki_low(self, rows):
        """'The ICache MPKI of each workload all show below 0.7 values.'"""
        for name, r in rows.items():
            assert r.cpu.summary()["icache_mpki"] < 0.8, name

    def test_l1d_hit_above_l2_l3(self, rows):
        """'L2 and L3 caches show extremely low hit rates ... however,
        L1D cache shows significantly higher hit rates.'"""
        for name, r in rows.items():
            s = r.cpu.summary()
            assert s["l1d_hit"] > s["l2_hit"] - 0.05, name

    def test_branch_miss_low_except_tc_and_compprop(self, rows):
        """'Workloads from other computation types show a miss prediction
        rate below 5 %' (TC and CompProp are the exceptions)."""
        for name, r in rows.items():
            if name in ("TC", "Gibbs", "TMorph"):
                continue
            assert r.cpu.summary()["branch_miss_rate"] < 0.08, name

    def test_tc_branch_miss_is_top_compstruct(self, rows):
        tc = rows["TC"].cpu.summary()["branch_miss_rate"]
        for name, r in rows.items():
            if r.ctype == ComputationType.COMP_STRUCT and name != "TC":
                assert tc > r.cpu.summary()["branch_miss_rate"], name

    def test_dcentr_near_top_l3_mpki(self, rows):
        """Fig. 7: DCentr has the suite's highest L3 MPKI (145.9).  At
        this reduced integration scale the graph half-fits the scaled L3,
        compressing the gap — DCentr must stay within 20 % of the max
        (the strict ordering is asserted at full scale by the Fig. 7
        benchmark)."""
        dc = rows["DCentr"].cpu.summary()["l3_mpki"]
        top = max(r.cpu.summary()["l3_mpki"] for r in rows.values())
        assert dc >= 0.8 * top

    def test_compprop_lowest_mpki_highest_ipc(self, rows):
        """Fig. 8: CompProp has by far the lowest MPKI and highest IPC."""
        gibbs = rows["Gibbs"].cpu.summary()
        for name, r in rows.items():
            if r.ctype == ComputationType.COMP_STRUCT:
                assert gibbs["l3_mpki"] < r.cpu.summary()["l3_mpki"]
                assert gibbs["ipc"] > r.cpu.summary()["ipc"]

    def test_gcons_better_locality_than_gup(self, rows):
        """'In GCons, significantly better locality is observed.'"""
        assert (rows["GCons"].cpu.summary()["l3_mpki"]
                < rows["GUp"].cpu.summary()["l3_mpki"])

    def test_tc_gibbs_lowest_dtlb(self, rows):
        """Fig. 6: DTLB penalty lowest for TC (3.9 %) and Gibbs (1 %)."""
        for probe in ("TC", "Gibbs"):
            p = rows[probe].cpu.summary()["dtlb_penalty"]
            assert p < 0.06, probe

    def test_framework_time_dominates(self, rows):
        """Fig. 1: in-framework time is large (avg 76 %); TC, whose
        intersections are user code, is the outlier."""
        fw = {n: r.result.trace.framework_fraction()
              for n, r in rows.items()}
        heavy = [v for n, v in fw.items() if n != "TC"]
        assert sum(heavy) / len(heavy) > 0.6
        assert fw["TC"] < 0.3


class TestGPUObservations:
    def test_gpu_wins_for_most_workloads(self):
        """'GPU provides significant speedup in most workloads.'"""
        clear_cache()
        spec = ldbc(1000, avg_degree=16, seed=0)
        wins = 0
        names = ("BFS", "SPath", "kCore", "CComp", "GColor", "TC",
                 "DCentr", "BCentr")
        speedups = {}
        for name in names:
            r = characterize(name, spec, machine=SCALED_XEON,
                             with_gpu=True)
            speedups[name] = gpu_speedup(
                r, machine=SCALED_XEON,
                weights=spec.degrees_undirected())
        wins = sum(1 for v in speedups.values() if v > 1.0)
        assert wins >= 5
        # CComp shows the standout speedup (paper: up to 121x)
        assert speedups["CComp"] == max(speedups.values())

    def test_memory_divergence_data_sensitive(self):
        """'Memory divergence shows higher data sensitivity' (Fig. 13)."""
        social = ldbc(800, avg_degree=14, seed=1)
        road = ca_road(800, seed=1)
        _, ms = run_gpu_workload("BFS", social,
                                 **kernel_params("BFS", social))
        _, mr = run_gpu_workload("BFS", road, **kernel_params("BFS", road))
        assert abs(ms.mdr - mr.mdr) > 0.1
