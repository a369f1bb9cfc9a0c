"""Tests for the characterization harness (repro.harness)."""

import pytest

from benchmarks.paper import DATA_SENSITIVE_WORKLOADS, pivot, spread
from repro.arch.machine import TEST_MACHINE
from repro.datagen import REGISTRY, ldbc, make
from repro.harness import (
    CPU_WORKLOADS,
    average_fraction,
    breakdown_table,
    by_ctype,
    characterize,
    clear_cache,
    cpu_table,
    fig8_table,
    format_table,
    framework_fractions,
    gpu_speedup,
    gpu_table,
    run_cpu_workload,
    write_csv,
)
from repro.harness.runner import _dagify
from repro.bayes import munin_like


@pytest.fixture(scope="module")
def spec():
    return ldbc(250, avg_degree=6, seed=0)


@pytest.fixture(scope="module")
def tiny_bn():
    return munin_like(n_vertices=30, n_edges=40, target_params=300, seed=0)


class TestRunner:
    def test_run_cpu_every_workload(self, spec, tiny_bn):
        for name in CPU_WORKLOADS:
            result, metrics = run_cpu_workload(
                name, spec, machine=TEST_MACHINE, gibbs_bn=tiny_bn)
            assert result.trace is not None
            assert metrics.n_instrs > 0
            assert metrics.cycles > 0

    def test_characterize_caches(self, spec):
        clear_cache()
        r1 = characterize("BFS", spec, machine=TEST_MACHINE)
        r2 = characterize("BFS", spec, machine=TEST_MACHINE)
        assert r1 is r2

    def test_characterize_with_gpu(self, spec):
        r = characterize("CComp", spec, machine=TEST_MACHINE,
                         with_gpu=True)
        assert r.gpu is not None
        assert r.cpu is not None

    def test_gpu_speedup_positive(self, spec):
        r = characterize("CComp", spec, machine=TEST_MACHINE,
                         with_gpu=True)
        assert gpu_speedup(r, machine=TEST_MACHINE) > 0

    def test_gpu_speedup_requires_both(self, spec):
        r = characterize("DFS", spec, machine=TEST_MACHINE)
        with pytest.raises(ValueError):
            gpu_speedup(r)

    def test_dagify_acyclic(self, spec):
        import networkx as nx
        dag = nx.DiGraph(_dagify(spec))
        assert nx.is_directed_acyclic_graph(dag)

    def test_data_sensitive_set_excludes_special_inputs(self):
        assert "Gibbs" not in DATA_SENSITIVE_WORKLOADS
        assert "GCons" not in DATA_SENSITIVE_WORKLOADS
        assert "TMorph" not in DATA_SENSITIVE_WORKLOADS


class TestTables:
    @pytest.fixture(scope="class")
    def rows(self, spec, tiny_bn):
        clear_cache()
        out = []
        for name in ("BFS", "DCentr", "GCons"):
            out.append(characterize(name, spec, machine=TEST_MACHINE))
        return out

    def test_cpu_table_shape(self, rows):
        table = cpu_table(rows)
        assert len(table) == 3
        assert table[0][0] == "BFS"

    def test_breakdown_table_fractions(self, rows):
        for row in breakdown_table(rows):
            assert sum(row[2:]) == pytest.approx(1.0)

    def test_by_ctype(self, rows):
        per = by_ctype(rows, "ipc")
        assert all(v > 0 for v in per.values())

    def test_fig8_table(self, rows):
        t = fig8_table(rows)
        assert [r[0] for r in t] == ["l2_mpki", "l3_mpki", "dtlb_penalty",
                                     "branch_miss_rate", "ipc"]

    def test_framework_fractions(self, rows):
        fr = framework_fractions(rows)
        assert set(fr) == {"BFS", "DCentr", "GCons"}
        assert 0 < average_fraction(rows) <= 1.0

    def test_gpu_table_empty_without_gpu(self, rows):
        assert gpu_table(rows) == []


class TestSensitivity:
    def test_pivot_and_spread(self):
        rows = [characterize("BFS", make(name, scale=0.04),
                             machine=TEST_MACHINE)
                for name in REGISTRY]
        p = pivot(rows, "ipc")
        assert set(p) == {"BFS"}
        assert len(p["BFS"]) == 5
        assert spread(p["BFS"]) >= 1.0

    def test_spread_empty(self):
        assert spread({}) == 1.0


class TestReport:
    def test_format_table(self):
        s = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]],
                         title="T")
        lines = s.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "0.125" in s

    def test_csv_roundtrip(self, tmp_path):
        rows = [["x", 1], ["y", 2]]
        path = tmp_path / "out.csv"
        write_csv(["name", "v"], rows, path)
        text = path.read_text()
        assert "name,v" in text and "x,1" in text


class TestSharedGraphReuse:
    def test_fast_path_summaries_match_fresh_builds(self):
        """The cached-graph reuse (restore_state between property-only
        workloads) must leave every metric summary identical to a fresh
        per-cell build (``clear_cache()`` before each cell)."""
        from repro.arch.machine import TEST_MACHINE
        from repro.datagen.registry import make
        from repro.harness import runner as R

        spec = make("ldbc", scale=0.02, seed=0)
        names = ("BFS", "CComp", "TC", "kCore", "GColor")
        R.clear_cache()
        hits_before = R.cache_stats()["graphs"]["hits"]
        shared = {}
        for n in names:
            _, cpu = R.run_cpu_workload(n, spec, machine=TEST_MACHINE)
            shared[n] = cpu.summary()
        assert R._GRAPH_CACHE          # the path was actually exercised
        stats = R.cache_stats()        # one shape for both caches
        assert stats["graphs"]["hits"] == hits_before + len(names) - 1
        assert set(stats["graphs"]) == set(stats["rows"])
        for n in names:
            R.clear_cache()
            _, cpu = R.run_cpu_workload(n, spec, machine=TEST_MACHINE)
            assert cpu.summary() == shared[n], n

    def test_mutating_workload_bypasses_cache(self):
        from repro.arch.machine import TEST_MACHINE
        from repro.datagen.registry import make
        from repro.harness import runner as R

        assert "GUp" not in R._PROP_ONLY_WORKLOADS
        spec = make("ldbc", scale=0.02, seed=0)
        R.clear_cache()
        _, first = R.run_cpu_workload("GUp", spec, machine=TEST_MACHINE)
        assert not R._GRAPH_CACHE
        _, again = R.run_cpu_workload("GUp", spec, machine=TEST_MACHINE)
        assert first.summary() == again.summary()
