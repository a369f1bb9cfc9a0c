"""Tests for the workload registry (Table 4) and workload metadata."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import workloads as W
from repro.core.taxonomy import ComputationType, WorkloadCategory
from benchmarks.paper import coverage_check
from repro.workloads import (
    GPU_WORKLOADS,
    WORKLOAD_TYPES,
    WORKLOADS,
    table4,
)


class TestRegistry:
    def test_thirteen_workloads(self):
        assert len(WORKLOADS) == 13

    def test_paper_names_present(self):
        for name in ("BFS", "DFS", "GCons", "GUp", "TMorph", "SPath",
                     "kCore", "CComp", "GColor", "TC", "Gibbs", "DCentr",
                     "BCentr"):
            assert name in WORKLOADS

    def test_eight_gpu_workloads(self):
        assert len(GPU_WORKLOADS) == 8
        assert set(GPU_WORKLOADS) == {"BFS", "SPath", "kCore", "CComp",
                                      "GColor", "TC", "DCentr", "BCentr"}

    def test_all_computation_types_covered(self):
        missing = coverage_check(list(WORKLOADS), WORKLOAD_TYPES)
        assert missing == set()

    def test_type_assignments_match_paper(self):
        assert WORKLOAD_TYPES["BFS"] == ComputationType.COMP_STRUCT
        assert WORKLOAD_TYPES["Gibbs"] == ComputationType.COMP_PROP
        for w in ("GCons", "GUp", "TMorph"):
            assert WORKLOAD_TYPES[w] == ComputationType.COMP_DYN

    def test_categories_match_paper(self):
        assert WORKLOADS["BFS"].CATEGORY == WorkloadCategory.TRAVERSAL
        assert WORKLOADS["GUp"].CATEGORY == WorkloadCategory.UPDATE
        assert WORKLOADS["kCore"].CATEGORY == WorkloadCategory.ANALYTICS
        assert WORKLOADS["DCentr"].CATEGORY == WorkloadCategory.SOCIAL
        assert WORKLOADS["BCentr"].CATEGORY == WorkloadCategory.SOCIAL

    def test_get_and_run(self, tiny_graph):
        wl = W.get("BFS")
        assert wl.NAME == "BFS"
        with pytest.raises(KeyError):
            W.get("PageRank")

    def test_table4_rows(self):
        rows = table4()
        assert len(rows) == 13
        byname = {r.workload: r for r in rows}
        assert byname["TC"].algorithm.startswith("Schank")
        assert byname["kCore"].algorithm.startswith("Matula")
        assert byname["BCentr"].algorithm.startswith("Brandes")
        assert byname["GColor"].algorithm.startswith("Luby")
        assert byname["SPath"].algorithm.startswith("Dijkstra")
        assert byname["CComp"].gpu and not byname["DFS"].gpu


class TestWorkloadRunContract:
    def test_result_fields(self, tiny_graph):
        from repro.core.trace import Tracer
        res = W.run("BFS", tiny_graph, tracer=Tracer(), root=0)
        assert res.name == "BFS"
        assert res.trace is not None
        assert res.footprint_bytes > 0
        assert res.params == {"root": 0}

    def test_no_tracer_no_trace(self, tiny_graph):
        res = W.run("DCentr", tiny_graph)
        assert res.trace is None

    def test_tracer_detached_after_run(self, tiny_graph):
        from repro.core.trace import Tracer
        t = Tracer()
        W.run("DCentr", tiny_graph, tracer=t)
        assert tiny_graph.t is None

    def test_kernel_region_registered(self, tiny_graph):
        from repro.core.trace import Tracer
        t = Tracer()
        W.run("BFS", tiny_graph, tracer=t, root=0)
        names = [r.name for r in t.regions.values()]
        assert "BFS_kernel" in names


@given(st.integers(0, 11))
@settings(max_examples=12, deadline=None)
def test_every_workload_instantiable(i):
    name = sorted(WORKLOADS)[i]
    wl = W.get(name)
    assert wl.NAME == name
    assert wl.CTYPE in ComputationType
