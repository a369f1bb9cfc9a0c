"""Tests for the Table 3 prior-benchmark metadata."""

from benchmarks.paper import TABLE3, coverage_gap
from repro.core.taxonomy import ComputationType


class TestTable3:
    def test_ten_rows(self):
        assert len(TABLE3) == 10

    def test_only_graphbig_covers_everything(self):
        gaps = coverage_gap()
        assert gaps["GraphBIG"] == set()
        for name, gap in gaps.items():
            if name != "GraphBIG":
                assert gap, name

    def test_prior_benchmarks_are_compstruct_only(self):
        for b in TABLE3[:-1]:
            assert b.computation_types == (ComputationType.COMP_STRUCT,)

    def test_graphbig_row(self):
        row = TABLE3[-1]
        assert row.name == "GraphBIG"
        assert "System G" in row.framework
        assert "12 CPU" in row.graph_workloads

    def test_framework_column_matches_paper(self):
        byname = {b.name: b for b in TABLE3}
        assert byname["Graph 500"].framework == "NA"
        assert byname["CloudSuite"].framework == "GraphLab"
        assert byname["BigDataBench"].framework == "Hadoop"
