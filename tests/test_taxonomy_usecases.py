"""Tests for the taxonomy metadata (Tables 1-2) and use-case catalogue
(Figs. 3-4)."""

import pytest

from repro.core.taxonomy import ComputationType, DataSource, WorkloadCategory
from benchmarks.paper import (
    CATEGORIES,
    COMPUTATION_PROFILES,
    DATA_SOURCE_PROFILES,
    USE_CASES,
    category_distribution,
    coverage_check,
    select_workloads,
    workload_usecase_counts,
)
from repro.workloads import WORKLOADS


class TestTaxonomy:
    def test_three_computation_types(self):
        assert len(ComputationType) == 3
        assert set(COMPUTATION_PROFILES) == set(ComputationType)

    def test_profiles_match_table1(self):
        p = COMPUTATION_PROFILES[ComputationType.COMP_STRUCT]
        assert p.read_intensity == "high"
        assert "BFS" in p.example
        p = COMPUTATION_PROFILES[ComputationType.COMP_PROP]
        assert p.numeric_intensity == "high"
        p = COMPUTATION_PROFILES[ComputationType.COMP_DYN]
        assert p.write_intensity == "high"

    def test_four_real_sources_plus_synthetic(self):
        assert len(DataSource) == 5
        assert set(DATA_SOURCE_PROFILES) == set(DataSource)

    def test_source_examples_match_table2(self):
        assert "Twitter" in DATA_SOURCE_PROFILES[DataSource.SOCIAL].example
        assert "Road" in DATA_SOURCE_PROFILES[DataSource.TECHNOLOGY].example

    def test_categories(self):
        assert len(WorkloadCategory) == 4


class TestUseCases:
    def test_twentyone_use_cases(self):
        assert len(USE_CASES) == 21

    def test_bfs_most_popular_fig4(self):
        counts = workload_usecase_counts()
        assert counts["BFS"] == 10
        assert counts["TC"] == 4
        assert max(counts.values()) == counts["BFS"]
        assert min(counts.values()) >= 2

    def test_six_categories(self):
        cats = {uc.category for uc in USE_CASES}
        assert cats == set(CATEGORIES)

    def test_distribution_sums_to_one(self):
        dist = category_distribution()
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_distribution_matches_fig4b(self):
        dist = category_distribution()
        for cat, frac in CATEGORIES.items():
            assert dist[cat] == pytest.approx(frac, abs=0.01)

    def test_select_by_popularity(self):
        sel = select_workloads(min_usecases=4)
        assert sel[0] == "BFS"
        assert "TC" in sel

    def test_coverage_check_full(self):
        assert coverage_check(list(WORKLOADS)) == set()

    def test_coverage_check_missing(self):
        missing = coverage_check(["BFS", "DFS"])
        assert ComputationType.COMP_PROP in missing
        assert ComputationType.COMP_DYN in missing

    def test_every_workload_has_a_use_case(self):
        counts = workload_usecase_counts()
        assert set(counts) == set(WORKLOADS)
