"""Tables 1, 2, 4 and Figures 3-4 — taxonomy, selection flow, workload
summary.

Paper: 21 use cases across six categories are summarized into computation
types and data types; workloads are selected by popularity (BFS: 10 use
cases ... TC: 4) and reselected so all computation types are covered.
Measured: the registry reproduces the counts, the distribution, and full
coverage.
"""

from benchmarks.conftest import show
from benchmarks.paper import (
    CATEGORIES,
    TABLE3,
    category_distribution,
    coverage_check,
    coverage_gap,
    paper_note,
    select_workloads,
    workload_usecase_counts,
)
from repro.core.taxonomy import ComputationType
from repro.harness import format_table
from repro.workloads import table4


def test_tab04_workload_selection(benchmark):
    def run_selection_flow():
        counts = workload_usecase_counts()
        selected = select_workloads(min_usecases=4)
        missing = coverage_check(selected)
        return counts, selected, missing

    counts, selected, missing = benchmark(run_selection_flow)

    rows = [[r.workload, r.category, r.computation_type,
             "yes" if r.gpu else "no", counts.get(r.workload, 0),
             r.algorithm] for r in table4()]
    show(format_table(
        ["workload", "category", "ctype", "gpu", "use_cases", "algorithm"],
        rows, title="Table 4 — GraphBIG workload summary")
        + paper_note("12 CPU + 8 GPU workloads; BFS used by 10 use cases, "
                     "TC by 4; all computation types covered"))
    dist = category_distribution()
    show(format_table(["category", "share", "paper"],
                      [[c, dist[c], CATEGORIES[c]] for c in CATEGORIES],
                      title="Fig. 4(B) — use-case category distribution"))
    show(format_table(
        ["benchmark", "framework", "representation", "ctypes"],
        [[b.name, b.framework, b.data_representation,
          "+".join(ct.value for ct in b.computation_types)]
         for b in TABLE3],
        title="Table 3 — prior benchmarks vs GraphBIG"))
    gaps = coverage_gap()
    assert gaps["GraphBIG"] == set()
    assert all(gaps[b.name] for b in TABLE3[:-1])
    assert counts["BFS"] == 10 and counts["TC"] == 4
    assert missing == set()
    assert selected[0] == "BFS"
    gpu_count = sum(1 for r in table4() if r.gpu)
    assert gpu_count == 8 and len(table4()) == 13
    assert {r.computation_type for r in table4()} == \
        {ct.value for ct in ComputationType}
