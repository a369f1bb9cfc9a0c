"""Figure 1 — Execution time of framework.

Paper: a significant portion of execution time is spent inside framework
primitives — on average 76 %, highest for traversal-based workloads.
Measured: per-workload in-framework instruction fraction from the tracer's
region attribution.
"""

from benchmarks.conftest import show
from benchmarks.paper import paper_note
from repro.harness import format_table


def test_fig01_framework_time(suite, benchmark):
    rows = suite.main_rows()

    def build_table():
        data = []
        for name, row in rows.items():
            data.append([name, row.result.trace.framework_fraction()])
        avg = sum(r[1] for r in data) / len(data)
        return data, avg

    data, avg = benchmark(build_table)
    show(format_table(
        ["workload", "framework_fraction"], data,
        title="Fig. 1 — in-framework execution share") + "\n"
        + f"average = {avg:.2f}"
        + paper_note("average in-framework time = 76%; traversal-based "
                     "workloads highest; elementary graph operations "
                     "account for a large portion of total time"))
    # the paper's claim: framework work dominates for the suite overall
    heavy = [v for n, v in ((r[0], r[1]) for r in data) if n != "TC"]
    assert sum(heavy) / len(heavy) > 0.6
    # traversals are on the high side
    byname = dict(data)
    assert byname["BFS"] > 0.7
