"""Figure 5 — Execution time breakdown of GraphBIG CPU workloads.

Paper: backend stalls dominate for most workloads (>90 % for kCore and
GUp); CompProp (Gibbs) is the outlier at ~50 % backend; TC shows a large
BadSpeculation share.  Measured: the top-down breakdown from the trace-
driven cycle model, grouped by computation type.
"""

from benchmarks.conftest import show
from benchmarks.paper import paper_note
from repro.arch.machine import describe
from repro.core.taxonomy import ComputationType
from repro.harness import breakdown_table, format_table


def test_fig05_cycle_breakdown(suite, benchmark):
    rows = suite.main_rows()
    data = benchmark(lambda: breakdown_table(list(rows.values())))
    show(f"[machine] {describe(suite.machine)}")
    show(format_table(
        ["workload", "ctype", "frontend", "badspec", "retiring",
         "backend"], data,
        title="Fig. 5 — top-down execution-cycle breakdown")
        + paper_note("backend dominant for most; kCore/GUp > 90%; "
                     "CompProp ~50%; TC has high BadSpeculation"))

    frac = {r[0]: dict(zip(["fe", "bs", "ret", "be"], r[2:])) for r in data}
    # backend dominates CompStruct (TC's intersections are the exception)
    for name, row in rows.items():
        if row.ctype == ComputationType.COMP_STRUCT and name != "TC":
            assert frac[name]["be"] > 0.5, name
    # the paper's extreme cases
    assert frac["kCore"]["be"] > 0.85
    assert frac["GUp"]["be"] > 0.85
    # CompProp clearly less backend-bound than the traversals
    assert frac["Gibbs"]["be"] < frac["BFS"]["be"] - 0.1
    # TC's data-dependent compares blow the speculation budget
    assert frac["TC"]["bs"] == max(v["bs"] for v in frac.values())
