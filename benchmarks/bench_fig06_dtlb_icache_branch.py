"""Figure 6 — DTLB penalty, ICache MPKI, and branch miss rate.

Paper: DTLB miss penalty >15 % for most workloads (12.4 % average,
CComp 21.1 % max, TC 3.9 %, Gibbs 1 %); ICache MPKI below 0.7 everywhere
(flat framework hierarchy); branch missprediction below 5 % except TC
(10.7 %).  Includes the deep-software-stack ICache ablation behind the
paper's CloudSuite comparison.
"""

from benchmarks.conftest import show
from benchmarks.paper import paper_note
from repro.arch import CPUModel
from repro.harness import format_table


def test_fig06_dtlb_icache_branch(suite, benchmark):
    rows = suite.main_rows()

    def assemble():
        return [[name, r.cpu.summary()["dtlb_penalty"],
                 r.cpu.summary()["icache_mpki"],
                 r.cpu.summary()["branch_miss_rate"]]
                for name, r in rows.items()]

    data = benchmark(assemble)
    show(format_table(
        ["workload", "dtlb_penalty", "icache_mpki", "branch_miss"],
        data, title="Fig. 6 — DTLB / ICache / branch behaviour")
        + paper_note("DTLB avg 12.4% (CComp 21.1% max, TC 3.9%, Gibbs "
                     "1%); ICache MPKI < 0.7; branch miss < 5% except "
                     "TC at 10.7%"))
    d = {r[0]: r[1:] for r in data}
    # ICache MPKI low across the suite (flat framework stack)
    assert all(ic < 0.8 for _, ic, _ in d.values())
    # DTLB: TC and Gibbs are the low outliers; CComp near the top
    assert d["TC"][0] < 0.06 and d["Gibbs"][0] < 0.06
    assert d["CComp"][0] >= 0.7 * max(v[0] for v in d.values())
    # branch: TC worst among CompStruct; traversals well-predicted
    assert d["TC"][2] > d["BFS"][2]
    assert d["BFS"][2] < 0.06 and d["DFS"][2] < 0.06


def test_fig06_ablation_deep_software_stack(suite, benchmark):
    """The paper's explanation probe: re-run the ICache model pretending
    the framework sat atop a deep library stack (CloudSuite-style).  The
    flat hierarchy's MPKI advantage should reproduce."""
    rows = suite.main_rows()
    trace = rows["BFS"].result.trace

    def both():
        model = CPUModel(suite.machine)
        flat = model.run(trace, stack_depth=0)
        deep = model.run(trace, stack_depth=10)
        return flat, deep

    flat, deep = benchmark(both)
    show(format_table(
        ["stack", "icache_mpki", "frontend_fraction"],
        [["flat (GraphBIG)", flat.icache.mpki(flat.n_instrs),
          flat.breakdown.fractions()["Frontend"]],
         ["deep (big-data stack)", deep.icache.mpki(deep.n_instrs),
          deep.breakdown.fractions()["Frontend"]]],
        title="Fig. 6 ablation — flat vs deep software stack (BFS)")
        + paper_note("open-source big-data frameworks' deep stacks lead "
                     "to high ICache MPKI; GraphBIG's flat hierarchy "
                     "does not"))
    assert deep.icache.misses > 5 * max(flat.icache.misses, 1)
