"""Extension ablation — shared-LLC contention under pinned threads.

The paper's CPU runs pin one thread per core (Section 5.1) against a
shared 20 MB L3.  This bench replays workload traces as 16 interleaved
threads with private L1/L2 and the shared (scaled) L3, quantifying how
much the cores' working sets evict each other — the multicore tax on the
already-poor L3 behaviour of Fig. 7.
"""

from benchmarks.conftest import show
from repro.harness import format_table, paper_note
from repro.parallel import simulate_multicore


def test_multicore_llc_contention(suite, benchmark):
    rows = suite.main_rows()
    probes = ("BFS", "DCentr", "Gibbs")

    def run():
        return {name: simulate_multicore(rows[name].result.trace,
                                         suite.machine,
                                         p=suite.machine.n_cores)
                for name in probes}

    res = benchmark(run)
    table = []
    for name, multi in res.items():
        # one core's replay is the characterization's own hierarchy
        solo = rows[name].cpu.hierarchy
        factor = (multi.l3.misses / solo.l3.misses
                  if solo.l3.misses else 1.0)
        table.append([name, int(solo.l3.misses), int(multi.l3.misses),
                      factor, multi.l1.miss_rate])
    show(format_table(
        ["workload", "l3_misses_1core", "l3_misses_16core",
         "contention", "l1_miss_rate_16c"], table,
        title="Extension — shared-LLC contention (16 pinned threads)")
        + paper_note("threads pinned to cores share the LLC; graph "
                     "working sets interleave and evict each other"))
    d = {r[0]: r[3] for r in table}
    # CompProp's tiny per-vertex working sets barely contend; the
    # traversal's giant footprint cannot get worse than streaming
    assert all(f > 0.5 for f in d.values())
    assert d["Gibbs"] < 2.0
