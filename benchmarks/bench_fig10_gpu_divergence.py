"""Figure 10 — Branch and memory divergence of GPU workloads (LDBC).

Paper: workloads scatter across the whole (MDR, BDR) space — kCore at the
lower-left, DCentr extremely high on both axes, GColor/BCentr
branch-dominated, CComp/TC memory-only (edge-centric); most workloads are
highly divergent on both sides.
"""

from benchmarks.conftest import show
from benchmarks.paper import paper_note
from repro.harness import GPU_WORKLOAD_SET, format_table


def test_fig10_gpu_divergence(suite, benchmark):
    gpu = suite.gpu_rows()
    ldbc_name = suite.ldbc.name

    def assemble():
        return [[w, gpu[(w, ldbc_name)].gpu.mdr,
                 gpu[(w, ldbc_name)].gpu.bdr]
                for w in GPU_WORKLOAD_SET]

    data = benchmark(assemble)
    show(format_table(["workload", "MDR", "BDR"], data,
                      title="Fig. 10 — GPU divergence scatter (LDBC)")
         + paper_note("kCore lower-left; DCentr extreme on both axes; "
                      "GColor/BCentr branch-heavy; CComp/TC edge-centric "
                      "-> low BDR, memory-side divergence only"))
    d = {r[0]: (r[1], r[2]) for r in data}
    # edge-centric kernels: balanced lanes
    assert d["CComp"][1] < 0.1
    assert d["TC"][1] < d["GColor"][1]
    # kCore: the lowest thread-centric BDR (lower-left corner)
    for w in ("BFS", "SPath", "GColor", "DCentr", "BCentr"):
        assert d["kCore"][1] < d[w][1], w
    # DCentr: the extreme corner of the thread-centric kernels — top
    # memory divergence among them plus high branch divergence (paper:
    # "extremely high divergence in both sides"; see EXPERIMENTS.md for
    # the CComp-vs-DCentr raw-MDR note)
    thread_centric = ("BFS", "SPath", "kCore", "GColor", "BCentr")
    assert all(d["DCentr"][0] >= d[w][0] - 0.02 for w in thread_centric)
    assert d["DCentr"][1] > 0.75
    # memory divergence is generally high (irregular graph accesses)
    assert sum(1 for v in d.values() if v[0] > 0.5) >= 5
    # everything stays in [0, 1]
    assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in d.values())
