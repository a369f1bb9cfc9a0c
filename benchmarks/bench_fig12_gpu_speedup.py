"""Figure 12 — Speedup of GPU over the 16-core CPU.

Paper: GPU wins significantly in most workloads/datasets — up to 121x for
CComp and ~20x in many cases; DCentr and CComp shine on CA-RoadNet (low
divergence, static work); BFS and SPath show significantly lower speedups
(varying working-set size); TC is lowest (heavy per-thread computation).
In-core time only — load/transfer excluded, CSR on GPU vs dynamic layout
on CPU.
"""

from benchmarks.conftest import show
from benchmarks.paper import paper_note
from repro.harness import GPU_WORKLOAD_SET, format_table, gpu_speedup


def test_fig12_gpu_speedup(suite, benchmark):
    gpu = suite.gpu_rows()
    datasets = suite.datasets

    def assemble():
        table = {}
        for w in GPU_WORKLOAD_SET:
            table[w] = {}
            for key, spec in datasets.items():
                row = gpu[(w, spec.name)]
                table[w][key] = gpu_speedup(
                    row, machine=suite.machine,
                    weights=spec.degrees_undirected())
        return table

    table = benchmark(assemble)
    keys = list(datasets)
    rows = [[w] + [table[w][k] for k in keys] for w in GPU_WORKLOAD_SET]
    show(format_table(["workload"] + keys, rows,
                      title="Fig. 12 — GPU speedup over 16-core CPU",
                      floatfmt=".1f")
         + paper_note("up to 121x (CComp), ~20x common; DCentr/CComp "
                      "high on CA-RoadNet; BFS/SPath low; TC lowest"))

    ldbc = {w: table[w]["ldbc"] for w in table}
    road = {w: table[w]["roadnet"] for w in table}
    # GPU wins in most workloads on the social graph
    assert sum(1 for v in ldbc.values() if v > 1.0) >= 5
    # CComp is the standout
    assert ldbc["CComp"] == max(ldbc.values())
    assert road["CComp"] == max(road.values())
    assert road["CComp"] > 2 * ldbc["BFS"]
    # DCentr benefits strongly from the road network's regularity
    assert road["DCentr"] > ldbc["DCentr"]
    # traversals and TC sit at the bottom on the social graph
    bottom3 = sorted(ldbc, key=ldbc.get)[:4]
    assert "BFS" in bottom3
    assert "TC" in bottom3
