"""Figure 13 — GPU divergence across the five datasets.

Paper: divergence changes significantly per dataset; edge-centric CComp/TC
keep stable BDR; kCore's BDR varies little; BFS/SPath show low BDR on
CA-RoadNet / Watson / Knowledge (small frontiers / small degrees) but high
BDR on Twitter and LDBC, with LDBC highest (its imbalance involves more
vertices than Twitter's few hubs); MDR shows even higher data
sensitivity overall.
"""

import numpy as np

from benchmarks.conftest import show
from benchmarks.paper import paper_note, pivot
from repro.harness import GPU_WORKLOAD_SET, format_table


def test_fig13_gpu_data_sensitivity(suite, benchmark):
    rows = [r for r in suite.sens_rows() if r.gpu is not None]

    def assemble():
        return pivot(rows, "bdr", gpu=True), pivot(rows, "mdr", gpu=True)

    bdr, mdr = benchmark(assemble)
    datasets = sorted({r.dataset for r in rows})
    for name, tab in (("BDR", bdr), ("MDR", mdr)):
        out = [[w] + [tab[w].get(d, float("nan")) for d in datasets]
               for w in GPU_WORKLOAD_SET]
        show(format_table(["workload"] + datasets, out,
                          title=f"Fig. 13 — GPU {name} across datasets"))
    show(paper_note("edge-centric CComp/TC: stable BDR; BFS/SPath: low "
                    "BDR on road/gene/knowledge, high on Twitter/LDBC "
                    "(LDBC highest); MDR more data-sensitive than BDR"))

    def rng(d):
        vals = list(d.values())
        return max(vals) - min(vals)

    # edge-centric kernels keep BDR more stable than the most
    # data-sensitive thread-centric kernels
    assert rng(bdr["CComp"]) < 0.15
    worst_tc_range = max(rng(bdr[w])
                         for w in ("BFS", "SPath", "DCentr"))
    assert rng(bdr["TC"]) < worst_tc_range
    # traversal BDR: road network below the social graphs
    for w in ("BFS", "SPath"):
        assert bdr[w]["CA-RoadNet"] < bdr[w]["Twitter"]
        assert bdr[w]["CA-RoadNet"] < bdr[w]["LDBC"]
    # LDBC's broad imbalance produces the top traversal divergence
    assert bdr["BFS"]["LDBC"] >= bdr["BFS"]["CA-RoadNet"]
    # low-degree road network tames the degree-loop kernels
    assert bdr["DCentr"]["CA-RoadNet"] < bdr["DCentr"]["LDBC"]
    assert bdr["GColor"]["CA-RoadNet"] < bdr["GColor"]["LDBC"]
    # MDR is at least as data-sensitive as BDR on average
    mean_bdr_rng = np.mean([rng(bdr[w]) for w in bdr])
    mean_mdr_rng = np.mean([rng(mdr[w]) for w in mdr])
    assert mean_mdr_rng > 0.5 * mean_bdr_rng
