"""Figure 9 — CPU data sensitivity across the five Table 7 datasets.

Paper: input data has significant impact on memory subsystems and overall
performance; L1D hit rates stay relatively high for almost all workloads
and datasets; the Twitter sample shows the highest DTLB penalty in most
workloads, dragging its IPC down; behaviour diverges per dataset.
"""

from benchmarks.conftest import show
from benchmarks.paper import DATA_SENSITIVE_WORKLOADS, paper_note, pivot, spread
from repro.harness import format_table


def test_fig09_cpu_data_sensitivity(suite, benchmark):
    rows = [r for r in suite.sens_rows()
            if r.workload in DATA_SENSITIVE_WORKLOADS]

    def assemble():
        return {metric: pivot(rows, metric)
                for metric in ("l1d_hit", "dtlb_penalty", "ipc")}

    tables = benchmark(assemble)
    datasets = sorted({r.dataset for r in rows})
    for metric, tab in tables.items():
        out = [[w] + [tab[w].get(d, float("nan")) for d in datasets]
               for w in sorted(tab)]
        show(format_table(["workload"] + datasets, out,
                          title=f"Fig. 9 — {metric} across datasets"))
    show(paper_note("graph workloads consistently exhibit a high degree "
                    "of data sensitivity; impact comes from both data "
                    "volume and topology"))

    # data sensitivity is significant: IPC varies >= 1.3x across datasets
    ipc = tables["ipc"]
    sensitive = [w for w in ipc if spread(ipc[w]) > 1.3]
    assert len(sensitive) >= len(ipc) // 2, ipc
    # L1D hit rates stay comparatively high nearly everywhere
    l1 = tables["l1d_hit"]
    flat = [v for w in l1 for v in l1[w].values()]
    assert sum(1 for v in flat if v > 0.4) > 0.7 * len(flat)
    # DTLB penalty itself is strongly data-dependent
    dtlb = tables["dtlb_penalty"]
    assert any(spread(dtlb[w]) > 2.0 for w in dtlb)
