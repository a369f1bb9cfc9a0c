"""Figure 11 — GPU memory throughput and IPC.

Paper (K40, 288 GB/s peak): bandwidth utilization is inefficient — the
best read throughput is CComp's 89.9 GB/s; DCentr stays high (75.2 GB/s)
on sheer access intensity despite its atomics hurting performance; TC is
the extreme outlier at 2.0 GB/s with the highest IPC (compare-dominated
intersections).
"""

from benchmarks.conftest import show
from benchmarks.paper import paper_note
from repro.harness import GPU_WORKLOAD_SET, format_table

PAPER_READ_GBS = {"CComp": 89.9, "DCentr": 75.2, "TC": 2.0}


def test_fig11_gpu_throughput_ipc(suite, benchmark):
    gpu = suite.gpu_rows()
    ldbc_name = suite.ldbc.name

    def assemble():
        out = []
        for w in GPU_WORKLOAD_SET:
            m = gpu[(w, ldbc_name)].gpu
            out.append([w, m.read_throughput_gbs, m.write_throughput_gbs,
                        m.ipc, PAPER_READ_GBS.get(w, float("nan"))])
        return out

    data = benchmark(assemble)
    show(format_table(
        ["workload", "read_GB/s", "write_GB/s", "IPC", "paper_read"],
        data, title="Fig. 11 — GPU memory throughput and IPC")
        + paper_note("peak BW 288 GB/s never approached; CComp highest "
                     "(89.9); DCentr high despite atomics; TC lowest "
                     "(2.0) with the top IPC"))
    d = {r[0]: (r[1], r[3]) for r in data}
    # CComp achieves the top read throughput
    assert d["CComp"][0] == max(v[0] for v in d.values())
    # TC: lowest throughput, highest IPC
    assert d["TC"][0] == min(v[0] for v in d.values())
    assert d["TC"][1] == max(v[1] for v in d.values())
    # DCentr keeps high throughput despite the atomic pressure
    assert d["DCentr"][0] > 0.4 * d["CComp"][0]
    # bandwidth utilization stays inefficient overall
    assert all(v[0] < 288.0 for v in d.values())
