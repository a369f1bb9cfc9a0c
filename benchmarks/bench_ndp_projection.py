"""Future-work extension — NDP (near-data processing) projection.

The paper's conclusion: "In the future, we will also extend GraphBIG to
other platforms, such as near-data processing (NDP) units".  This bench
quantifies the opportunity the paper's observations imply: workloads that
lose >85 % of cycles to memory stalls (CompStruct) gain the most from
moving compute next to DRAM; the compute-retiring CompProp workload gains
least.
"""

from benchmarks.ablations import NDPConfig, project_ndp
from benchmarks.conftest import show
from benchmarks.paper import paper_note
from repro.core.taxonomy import ComputationType
from repro.harness import format_table


def test_ndp_projection(suite, benchmark):
    rows = suite.main_rows()

    def project_all():
        return {name: project_ndp(r.cpu, NDPConfig())
                for name, r in rows.items()}

    proj = benchmark(project_all)
    data = [[name, rows[name].ctype.value,
             proj[name].memory_bound_fraction, proj[name].speedup]
            for name in rows]
    show(format_table(
        ["workload", "ctype", "memory_bound", "ndp_speedup"], data,
        title="Extension — NDP (16-vault PIM) projected speedup")
        + paper_note("future work: 'extend GraphBIG to near-data "
                     "processing (NDP) units' — the low cache hit rates "
                     "are the opportunity"))
    by_type: dict[str, list[float]] = {}
    for name, r in rows.items():
        by_type.setdefault(r.ctype.value, []).append(proj[name].speedup)
    avg = {k: sum(v) / len(v) for k, v in by_type.items()}
    # the memory-stall-dominated computation types gain the most
    assert avg[ComputationType.COMP_STRUCT.value] > \
        avg[ComputationType.COMP_PROP.value]
    assert all(p.speedup > 0 for p in proj.values())
