"""Figure 7 — Cache MPKI of GraphBIG CPU workloads.

Paper: high L3 MPKI on average (48.77), DCentr (145.9) and CComp (101.3)
highest; CompStruct generally high; CompProp (Gibbs) extremely small;
CompDyn diverse (6.3-27.5 L3) — GCons low thanks to immediate reuse after
insertion, GUp high from random deletes; TMorph's missing local queues
show up at L1D while its traversal keeps L2/L3 decent.
"""

from benchmarks.conftest import show
from benchmarks.paper import paper_note
from repro.core.taxonomy import ComputationType
from repro.harness import format_table


def test_fig07_cache_mpki(suite, benchmark):
    rows = suite.main_rows()

    def assemble():
        return [[name, r.ctype.value,
                 r.cpu.summary()["l1d_mpki"],
                 r.cpu.summary()["l2_mpki"],
                 r.cpu.summary()["l3_mpki"]]
                for name, r in rows.items()]

    data = benchmark(assemble)
    show(format_table(["workload", "ctype", "L1D", "L2", "L3"], data,
                      title="Fig. 7 — cache MPKI per level")
         + paper_note("avg L3 MPKI 48.77; DCentr 145.9 and CComp 101.3 "
                      "highest; CompProp tiny; GCons < GUp within "
                      "CompDyn"))
    d = {r[0]: r[2:] for r in data}
    # hierarchy is sane: misses cannot grow down the hierarchy
    for name, (l1, l2, l3) in d.items():
        assert l1 >= l2 >= l3, name
    # DCentr tops L3 MPKI (within a small scale-noise margin)
    assert d["DCentr"][2] >= 0.9 * max(v[2] for v in d.values())
    # CompProp bottoms the distribution
    gibbs_l3 = d["Gibbs"][2]
    for name, row in rows.items():
        if row.ctype == ComputationType.COMP_STRUCT and name != "TC":
            assert gibbs_l3 < d[name][2], name
    # CompDyn diversity: construction reuses, deletion does not
    assert d["GCons"][2] < d["GUp"][2]
    # TMorph: within CompDyn, closest L1D:L3 gap comes from its good
    # traversal locality at the outer levels
    assert d["TMorph"][2] < d["GUp"][2]
