"""Figure 2 / Section 2 "Data representation" — CSR vs vertex-centric.

Paper: CSR's compact format brings better locality and cache performance,
but only supports static graphs; graph systems adopt the flexible
vertex-centric layout anyway (and the CSR-on-GPU locality advantage feeds
Fig. 12).  Measured: the same BFS traversal's cache behaviour over (a) the
dynamic vertex-centric representation on an aged heap and (b) the packed
CSR arrays, plus the memory-footprint comparison.
"""

import numpy as np

from benchmarks.conftest import show
from benchmarks.paper import paper_note, traced_neighbors
from repro.arch import replay
from repro.core.trace import Tracer
from repro.harness import format_table
from repro.workloads import BFS, common_edge_schema, common_vertex_schema


def _vertex_centric_trace(spec, root):
    t = Tracer()
    g = spec.build(vertex_schema=common_vertex_schema(),
                   edge_schema=common_edge_schema())
    BFS().run(g, tracer=t, root=root)
    return t.freeze(), g.alloc.footprint


def _csr_trace(spec, root):
    """The same level-synchronous BFS over CSR's compact arrays."""
    csr = spec.csr()
    t = Tracer()
    rid = t.register_region("bfs_csr_kernel", 448)
    t.enter(rid)
    level = np.full(csr.n, -1)
    level[root] = 0
    frontier = [root]
    lvl_base = csr.base_vprop
    while frontier:
        nxt = []
        for v in frontier:
            t.i(6)
            for dst in traced_neighbors(csr, v, t):
                t.i(4)
                t.r(lvl_base + 8 * dst)
                if level[dst] < 0:
                    level[dst] = level[v] + 1
                    t.w(lvl_base + 8 * dst)
                    nxt.append(dst)
        frontier = nxt
    t.leave()
    return t.freeze(), csr.alloc.footprint


def test_fig02_representations(suite, benchmark):
    spec = suite.ldbc
    root = int(np.argmax(spec.out_degrees()))
    vc_trace, vc_foot = _vertex_centric_trace(spec, root)
    csr_trace, csr_foot = _csr_trace(spec, root)

    def simulate():
        out = {}
        for name, tr in (("vertex-centric", vc_trace), ("CSR", csr_trace)):
            out[name] = replay(tr.addrs, tr.rw, suite.machine).hierarchy
        return out

    res = benchmark(simulate)
    rows = [[name, r.l1.hit_rate, int(r.l3.misses),
             (vc_foot if name == "vertex-centric" else csr_foot) / 1024]
            for name, r in res.items()]
    show(format_table(
        ["representation", "l1d_hit", "dram_fetches", "footprint_KiB"],
        rows, title="Fig. 2 — data-representation contrast (BFS)")
        + paper_note("CSR's compact format saves memory and brings better "
                     "locality; vertex-centric is kept for dynamism"))
    # CSR is more compact and moves less data from DRAM for the same
    # traversal (the locality advantage the GPU inherits, Fig. 12)
    assert csr_foot < vc_foot
    assert res["CSR"].l3.misses < res["vertex-centric"].l3.misses
