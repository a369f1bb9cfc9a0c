"""Design-choice ablations called out in DESIGN.md.

(a) heap aging — the aged-heap fragmentation behind the vertex-centric
    layout's poor locality (Section 2 "Data representation");
(b) associativity sensitivity — the L2's miss count at 1..16 ways over
    a fixed number of sets (the cache-design knob of "future
    architecture research" the paper motivates);
(c) partitioner quality — degree-aware vs block partitioning for the
    16-core baseline (Fig. 12's denominator).
"""

import numpy as np

from benchmarks.conftest import show
from repro.arch import line_ids, lru_miss_idx, replay
from repro.core.memmodel import AGED_HEAP, PACKED_HEAP
from repro.core.trace import Tracer
from repro.harness import format_table, paper_note
from repro.parallel import block_partition, greedy_weighted_partition
from repro.workloads import BFS, common_edge_schema, common_vertex_schema


def _bfs_trace(spec, heap):
    t = Tracer()
    g = spec.build(vertex_schema=common_vertex_schema(),
                   edge_schema=common_edge_schema(), heap=heap)
    BFS().run(g, tracer=t, root=int(np.argmax(spec.out_degrees())))
    return t.freeze()


def test_ablation_heap_aging(suite, benchmark):
    spec = suite.ldbc
    packed = _bfs_trace(spec, PACKED_HEAP)
    aged = _bfs_trace(spec, AGED_HEAP)

    def simulate():
        hp = replay(packed.addrs, None, suite.machine).hierarchy
        ha = replay(aged.addrs, None, suite.machine).hierarchy
        return hp, ha

    hp, ha = benchmark(simulate)
    rows = [["packed (fresh arena)", hp.l3.miss_rate],
            ["aged (long-lived store)", ha.l3.miss_rate]]
    show(format_table(["heap", "l3_miss_rate"], rows,
                      title="Ablation — heap aging vs BFS locality")
         + paper_note("real-world graph stores are long-lived; their "
                      "fragmented dynamic layout is what the "
                      "vertex-centric representation pays for "
                      "flexibility"))
    assert ha.l3.miss_rate >= hp.l3.miss_rate * 0.95


def test_ablation_associativity_sweep(suite, benchmark):
    trace = suite.main_rows()["BFS"].result.trace
    sub = trace.addrs[:60_000]
    ids = line_ids(sub, 64)
    sets = ids & np.uint64(suite.machine.l2.n_sets - 1)
    ways = (1, 2, 4, 8, 16)

    def sweep():
        return {a: len(lru_miss_idx(sets, ids, a)) for a in ways}

    curve = benchmark(sweep)
    rows = [[a, curve[a], curve[a] / len(sub)] for a in ways]
    show(format_table(["assoc", "misses", "miss_rate"], rows,
                      title="Ablation — L2 associativity sweep (BFS)"))
    assert all(curve[a] >= curve[b] for a, b in zip(ways, ways[1:]))
    # graph traversals are capacity-, not conflict-limited: extra ways
    # past ~4 buy little
    assert curve[4] - curve[16] < 0.3 * curve[1]


def test_ablation_partitioner(suite, benchmark):
    spec = suite.datasets["twitter"]
    weights = spec.degrees_undirected().astype(float)

    def both():
        b = block_partition(len(weights), 16).imbalance(weights)
        g = greedy_weighted_partition(weights, 16).imbalance(weights)
        return b, g

    b, g = benchmark(both)
    show(format_table(["partitioner", "imbalance (max/mean)"],
                      [["block", b], ["greedy (degree-aware)", g]],
                      title="Ablation — 16-core partition balance "
                            "(Twitter)")
         + paper_note("hub-dominated degree distributions make naive "
                      "vertex splits imbalanced, mirroring the GPU's "
                      "warp imbalance"))
    assert g <= b


def test_ablation_thread_vs_edge_centric(suite, benchmark):
    """Section 5.3's mapping argument, isolated: the same BFS as a
    thread-centric kernel (one thread per vertex, degree-length loops)
    vs an edge-centric kernel (one thread per edge, uniform work)."""
    import numpy as np

    from repro.formats.convert import csr_to_coo
    from repro.gpu.device import time_kernel
    from repro.gpu.kernels import GPUBfs, GPUBfsEdgeCentric

    spec = suite.ldbc
    csr = spec.csr()
    coo = csr_to_coo(csr)
    root = int(np.argmax(spec.out_degrees()))

    def both():
        _, st_t = GPUBfs().run(csr, coo, root=root)
        _, st_e = GPUBfsEdgeCentric().run(csr, coo, root=root)
        return time_kernel(st_t), time_kernel(st_e)

    mt, me = benchmark(both)
    show(format_table(
        ["mapping", "BDR", "MDR", "exec_us"],
        [["thread-centric", mt.bdr, mt.mdr, mt.exec_time * 1e6],
         ["edge-centric", me.bdr, me.mdr, me.exec_time * 1e6]],
        title="Ablation — BFS mapping model (thread vs edge centric)")
        + paper_note("branch divergence comes from the thread-centric "
                     "design ... CComp and TC show small BDR values "
                     "because they follow an edge-centric model"))
    assert me.bdr < 0.05
    assert mt.bdr > 0.5


def test_ablation_prefetchers(suite, benchmark):
    """The paper's closing "challenges as well as opportunities" probe:
    what do standard prefetchers recover of graph computing's misses?
    Near-nothing for pointer chasing — compare against the CSR stream."""
    from repro.arch.prefetch import prefetch_comparison

    rows = suite.main_rows()
    bfs_trace = rows["BFS"].result.trace
    dc_trace = rows["DCentr"].result.trace

    def run():
        return (prefetch_comparison(bfs_trace, suite.machine.l2),
                prefetch_comparison(dc_trace, suite.machine.l2))

    bfs_res, dc_res = benchmark(run)
    table = []
    for wl, res in (("BFS", bfs_res), ("DCentr", dc_res)):
        for kind, st in res.items():
            table.append([wl, kind, st.accuracy, st.coverage])
    show(format_table(
        ["workload", "prefetcher", "accuracy", "coverage"], table,
        title="Ablation — hardware prefetchers vs graph traffic")
        + paper_note("'extremely low cache hit rate introduces challenges "
                     "as well as opportunities for future graph "
                     "architecture/system research'"))
    # pointer chasing defeats stride prediction
    assert bfs_res["stride"].coverage < 0.4
