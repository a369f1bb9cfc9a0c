"""Reference implementations the engine tests compare against.

Each is the short, sequential, obviously-correct form of something
``src/`` computes vectorized or composed: the stateful :class:`Cache` /
:class:`MemoryHierarchy` / :class:`TLB` and the predictor classes stay in
``src/`` (prefetchers and figure benches need them); the per-core and
per-segment loops, the seven workload loop kernels and the query
executor's dict image and kernels, which only tests need, live here.
"""

import dataclasses
import heapq
from collections import deque
from typing import Any

import numpy as np

from repro.arch import TLB, MemoryHierarchy
from repro.arch.branch import PREDICTORS
from repro.arch.cache import Cache, CacheStats
from repro.arch.icache import ICache, ICacheStats
from repro.core.errors import PlanError, QueryError
from repro.gpu.simt import SEGMENT, KernelStats
from repro.parallel.trace_sim import MulticoreCacheResult, _chunk_owners
from repro.query.exec import _CMP, MAX_RESULT_ROWS
from repro.workloads.base import TracedHeap, TracedQueue


def reference_hierarchy(machine, addrs, rw):
    """(HierarchyResult, TLBStats, tlb miss mask) of a cold multi-pass
    replay: one :class:`Cache` pass per level, plus the DTLB."""
    hier = MemoryHierarchy(machine).simulate(addrs, rw)
    tlb = TLB(machine.tlb)
    tlb_miss = tlb.simulate(addrs)
    return hier, tlb.stats(), tlb_miss


def reference_multicore(trace, machine, p, chunk=256):
    """Per-core private L1/L2 :class:`Cache` objects, then one shared L3
    over the merged L2-miss positions."""
    addrs = trace.addrs
    n = len(addrs)
    agg_l1 = CacheStats("L1D")
    agg_l2 = CacheStats("L2")
    l3 = Cache(machine.l3)
    if n == 0:
        return MulticoreCacheResult(p, agg_l1, agg_l2, l3.stats, [0] * p)
    owners = _chunk_owners(n, p, chunk)
    # per-core private simulation, collecting L2-miss positions
    miss_positions: list[np.ndarray] = []
    per_core_accesses: list[int] = []
    for core in range(p):
        idx = np.flatnonzero(owners == core)
        per_core_accesses.append(len(idx))
        if len(idx) == 0:
            continue
        sub = addrs[idx]
        l1 = Cache(machine.l1d)
        m1 = l1.simulate(sub)
        l2 = Cache(machine.l2)
        pos1 = idx[m1]
        m2 = l2.simulate(addrs[pos1]) if len(pos1) else np.zeros(0, bool)
        for agg, st in ((agg_l1, l1.stats), (agg_l2, l2.stats)):
            agg.accesses += st.accesses
            agg.misses += st.misses
            agg.read_misses += st.read_misses
            agg.write_misses += st.write_misses
        miss_positions.append(pos1[m2])
    # shared L3 sees the cores' miss streams in global program order
    # (the block-cyclic schedule interleaves them chunk by chunk)
    if miss_positions:
        merged = np.sort(np.concatenate(miss_positions))
        l3.simulate(addrs[merged])
    return MulticoreCacheResult(p, agg_l1, agg_l2, l3.stats,
                                per_core_accesses)


def reference_segment_lru(chunks, capacity):
    """Misses per chunk of one LRU pool of ``capacity`` segments fed the
    chunks' segment ids back to back (the device L2, probed inline)."""
    d: dict[int, None] = {}
    out = []
    for segs in chunks:
        miss = 0
        for s in np.asarray(segs).tolist():
            if s in d:
                del d[s]
                d[s] = None
            else:
                miss += 1
                d[s] = None
                if len(d) > capacity:
                    del d[next(iter(d))]
        out.append(miss)
    return out


def reference_kernel_stats(acc) -> KernelStats:
    """``acc.stats`` recomputed with :func:`reference_segment_lru` over the
    transaction chunks a :class:`KernelAccum` has banked."""
    st = dataclasses.replace(acc._stats, dram_transactions=0,
                             bytes_read=0, bytes_written=0)
    dram = reference_segment_lru([c[0] for c in acc._chunks],
                                 acc._l2_segments)
    for n, (_, is_write, rmw) in zip(dram, acc._chunks):
        st.dram_transactions += n
        if is_write:
            st.bytes_written += n * SEGMENT
            if rmw:
                st.bytes_read += n * SEGMENT
        else:
            st.bytes_read += n * SEGMENT
    return st


def reference_icache(config, trace, stack_depth=0):
    """The ICache's line-touch stream through a stateful :class:`Cache`."""
    cache = Cache(config)
    cache.simulate(ICache(config)._visit_addrs(trace, stack_depth))
    return ICacheStats(cache.stats.accesses, cache.stats.misses)


def reference_branches(kind, sites, taken, **kwargs):
    """The sequential predictor class, one branch at a time."""
    return PREDICTORS[kind](**kwargs).simulate(sites, taken)


# -- workload loop kernels ---------------------------------------------------
# The per-vertex, per-edge form of the kernels ``repro.workloads`` runs
# vectorized: each charges the tracer through the framework primitives one
# event at a time.  ``test_workloads_vectorized.py`` runs them under
# ``Workload.run`` and requires the frozen traces to be element-identical.

ENTRY = 8      # bytes per bucket / oriented-list slot


def loop_bfs(g, t, *, root=0, **_):
    """BFS: level-synchronous queue traversal, one traced primitive per
    step."""
    site_visited = t.register_branch_site()
    src = g.find_vertex(root)
    g.vset(src, "level", 0)
    g.vset(src, "parent", root)
    q = TracedQueue(g, t)
    q.push(src)
    levels: dict[int, int] = {root: 0}
    parents: dict[int, int] = {root: root}
    visited = 1
    while q:
        v = q.pop()
        lvl = g.vget(v, "level")
        for dst, _node in g.neighbors(v):
            w = g.find_vertex(dst)
            t.i(4)
            unvisited = g.vget(w, "level") < 0
            t.br(site_visited, unvisited)
            if unvisited:
                g.vset(w, "level", lvl + 1)
                g.vset(w, "parent", v.vid)
                levels[dst] = lvl + 1
                parents[dst] = v.vid
                visited += 1
                q.push(w)
    return {"levels": levels, "parents": parents, "visited": visited}


def loop_ccomp(g, t, **_):
    """CComp: a queue BFS over the undirected view from every unlabelled
    vertex."""
    site_fresh = t.register_branch_site()
    comp: dict[int, int] = {}
    n_components = 0
    q = TracedQueue(g, t)
    for v in g.vertices():
        t.i(3)
        unlabelled = g.vget(v, "comp") < 0
        t.br(site_fresh, unlabelled)
        if not unlabelled:
            continue
        n_components += 1
        label = v.vid
        g.vset(v, "comp", label)
        comp[v.vid] = label
        q.push(v)
        while q:
            u = q.pop()
            nbrs = [dst for dst, _ in g.neighbors(u)]
            nbrs.extend(g.in_neighbors(u))
            for dst in nbrs:
                w = g.find_vertex(dst)
                t.i(3)
                if g.vget(w, "comp") < 0:
                    g.vset(w, "comp", label)
                    comp[dst] = label
                    q.push(w)
    return {"comp": comp, "n_components": n_components}


def loop_kcore(g, t, **_):
    """kCore: Matula-Beck smallest-last peeling over bucket arrays."""
    site_shift = t.register_branch_site()
    # undirected adjacency snapshot via the block scan primitives
    # (whole lists are consumed, so the bulk API applies)
    ids = sorted(g.vertex_ids())
    adj: dict[int, set[int]] = {vid: set() for vid in ids}
    for v in g.scan_vertices():
        for dst in g.neighbor_ids(v):
            t.i(2)
            adj[v.vid].add(dst)
            adj[dst].add(v.vid)
    degree = {vid: len(adj[vid]) for vid in ids}
    maxdeg = max(degree.values(), default=0)
    # bucket arrays on the sim heap (Matula-Beck bookkeeping)
    bucket_base = g.alloc.alloc_array(maxdeg + 1, ENTRY, tag="kcore_bkt")
    pos_base = g.alloc.alloc_array(len(ids) + 1, ENTRY, tag="kcore_pos")
    buckets: list[set[int]] = [set() for _ in range(maxdeg + 1)]
    for vid in ids:
        buckets[degree[vid]].add(vid)
        t.i(2)
        t.w(bucket_base + degree[vid] * ENTRY)
    core: dict[int, int] = {}
    k = 0
    removed: set[int] = set()
    for _ in range(len(ids)):
        # find the lowest non-empty bucket
        d = 0
        while not buckets[d]:
            t.i(2)
            t.r(bucket_base + d * ENTRY)
            d += 1
        t.br(site_shift, d > k)
        k = max(k, d)
        vid = min(buckets[d])        # deterministic tie-break
        buckets[d].discard(vid)
        t.i(4)
        t.w(bucket_base + d * ENTRY)
        core[vid] = k
        removed.add(vid)
        v = g.find_vertex(vid)
        g.vset(v, "core", k)
        for u in adj[vid]:
            t.i(5)
            if u in removed:
                continue
            du = degree[u]
            buckets[du].discard(u)
            degree[u] = du - 1
            buckets[du - 1].add(u)
            t.w(bucket_base + du * ENTRY)
            t.w(pos_base + (u % (len(ids) + 1)) * ENTRY)
            # touch the neighbour's struct (degree update readback)
            w = g.find_vertex(u)
            t.r(w.addr + 8)
    return {"core": core, "max_core": k}


def loop_tc(g, t, **_):
    """TC: Schank's edge iterator, a two-pointer merge per oriented edge."""
    site_cmp = t.register_branch_site()
    site_loop = t.register_branch_site()
    ids = sorted(g.vertex_ids())
    # degeneracy (Schank) ordering: rank vertices by increasing
    # degree and orient every edge toward the higher-degree endpoint.
    # Each oriented list is then O(sqrt(m)) — hubs keep only their
    # few higher-degree peers — which is what makes the edge-iterator
    # subquadratic on power-law graphs.
    deg = {vid: (g.find_vertex(vid).degree
                 + len(g.find_vertex(vid).inn)) for vid in ids}
    rank = {vid: r for r, vid in enumerate(
        sorted(ids, key=lambda v: (deg[v], v)))}
    t.i(6 * len(ids))     # the ranking pass
    higher: dict[int, list[int]] = {vid: [] for vid in ids}
    for v in g.scan_vertices():
        for dst in g.neighbor_ids(v):
            t.i(2)
            if v.vid == dst:
                continue
            a, b = ((v.vid, dst) if rank[v.vid] < rank[dst]
                    else (dst, v.vid))
            higher[a].append(b)
    bases: dict[int, int] = {}
    for vid in ids:
        lst = sorted(set(higher[vid]), key=lambda u: (rank[u], u))
        higher[vid] = lst
        bases[vid] = g.alloc.alloc_array(max(len(lst), 1), ENTRY,
                                         tag="tc_adj")
        for i in range(len(lst)):
            t.i(2)
            t.w(bases[vid] + i * ENTRY)
    total = 0
    per_vertex: dict[int, int] = {vid: 0 for vid in ids}
    for u in ids:
        lu = higher[u]
        bu = bases[u]
        for vi, vvid in enumerate(lu):
            t.r(bu + vi * ENTRY)
            t.i(3)
            lv = higher[vvid]
            bv = bases[vvid]
            # merge-intersection of lu[vi+1:] with lv
            i, j = vi + 1, 0
            while i < len(lu) and j < len(lv):
                t.i(4)
                t.r(bu + i * ENTRY)
                t.r(bv + j * ENTRY)
                t.br(site_loop, True)       # merge-loop bound (taken)
                t.br(site_loop, True)       # second bounds check
                a, b = lu[i], lv[j]
                t.br(site_cmp, rank[a] < rank[b])   # data-dependent
                if a == b:
                    total += 1
                    per_vertex[u] += 1
                    per_vertex[vvid] += 1
                    per_vertex[a] += 1
                    i += 1
                    j += 1
                elif rank[a] < rank[b]:
                    i += 1
                else:
                    j += 1
            t.br(site_loop, False)
    return {"triangles": total, "per_vertex": per_vertex}


def loop_gibbs(g, t, *, bn, n_sweeps=20, burn_in=5, seed=0, evidence=None,
               **_):
    """Gibbs: one traced primitive per CPT read, child probe and state
    write of every visit of every sweep."""
    if burn_in >= n_sweeps:
        raise ValueError("burn_in must be < n_sweeps")
    site_sample = t.register_branch_site()
    site_cpt_loop = t.register_branch_site()
    rng = np.random.default_rng(seed)
    evidence = dict(evidence or {})
    state = np.array([rng.integers(0, a) for a in bn.arities],
                     dtype=np.int64)
    for v, x in evidence.items():
        state[v] = x
    # initialize the state property of every vertex
    for v in g.vertices():
        t.i(2)
        g.vset(v, "state", int(state[v.vid]))
    free = [v for v in range(bn.n) if v not in evidence]
    counts = [np.zeros(a, dtype=np.int64) for a in bn.arities]
    for sweep in range(n_sweeps):
        for vid in free:
            vert = g.find_vertex(vid)
            cpt_addr, cpt = g.payload_get(vert, "cpt")
            # charge the CPT row read (regular, property-local)
            pstates = tuple(int(state[p]) for p in bn.parents[vid])
            row = cpt.row_index(pstates) if bn.parents[vid] else 0
            for x in range(cpt.arity):
                t.br(site_cpt_loop, True)    # arity loop (predictable)
                g.payload_read(cpt_addr, row * cpt.arity + x,
                               n_instrs=9)   # mult-accumulate numeric
            t.br(site_cpt_loop, False)
            # children's CPT contributions: walk out-neighbours
            for child, _node in g.neighbors(vert):
                cvert = g.find_vertex(child)
                caddr, ccpt = g.payload_get(cvert, "cpt")
                t.i(4)
                g.vget(cvert, "state")
                for x in range(cpt.arity):
                    t.br(site_cpt_loop, True)
                    g.payload_read(caddr, x % max(ccpt.table.size, 1),
                                   n_instrs=11)
                t.br(site_cpt_loop, False)
            probs = bn.conditional_row(vid, state)
            new = int(rng.choice(len(probs), p=probs))
            t.i(12 * len(probs))        # normalize + inverse-CDF draw
            t.br(site_sample, new != int(state[vid]))
            state[vid] = new
            g.vset(vert, "state", new)
        if sweep >= burn_in:
            for v in range(bn.n):
                counts[v][state[v]] += 1
    retained = n_sweeps - burn_in
    marginals = [c / retained for c in counts]
    return {"marginals": marginals, "state": state,
            "sweeps": n_sweeps}


def loop_dcentr(g, t, *, normalize=False, **_):
    """DCentr: two vertex scans, the first bumping a counter property
    across every out-edge."""
    n = g.num_vertices
    denom = (n - 1) if (normalize and n > 1) else 1
    # pass 1: out-degrees from the degree field; in-degree counters
    # accumulated by walking every out-edge and bumping the target's
    # counter property — the scattered read-modify-write stream that
    # makes DCentr the suite's MPKI maximum
    indeg: dict[int, int] = {}
    for v in g.vertices():
        t.i(2)
        g.degree(v)
        for dst, _node in g.neighbors(v):
            w = g.find_vertex(dst)
            t.i(3)
            cur = g.vget(w, "dc")
            g.vset(w, "dc", (cur or 0) + 1)
            indeg[dst] = indeg.get(dst, 0) + 1
    # pass 2: combine and store the final score
    dc: dict[int, float] = {}
    for v in g.vertices():
        t.i(4)
        score = (g.degree(v) + indeg.get(v.vid, 0)) / denom
        g.vset(v, "dc", score)
        dc[v.vid] = score
    return {"dc": dc}


def loop_spath(g, t, *, root=0, **_):
    """SPath: Dijkstra over a traced binary heap, one traced primitive
    per step."""
    site_relax = t.register_branch_site()
    src = g.find_vertex(root)
    g.vset(src, "dist", 0.0)
    heap = TracedHeap(g, t)
    heap.push((0.0, root))
    dists: dict[int, float] = {root: 0.0}
    parents: dict[int, int] = {root: root}
    settled: set[int] = set()
    while heap:
        d, vid = heap.pop()
        t.i(4)
        if vid in settled:
            continue
        settled.add(vid)
        v = g.find_vertex(vid)
        for dst, node in g.neighbors(v):
            weight = g.eget(node, "weight")
            if weight < 0:
                raise ValueError(
                    f"Dijkstra requires non-negative weights, "
                    f"edge ({vid}->{dst}) has {weight}")
            w = g.find_vertex(dst)
            t.i(6)
            nd = d + weight
            better = nd < g.vget(w, "dist")
            t.br(site_relax, better)
            if better:
                g.vset(w, "dist", nd)
                dists[dst] = nd
                parents[dst] = vid
                heap.push((nd, dst))
    return {"dists": dists, "parents": parents,
            "settled": len(settled)}


LOOP_KERNELS = {"BFS": loop_bfs, "CComp": loop_ccomp, "kCore": loop_kcore,
                "TC": loop_tc, "Gibbs": loop_gibbs, "DCentr": loop_dcentr,
                "SPath": loop_spath}


# -- the query executor's dict image and kernels -----------------------------
# What ``repro.query.exec`` ran before its graph became a CSR: a tuple list,
# two lazily built dict adjacencies, five pure-python kernels returning
# ``{column: {vid: value}}`` and the graph phase that drove them (per-op memo
# keys, ``KeyError`` on ``filter id`` and all).  ``test_query.py`` requires
# the array kernels to agree with these element for element.

@dataclasses.dataclass
class DictGraphImage:
    """A queryable graph: sorted vertex ids + directed arc list.

    Adjacency views are built lazily and cached on the instance, so an
    engine-cached image pays for each view once across queries.
    """

    ids: list[int]
    arcs: list[tuple[int, int]]
    _out: "dict[int, list[int]] | None" = dataclasses.field(
        default=None, repr=False)
    _und: "dict[int, list[int]] | None" = dataclasses.field(
        default=None, repr=False)

    @classmethod
    def from_spec(cls, spec) -> "DictGraphImage":
        arcs = [(int(s), int(d)) for s, d in spec.edges]
        if not spec.directed:
            seen = set(arcs)
            arcs.extend((d, s) for s, d in list(arcs)
                        if (d, s) not in seen)
        return cls(ids=list(range(spec.n)), arcs=arcs)

    @classmethod
    def from_snapshot(cls, snapshot) -> "DictGraphImage":
        return cls(ids=list(snapshot.vertex_ids()),
                   arcs=sorted(snapshot.arcs()))

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def out_adj(self) -> dict[int, list[int]]:
        if self._out is None:
            adj: dict[int, list[int]] = {v: [] for v in self.ids}
            for s, d in self.arcs:
                adj[s].append(d)
            for lst in adj.values():
                lst.sort()
            self._out = adj
        return self._out

    def und_adj(self) -> dict[int, list[int]]:
        """Undirected simple view: out ∪ in, self-loop free."""
        if self._und is None:
            nbr: dict[int, set[int]] = {v: set() for v in self.ids}
            for s, d in self.arcs:
                if s != d:
                    nbr[s].add(d)
                    nbr[d].add(s)
            self._und = {v: sorted(ns) for v, ns in nbr.items()}
        return self._und


# -- kernels (full-graph, deterministic) -------------------------------------

def dict_degree(g: DictGraphImage) -> dict[str, dict[int, int]]:
    out_deg = {v: 0 for v in g.ids}
    in_deg = {v: 0 for v in g.ids}
    for s, d in g.arcs:
        out_deg[s] += 1
        in_deg[d] += 1
    und = g.und_adj()
    return {"degree": {v: len(und[v]) for v in g.ids},
            "out_degree": out_deg, "in_degree": in_deg}


def dict_bfs(g: DictGraphImage, root: int, depth: "int | None"
             ) -> dict[str, dict[int, int]]:
    """Directed BFS from ``root``; unreached vertices are absent from
    the result maps (the executor drops their rows)."""
    if root not in set(g.ids):
        raise QueryError(f"bfs root {root} is not a vertex of this "
                         f"graph ({len(g.ids)} vertices)")
    if depth is not None and depth < 0:
        return {"level": {}, "parent": {}}
    adj = g.out_adj()
    level = {root: 0}
    parent = {root: -1}
    frontier = deque([root])
    while frontier:
        v = frontier.popleft()
        lv = level[v]
        if depth is not None and lv >= depth:
            continue
        for w in adj[v]:
            if w not in level:
                level[w] = lv + 1
                parent[w] = v
                frontier.append(w)
    return {"level": level, "parent": parent}


def dict_cc(g: DictGraphImage) -> dict[str, dict[int, int]]:
    """Undirected connected components; the label is the component's
    minimum vertex id (canonical, so every node computes the same
    labels independently)."""
    und = g.und_adj()
    comp: dict[int, int] = {}
    for start in g.ids:               # ascending: start is the min id
        if start in comp:
            continue
        comp[start] = start
        frontier = deque([start])
        while frontier:
            v = frontier.popleft()
            for w in und[v]:
                if w not in comp:
                    comp[w] = start
                    frontier.append(w)
    return {"comp": comp}


def dict_kcore(g: DictGraphImage) -> dict[str, dict[int, int]]:
    """Coreness per vertex (undirected peeling, Matula–Beck order)."""
    und = g.und_adj()
    deg = {v: len(und[v]) for v in g.ids}
    core: dict[int, int] = {}
    current = 0
    removed = set()
    # peel: repeatedly take the minimum-degree remaining vertex; its
    # coreness is the running maximum of removal degrees
    heap = [(deg[v], v) for v in sorted(g.ids)]
    heapq.heapify(heap)
    live_deg = dict(deg)
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != live_deg[v]:
            continue                   # stale heap entry
        current = max(current, d)
        core[v] = current
        removed.add(v)
        for w in und[v]:
            if w not in removed:
                live_deg[w] -= 1
                heapq.heappush(heap, (live_deg[w], w))
    return {"core": core}


def dict_triangles(g: DictGraphImage) -> dict[str, dict[int, int]]:
    """Per-vertex triangle count on the undirected simple view."""
    und = {v: set(ns) for v, ns in g.und_adj().items()}
    tri = {v: 0 for v in g.ids}
    for u in g.ids:
        for v in und[u]:
            if v <= u:
                continue
            common = und[u] & und[v]
            for w in common:
                if w > v:
                    tri[u] += 1
                    tri[v] += 1
                    tri[w] += 1
    return {"tri": tri}


# -- graph phase -------------------------------------------------------------

def dict_graph_phase(plan, graph: DictGraphImage, *,
                     kernel_cache: "dict | None" = None
                     ) -> dict[str, Any]:
    """Execute scan + graph ops; return the materialized table.

    ``kernel_cache`` (dict-like) memoizes kernel column maps across
    queries against the same graph image.
    """
    ids = graph.ids
    keep = set(ids)
    cols: dict[str, dict[int, Any]] = {}
    visible = ["id"]

    def run_kernel(op: dict[str, Any]) -> dict[str, dict[int, Any]]:
        kind = op["kind"]
        cache_key = tuple(sorted((k, v) for k, v in op.items()))
        if kernel_cache is not None and cache_key in kernel_cache:
            return kernel_cache[cache_key]
        if kind == "degree":
            result = dict_degree(graph)
        elif kind == "bfs":
            result = dict_bfs(graph, op["root"], op["depth"])
        elif kind == "cc":
            result = dict_cc(graph)
        elif kind == "kcore":
            result = dict_kcore(graph)
        elif kind == "triangles":
            result = dict_triangles(graph)
        else:  # pragma: no cover - planner guarantees the catalog
            raise PlanError(f"unknown kernel {kind!r}")
        if kernel_cache is not None:
            kernel_cache[cache_key] = result
        return result

    for op in plan.graph_ops:
        kind = op["kind"]
        if kind in ("degree", "bfs", "cc", "kcore", "triangles"):
            produced = run_kernel(op)
            cols.update(produced)
            visible.extend(produced.keys())
            if kind == "bfs":
                reached = produced["level"]
                keep &= reached.keys()
            elif kind == "kcore" and op.get("k") is not None:
                core = produced["core"]
                keep = {v for v in keep if core.get(v, 0) >= op["k"]}
        elif kind == "filter":
            col, cmp_fn = op["column"], _CMP[op["cmp"]]
            value = op["value"]
            series = cols[col]
            keep = {v for v in keep if cmp_fn(series.get(v), value)}
        elif kind == "project":
            visible = list(op["columns"])
        else:  # pragma: no cover - planner phase split guarantees this
            raise PlanError(f"op {kind!r} is not a graph-phase op")

    rows = [[v] + [_jsonable(cols[c].get(v)) for c in visible[1:]]
            for v in ids if v in keep]
    if len(rows) > MAX_RESULT_ROWS:
        raise QueryError(
            f"result of {len(rows)} rows exceeds {MAX_RESULT_ROWS}; "
            "add a topk/limit/sample/count stage")
    return {"columns": list(visible), "rows": rows}


def _jsonable(value):
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(value)
    return int(value)


# -- the snapshot store's full-walk compaction -------------------------------
# What ``SnapshotStore._compact_locked`` was before compaction became
# incremental: a pass over every vertex span list, every arc span list and
# every property history, whatever the retired versions touched.
# ``test_dynamic_compaction.py`` drives a store compacting this way beside
# one compacting from the per-version log and requires equal state.

def full_walk_compact(store) -> int:
    new_floor = store._retention_floor()
    if new_floor <= store.floor:
        return 0
    folded = 0
    dead_vids = []
    for vid, spans in store._vspans.items():
        kept = [s for s in spans
                if s[1] is None or s[1] > new_floor]
        folded += len(spans) - len(kept)
        if kept:
            spans[:] = kept
        else:
            dead_vids.append(vid)
    for vid in dead_vids:
        del store._vspans[vid]
        store._props.pop(vid, None)
    for adj, mirror in ((store._out, store._inn),):
        empty_srcs = []
        for src, row in adj.items():
            dead_dsts = []
            for dst, spans in row.items():
                kept = [s for s in spans
                        if s[1] is None or s[1] > new_floor]
                folded += len(spans) - len(kept)
                if kept:
                    spans[:] = kept
                else:
                    dead_dsts.append(dst)
            for dst in dead_dsts:
                del row[dst]
                mirror_row = mirror.get(dst)
                if mirror_row is not None:
                    mirror_row.pop(src, None)
                    if not mirror_row:
                        del mirror[dst]
            if not row:
                empty_srcs.append(src)
        for src in empty_srcs:
            del adj[src]
    for histories in store._props.values():
        for name, history in histories.items():
            base_idx = 0
            for i, (ver, _) in enumerate(history):
                if ver <= new_floor:
                    base_idx = i
                else:
                    break
            if base_idx > 0:
                del history[:base_idx]
    for v in range(store.floor + 1, new_floor + 1):
        store._deltas.pop(v, None)
    store.floor = new_floor
    store.stats.compactions += 1
    store.stats.spans_folded += folded
    return folded
