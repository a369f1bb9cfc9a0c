"""The query executor: graph phase + table phase.

One executor serves a single node and every shard alike.  The
**graph phase** runs numpy kernels over a :class:`GraphImage` — sorted
vertex ids and one :class:`~repro.formats.CSRGraph`, the repo's one
compact graph form, built from a generated
:class:`~repro.datagen.spec.GraphSpec` or a pinned dynamic
:class:`~repro.dynamic.store.Snapshot` — keeps one ``int64`` column per
kernel output and a row mask, and materializes a plain table
``{"columns": [...], "rows": [[...], ...]}`` in ascending-id order once,
at the end.  The **table phase** applies the aggregate tail via
:func:`apply_table_op` — pure functions over row lists.

Determinism contract (every ordering rule the equivalence gate relies
on — a shard answering for the cluster must answer exactly as a single
node does):

* materialized rows are ascending by vertex id;
* neighbours are ascending within a row of the image, so BFS's
  ``parent`` — the first discoverer under FIFO order — is one vertex,
  whichever constructor or shard built the image;
* ``topk`` orders by value descending, id ascending as the tie-break;
* ``sample`` keeps the ``k`` smallest splitmix64 hashes of
  ``(id, seed)`` and emits them id-ascending — the hash is recomputable
  from the id alone;
* ``limit`` takes the first ``k`` rows of the current order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any

import numpy as np

from ..core.errors import PlanError, QueryError
from ..formats.csr import CSRGraph, from_arc_keys
from .plan import PhysicalPlan

#: Guard on shipped result size: a pipeline with no aggregate over a big
#: graph is a mistake, not a query — fail typed instead of blowing the
#: wire's frame cap.
MAX_RESULT_ROWS = 50_000

_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}

_MASK64 = (1 << 64) - 1


def sample_key(vid: int, seed: int) -> int:
    """splitmix64 finalizer over ``id + seed*golden`` — the sampling
    rank.  Pure-python and recomputable anywhere from the id alone."""
    x = (vid + seed * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


# -- the graph image ---------------------------------------------------------

@dataclass
class GraphImage:
    """A queryable graph: sorted vertex ``ids`` and one
    :class:`~repro.formats.CSRGraph` of the directed arcs over *row
    indices* (``ids[r]`` is row ``r``'s vertex), neighbours ascending
    within a row."""

    ids: np.ndarray
    csr: CSRGraph

    @classmethod
    def from_spec(cls, spec) -> "GraphImage":
        src, dst = spec.edges[:, 0], spec.edges[:, 1]
        if not spec.directed:
            src, dst = (np.concatenate([src, dst]),
                        np.concatenate([dst, src]))
        return cls(np.arange(spec.n, dtype=np.int64),
                   from_arc_keys(spec.n, src * spec.n + dst))

    @classmethod
    def from_snapshot(cls, snapshot) -> "GraphImage":
        adj = snapshot.adjacency()                  # one locked pass
        n = len(adj)
        heads = np.fromiter(adj, np.int64, n)
        counts = np.fromiter(map(len, adj.values()), np.int64, n)
        dst = np.fromiter(chain.from_iterable(adj.values()), np.int64,
                          int(counts.sum()))
        ids = np.sort(heads)
        rows = np.searchsorted(ids, np.repeat(heads, counts))
        return cls(ids, from_arc_keys(n, rows * n
                                      + np.searchsorted(ids, dst)))

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def und(self) -> CSRGraph:
        """Undirected simple view: out ∪ in, self-loop free."""
        src = np.repeat(np.arange(self.n), self.csr.degrees())
        off = src != self.csr.col_idx
        src, dst = src[off], self.csr.col_idx[off]
        return from_arc_keys(self.n, np.concatenate([src * self.n + dst,
                                                     dst * self.n + src]))


def _gather(row_ptr: np.ndarray, rows: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Positions in a CSR's column array of the adjacency lists of
    ``rows``, list after list, and each list's length."""
    lo = row_ptr[rows]
    counts = row_ptr[rows + 1] - lo
    before = np.cumsum(counts) - counts
    return (np.repeat(lo - before, counts)
            + np.arange(counts.sum())), counts


# -- kernels (full-graph, deterministic, one value per row of ``ids``) -------

def kernel_degree(g: GraphImage) -> dict[str, np.ndarray]:
    return {"degree": g.und.degrees(), "out_degree": g.csr.degrees(),
            "in_degree": np.bincount(g.csr.col_idx, minlength=g.n)}


def kernel_bfs(g: GraphImage, root: int, depth: "int | None"
               ) -> dict[str, np.ndarray]:
    """Directed BFS from ``root``, level by level, each frontier in
    discovery order so ``parent`` is the first discoverer of the FIFO
    walk; an unreached vertex has level -1 (the executor drops its
    row)."""
    r = int(np.searchsorted(g.ids, root))
    if r == g.n or g.ids[r] != root:
        raise QueryError(f"bfs root {root} is not a vertex of this "
                         f"graph ({g.n} vertices)")
    level = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    limit = g.n if depth is None else depth     # no path has n arcs
    frontier, lv = np.array([r]), 0
    if limit >= 0:
        level[r] = 0
    while len(frontier) and lv < limit:
        pos, counts = _gather(g.csr.row_ptr, frontier)
        found, by = g.csr.col_idx[pos], np.repeat(frontier, counts)
        new = level[found] < 0
        found, by = found[new], by[new]
        first = np.sort(np.unique(found, return_index=True)[1])
        frontier = found[first]
        lv += 1
        level[frontier] = lv
        parent[frontier] = g.ids[by[first]]
    return {"level": level, "parent": parent}


def kernel_cc(g: GraphImage) -> dict[str, np.ndarray]:
    """Undirected connected components; the label is the component's
    minimum vertex id (canonical, so every node computes the same
    labels independently)."""
    src = np.repeat(np.arange(g.n), g.und.degrees())
    dst = g.und.col_idx
    comp = np.arange(g.n)
    while True:
        a, b = comp[src], comp[dst]
        if (a == b).all():
            return {"comp": g.ids[comp]}
        # hook the larger root under the smaller, then jump pointers
        # until every vertex points at a root again
        np.minimum.at(comp, np.maximum(a, b), np.minimum(a, b))
        while ((up := comp[comp]) != comp).any():
            comp = up


def kernel_kcore(g: GraphImage) -> dict[str, np.ndarray]:
    """Coreness per vertex (undirected peeling: every vertex of degree
    at most ``k`` leaves in the round that finds it)."""
    deg = g.und.degrees()
    core = np.zeros(g.n, dtype=np.int64)
    alive = np.ones(g.n, dtype=bool)
    k = 0
    while alive.any():
        peel = np.flatnonzero(alive & (deg <= k))
        if not len(peel):
            k = int(deg[alive].min())
            continue
        core[peel] = k
        alive[peel] = False
        pos, _ = _gather(g.und.row_ptr, peel)
        deg -= np.bincount(g.und.col_idx[pos], minlength=g.n)
    return {"core": core}


def kernel_triangles(g: GraphImage) -> dict[str, np.ndarray]:
    """Per-vertex triangle count on the undirected simple view: the
    edges ``u < v`` in order are themselves a CSR (row ``u``, its higher
    neighbours ascending); for each one and each higher neighbour ``w``
    of ``v``, the triangle ``u < v < w`` exists when ``u`` has the edge
    to ``w``."""
    n = g.n
    src = np.repeat(np.arange(n), g.und.degrees())
    up = src < g.und.col_idx
    u, v = src[up], g.und.col_idx[up]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(u, minlength=n))])
    key = u * n + v                             # ascending, as the rows are
    pos, counts = _gather(ptr, v)
    w = v[pos]
    want = np.repeat(u, counts) * n + w
    hit = key[np.minimum(np.searchsorted(key, want), len(key) - 1)] == want
    edge = np.repeat(np.arange(len(u)), counts)[hit]
    return {"tri": np.bincount(np.concatenate([u[edge], v[edge], w[hit]]),
                               minlength=n)}


# -- graph phase -------------------------------------------------------------

#: The parameter-free kernels: one result per image, memoised by name.
_KERNELS = {"degree": kernel_degree, "cc": kernel_cc,
            "kcore": kernel_kcore, "triangles": kernel_triangles}


def run_graph_phase(plan: PhysicalPlan, graph: GraphImage, *,
                    kernel_cache: "dict | None" = None
                    ) -> dict[str, Any]:
    """Execute scan + graph ops; return the materialized table.

    ``kernel_cache`` (a dict) keeps the parameter-free kernels' columns
    across queries against the same graph image, one entry per kernel
    name: ``kcore``'s ``k`` is a mask over the one coreness column, and
    BFS — one result per (root, depth) — runs per request.
    """
    memo = {} if kernel_cache is None else kernel_cache
    ids = graph.ids
    keep = np.ones(len(ids), dtype=bool)
    cols: dict[str, np.ndarray] = {"id": ids}
    visible = ["id"]
    for op in plan.graph_ops:
        kind = op["kind"]
        if kind == "filter":
            keep &= _CMP[op["cmp"]](cols[op["column"]], op["value"])
            continue
        if kind == "project":
            visible = list(op["columns"])
            continue
        if kind == "bfs":
            produced = kernel_bfs(graph, op["root"], op["depth"])
            keep &= produced["level"] >= 0
        elif kind in _KERNELS:
            produced = memo.get(kind)
            if produced is None:
                produced = memo[kind] = _KERNELS[kind](graph)
            if kind == "kcore" and op["k"] is not None:
                keep &= produced["core"] >= op["k"]
        else:  # pragma: no cover - planner phase split guarantees this
            raise PlanError(f"op {kind!r} is not a graph-phase op")
        cols.update(produced)
        visible.extend(produced)

    n_rows = int(keep.sum())
    if n_rows > MAX_RESULT_ROWS:
        raise QueryError(
            f"result of {n_rows} rows exceeds {MAX_RESULT_ROWS}; "
            "add a topk/limit/sample/count stage")
    rows = np.stack([cols[c][keep] for c in visible], axis=1).tolist()
    return {"columns": list(visible), "rows": rows}


# -- table phase -------------------------------------------------------------

def _col_index(table: dict[str, Any], column: str) -> int:
    try:
        return table["columns"].index(column)
    except ValueError:
        raise PlanError(f"column {column!r} missing from table "
                        f"{table['columns']}") from None


def apply_table_op(table: dict[str, Any], op: dict[str, Any]
                   ) -> dict[str, Any]:
    """Apply one aggregate/relational op to a materialized table
    (pure and deterministic)."""
    kind = op["kind"]
    rows = table["rows"]
    if kind == "filter":
        ci = _col_index(table, op["column"])
        cmp_fn, value = _CMP[op["cmp"]], op["value"]
        return {"columns": table["columns"],
                "rows": [r for r in rows if cmp_fn(r[ci], value)]}
    if kind == "project":
        idx = [_col_index(table, c) for c in op["columns"]]
        return {"columns": list(op["columns"]),
                "rows": [[r[i] for i in idx] for r in rows]}
    if kind == "topk":
        ci = _col_index(table, op["column"])
        ordered = sorted(rows, key=lambda r: (-r[ci], r[0]))
        return {"columns": table["columns"], "rows": ordered[:op["k"]]}
    if kind == "sample":
        seed = op["seed"]
        ranked = sorted(rows, key=lambda r: (sample_key(r[0], seed),
                                             r[0]))[:op["k"]]
        ranked.sort(key=lambda r: r[0])
        return {"columns": table["columns"], "rows": ranked}
    if kind == "limit":
        return {"columns": table["columns"], "rows": rows[:op["k"]]}
    if kind == "count":
        return {"columns": ["count"], "rows": [[len(rows)]]}
    raise PlanError(f"op {kind!r} is not a table op")  # pragma: no cover


def run_table_phase(table: dict[str, Any],
                    ops: list[dict[str, Any]]) -> dict[str, Any]:
    for op in ops:
        table = apply_table_op(table, op)
    return table


def execute_plan(plan: PhysicalPlan, graph: GraphImage, *,
                 kernel_cache: "dict | None" = None) -> dict[str, Any]:
    """Run a plan end to end against one graph image."""
    table = run_graph_phase(plan, graph, kernel_cache=kernel_cache)
    return run_table_phase(table, plan.table_ops)
