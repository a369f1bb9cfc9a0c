"""MUNIN-like Bayesian network generator.

The paper's Gibbs workload runs on the MUNIN expert-EMG network:
1041 vertices, 1397 edges, 80592 CPT parameters (Section 5.1).  The real
network is distributed separately; this generator synthesizes a network
with the same vital statistics — node/edge counts, layered diagnostic DAG
shape, mixed arities including high-arity state variables, and a CPT
parameter count within a few percent of 80592 — so the workload exercises
the same CompProp access pattern.
"""

from __future__ import annotations

import numpy as np

from .network import BayesianNetwork

MUNIN_VERTICES = 1041
MUNIN_EDGES = 1397
MUNIN_PARAMS = 80592


def munin_like(n_vertices: int = MUNIN_VERTICES,
               n_edges: int = MUNIN_EDGES,
               target_params: int = MUNIN_PARAMS,
               seed: int = 0) -> BayesianNetwork:
    """Generate a MUNIN-like diagnostic Bayesian network.

    The DAG is layered (diseases -> pathophysiology -> findings), each
    child drawing parents from earlier layers, giving the shallow, sparse
    structure of real diagnostic networks.  Arities are tuned so the total
    CPT parameter count approaches ``target_params``.
    """
    # every non-root v takes at most min(3, v) distinct parents from [0, v)
    capacity = sum(min(3, v) for v in range(1, n_vertices))
    if n_edges > capacity:
        raise ValueError(
            f"n_edges={n_edges} exceeds the {capacity} edges a "
            f"{n_vertices}-vertex layered network can hold "
            "(at most 3 parents per vertex)")
    rng = np.random.default_rng(seed)
    # base arities: mostly small, a tail of high-arity measurement nodes
    arities = rng.choice([2, 3, 4, 5, 7, 10, 21],
                         p=[0.30, 0.25, 0.15, 0.12, 0.09, 0.06, 0.03],
                         size=n_vertices).astype(int)
    bn = BayesianNetwork(arities.tolist())
    # layered parent assignment: vertex v draws parents from [0, v)
    # with preference for recent layers (locality of diagnostic chains)
    edges_left = n_edges
    parent_lists: list[list[int]] = [[] for _ in range(n_vertices)]
    candidates = rng.permutation(n_vertices - 1) + 1   # children (not root 0)
    # first give each non-root a chance of >=1 parent until edges run out
    for v in candidates:
        if edges_left == 0:
            break
        lo = max(0, v - 50)
        p = int(rng.integers(lo, v))
        parent_lists[v].append(p)
        edges_left -= 1
    while edges_left > 0:
        v = int(rng.integers(1, n_vertices))
        if len(parent_lists[v]) >= 3:
            continue
        lo = max(0, v - 50)
        p = int(rng.integers(lo, v))
        if p in parent_lists[v]:
            continue
        parent_lists[v].append(p)
        edges_left -= 1
    for v in range(n_vertices):
        bn.set_parents(v, tuple(parent_lists[v]))

    # tune arities toward the parameter target: shrink the biggest
    # contributors / grow leaves until within 2 %.  A nudge of arities[v]
    # changes only v's family and its children's, so the running total is
    # updated from those instead of being recounted.
    def family(v: int) -> int:
        return int(np.prod([bn.arities[p] for p in bn.parents[v]])) \
            * bn.arities[v]

    fam = [family(v) for v in range(n_vertices)]
    cur = sum(fam)
    for _ in range(20000):
        if abs(cur - target_params) <= target_params * 0.02:
            break
        v = int(rng.integers(0, n_vertices))
        if cur > target_params and bn.arities[v] > 2:
            bn.arities[v] -= 1
        elif cur < target_params and bn.arities[v] < 21:
            bn.arities[v] += 1
        else:
            continue
        for u in (v, *bn.children[v]):
            cur -= fam[u]
            fam[u] = family(u)
            cur += fam[u]
    bn.randomize_cpts(rng, deterministic_fraction=0.3)
    return bn
