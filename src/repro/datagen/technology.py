"""Man-made technology-network generator: CA road-network-like graph.

Paper Table 2, type 4: regular topology, small vertex degrees.  The CA
road network (1.9M nodes, 2.8M undirected edges, avg degree ≈ 2.9) is a
near-planar mesh: intersections connected to a handful of geographic
neighbours, with a huge diameter.  Fig. 12/13 attribute the low GPU branch
divergence on this dataset to its "quite low vertex degrees".
"""

from __future__ import annotations

import numpy as np

from ..core.taxonomy import DataSource
from .spec import GraphSpec


def ca_road(n_vertices: int, seed: int) -> GraphSpec:
    """Perturbed 2-D lattice road network (undirected).

    A ``side x side`` grid (side = ceil(sqrt(n)))'s 4-neighbour edges,
    with 27 % removed (dead ends, rivers) and 2 % as many diagonal
    shortcuts (highways) added.  That drop keeps the giant component and
    lands the average degree near the real network's ~2.9.
    """
    if n_vertices < 16:
        raise ValueError("n_vertices must be >= 16")
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n_vertices)))
    n = side * side
    idx = np.arange(n).reshape(side, side)
    right = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    edges = np.concatenate([right, down])
    keep = rng.random(len(edges)) >= 0.27
    edges = edges[keep]
    n_diag = int(len(edges) * 0.02)
    if n_diag:
        r = rng.integers(0, side - 1, n_diag)
        c = rng.integers(0, side - 1, n_diag)
        diag = np.column_stack([idx[r, c], idx[r + 1, c + 1]])
        edges = np.concatenate([edges, diag])
    # trim to exactly n_vertices by discarding out-of-range endpoints
    keep = (edges < n_vertices).all(axis=1)
    return GraphSpec("CA-RoadNet", DataSource.TECHNOLOGY, n_vertices,
                     edges[keep], directed=False,
                     meta={"side": side, "seed": seed})
