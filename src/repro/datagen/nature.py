"""Nature-network generator: IBM Watson Gene-like biological graph.

Paper Table 2, type 3 (nature/bio/cognitive networks): structured topology,
complex properties.  The Watson Gene dataset (2M vertices, 12.2M edges)
relates genes, chemicals and drugs; Fig. 13 notes that it (like the
knowledge graph) "contains small-size local subgraphs" — tight modules with
few bridges — which keeps traversal frontiers small.
"""

from __future__ import annotations

import numpy as np

from ..core.taxonomy import DataSource
from .spec import GraphSpec

ENTITY_TYPES = ("gene", "chemical", "drug")


def watson_gene(n_vertices: int, seed: int) -> GraphSpec:
    """Modular gene/chemical/drug interaction graph, average degree 6.1.

    Vertices are grouped into modules of ~40 (pathways); all but 3 % of
    edges stay within a module, producing the small local subgraphs of
    the real data.  ``meta['entity_type']``
    carries the per-vertex gene/chemical/drug labels (type-3 networks have
    typed rich properties).
    """
    module_size = 40
    if n_vertices < 2 * module_size:
        raise ValueError("n_vertices must cover at least two modules")
    rng = np.random.default_rng(seed)
    n_modules = n_vertices // module_size
    module = np.minimum(np.arange(n_vertices) // module_size, n_modules - 1)
    m = int(n_vertices * 6.1)
    n_bridge = int(m * 0.03)
    n_local = m - n_bridge
    # local edges: endpoints uniform within the source's module
    src = rng.integers(0, n_vertices, n_local)
    mod_lo = module[src] * module_size
    mod_hi = np.minimum(mod_lo + module_size, n_vertices)
    dst = mod_lo + (rng.random(n_local) * (mod_hi - mod_lo)).astype(np.int64)
    # bridges: uniform global (pathway cross-talk)
    bsrc = rng.integers(0, n_vertices, n_bridge)
    bdst = rng.integers(0, n_vertices, n_bridge)
    edges = np.column_stack([np.concatenate([src, bsrc]),
                             np.concatenate([dst, bdst])])
    etype = rng.choice(len(ENTITY_TYPES), n_vertices,
                       p=[0.55, 0.30, 0.15])
    return GraphSpec("WatsonGene", DataSource.NATURE, n_vertices, edges,
                     directed=True,
                     meta={"module_size": module_size,
                           "n_modules": n_modules,
                           "entity_type": etype, "seed": seed})
