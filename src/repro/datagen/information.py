"""Information-network generator: IBM Knowledge Repo-like bipartite graph.

Paper Table 2, type 2 (information/knowledge networks): large vertex
degrees, large small-hop neighbourhoods.  The IBM Knowledge Repo dataset is
a bipartite user x document graph from an internal document-recommendation
system (154K vertices, 1.72M edges): "an edge represents a particular
document is accessed by a user".
"""

from __future__ import annotations

import numpy as np

from ..core.taxonomy import DataSource
from .spec import GraphSpec


def knowledge_repo(n_vertices: int, seed: int) -> GraphSpec:
    """Bipartite user->document access graph, average degree 11.2.

    Users occupy ids ``[0, n_users)``, documents ``[n_users, n)`` (30 %
    of the vertices).  Document popularity is Zipf(1.4)-distributed (a
    few documents are accessed
    by a large share of users → large degrees, and any two users are two
    hops apart through a popular document → large 2-hop neighbourhoods).
    """
    if n_vertices < 20:
        raise ValueError("n_vertices must be >= 20")
    rng = np.random.default_rng(seed)
    n_docs = max(2, int(n_vertices * 0.3))
    n_users = n_vertices - n_docs
    m = int(n_vertices * 11.2)
    # accesses per user: lognormal (most users read a few, some read many)
    w = rng.lognormal(mean=0.0, sigma=1.0, size=n_users)
    per_user = np.maximum(1, np.round(w * m / w.sum())).astype(np.int64)
    src = np.repeat(np.arange(n_users), per_user)[:m]
    if len(src) < m:
        src = np.concatenate([src, rng.integers(0, n_users, m - len(src))])
    rank = rng.zipf(1.4, size=m)
    dst = n_users + np.minimum(rank - 1, n_docs - 1)
    return GraphSpec("KnowledgeRepo", DataSource.INFORMATION, n_vertices,
                     np.column_stack([src, dst]), directed=True,
                     meta={"n_users": n_users, "n_docs": n_docs,
                           "seed": seed})
