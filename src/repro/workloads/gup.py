"""GUp — graph update (CompDyn).

"Deletes a given list of vertices and related edges from an existing
graph" (Section 4.2).  Deletions hit vertices in random order, unlinking
edge nodes scattered across the aged heap — high write intensity with poor
locality, the opposite end of CompDyn from GCons (Fig. 7 discussion:
"GUp mostly deletes them in a random manner").
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from .base import Workload


class GUp(Workload):
    """Delete a random ``fraction`` of the vertices, drawn with ``seed``,
    from ``g``, including all incident edges."""

    NAME = "GUp"
    CTYPE = ComputationType.COMP_DYN
    CATEGORY = WorkloadCategory.UPDATE
    HAS_GPU = False

    def kernel(self, g: PropertyGraph, t, *, fraction: float = 0.1,
               seed: int = 0) -> dict[str, Any]:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        ids = np.asarray(sorted(g.vertex_ids()))
        k = max(1, int(len(ids) * fraction))
        victims = rng.choice(ids, size=k, replace=False).tolist()
        edges_before = g.num_edges
        deleted = 0
        for vid in victims:
            t.i(4)
            if g.has_vertex(int(vid)):
                g.delete_vertex(int(vid))
                deleted += 1
        return {"deleted_vertices": deleted,
                "deleted_edges": edges_before - g.num_edges,
                "remaining_vertices": g.num_vertices}
