"""Work partitioning across cores/threads.

The paper's CPU runs pin one thread per hardware core (Section 5.1) and
partition work by vertices or edges.  Partition quality — how evenly the
per-vertex work (≈ degree) spreads — determines the parallel efficiency of
the 16-core baseline in Fig. 12, exactly like warp-level imbalance does on
the GPU side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Partition:
    """Assignment of ``n`` work items to ``p`` parts."""

    owner: np.ndarray      # part index per item
    p: int

    def loads(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Total weight per part (unit weights by default)."""
        w = (np.ones(len(self.owner))
             if weights is None else np.asarray(weights, dtype=np.float64))
        return np.bincount(self.owner, weights=w, minlength=self.p)

    def imbalance(self, weights: np.ndarray | None = None) -> float:
        """max/mean load ratio (1.0 = perfectly balanced)."""
        loads = self.loads(weights)
        mean = loads.mean()
        return float(loads.max() / mean) if mean > 0 else 1.0


def block_partition(n: int, p: int) -> Partition:
    """Contiguous ranges of ``n/p`` items (the default vertex split)."""
    if p <= 0:
        raise ValueError("p must be positive")
    owner = np.minimum(np.arange(n) * p // max(n, 1), p - 1)
    return Partition(owner.astype(np.int64), p)


def greedy_weighted_partition(weights: np.ndarray, p: int) -> Partition:
    """Longest-processing-time greedy: heaviest item to lightest part.

    The degree-aware split a tuned runtime uses; bounds imbalance at
    4/3 OPT for independent items.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    weights = np.asarray(weights, dtype=np.float64)
    owner = np.zeros(len(weights), dtype=np.int64)
    loads = np.zeros(p)
    for i in np.argsort(-weights):
        part = int(np.argmin(loads))
        owner[i] = part
        loads[part] += weights[i]
    return Partition(owner, p)
