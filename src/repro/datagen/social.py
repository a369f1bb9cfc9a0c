"""Social-network generators: LDBC-style synthetic and Twitter-like.

Paper Table 2, type 1 (social networks): high degree variance, small
shortest-path lengths, large connected components.  Two generators are
needed because Fig. 13 distinguishes their divergence behaviour:

* **Twitter** — "a few vertices with extremely higher degree": celebrity
  hubs attract a huge share of edges; everyone else has small degree.
* **LDBC** — "the unbalanced degree distribution involves more vertices":
  a broad power-law without extreme outliers, plus community structure
  (the LDBC SNB generator correlates friendships with universities/places).
"""

from __future__ import annotations

import numpy as np

from ..core.taxonomy import DataSource
from .spec import GraphSpec


def _powerlaw_degrees(n: int, mean_degree: float, alpha: float,
                      d_min: int, d_max: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Discrete power-law degrees with the requested mean (rescaled)."""
    u = rng.random(n)
    # inverse-CDF sample of a truncated Pareto, then rescale to the mean
    a1 = 1.0 - alpha
    lo, hi = float(d_min), float(d_max)
    deg = (lo ** a1 + u * (hi ** a1 - lo ** a1)) ** (1.0 / a1)
    deg *= mean_degree / deg.mean()
    return np.maximum(1, np.round(deg)).astype(np.int64)


def ldbc(n_vertices: int, seed: int,
         avg_degree: float = 28.8) -> GraphSpec:
    """LDBC SNB-like social graph: broad power-law degrees + communities
    of ~200 vertices, 60 % of edges inside the source's community.

    The default degree reproduces the paper's LDBC-1M average degree
    (28.82M edges / 1M vertices) at the scaled vertex count.
    """
    if n_vertices < 10:
        raise ValueError("n_vertices must be >= 10")
    rng = np.random.default_rng(seed)
    n_comm = max(4, n_vertices // 200)
    community = rng.integers(0, n_comm, n_vertices)
    deg = _powerlaw_degrees(n_vertices, avg_degree, alpha=2.1,
                            d_min=2, d_max=max(8, n_vertices // 10), rng=rng)
    src = np.repeat(np.arange(n_vertices), deg)
    m = len(src)
    # attachment popularity: power-law but bounded (no extreme hubs)
    pop = deg.astype(np.float64)
    pop /= pop.sum()
    in_comm = rng.random(m) < 0.6
    dst = np.empty(m, dtype=np.int64)
    dst[~in_comm] = rng.choice(n_vertices, size=(~in_comm).sum(), p=pop)
    # within-community: pick uniformly among same-community members
    order = np.argsort(community, kind="stable")
    comm_sorted = community[order]
    starts = np.searchsorted(comm_sorted, np.arange(n_comm))
    ends = np.searchsorted(comm_sorted, np.arange(n_comm), side="right")
    ic = np.flatnonzero(in_comm)
    c_of_src = community[src[ic]]
    sizes = ends[c_of_src] - starts[c_of_src]
    # guard: a community of size < 2 falls back to global choice
    ok = sizes > 1
    pick = starts[c_of_src[ok]] + (rng.random(ok.sum())
                                   * sizes[ok]).astype(np.int64)
    dst[ic[ok]] = order[pick]
    if (~ok).any():
        dst[ic[~ok]] = rng.choice(n_vertices, size=(~ok).sum(), p=pop)
    return GraphSpec("LDBC", DataSource.SYNTHETIC, n_vertices,
                     np.column_stack([src, dst]), directed=True,
                     meta={"communities": n_comm, "seed": seed,
                           "avg_degree": avg_degree})


def twitter(n_vertices: int, seed: int,
            avg_degree: float = 7.7) -> GraphSpec:
    """Twitter-like graph: a handful of celebrity hubs plus a light tail.

    35 % of all edge endpoints attach to the top 0.1 % of vertices — the
    "few vertices with extremely higher degree" contrast of Fig. 13.  The
    default degree reproduces the paper's sampled Twitter ratio (85M
    edges / 11M vertices) at scaled size.
    """
    if n_vertices < 100:
        raise ValueError("n_vertices must be >= 100")
    rng = np.random.default_rng(seed)
    m = int(n_vertices * avg_degree)
    n_hubs = max(3, int(n_vertices * 0.001))
    # sources: mildly skewed (active tweeters)
    deg = _powerlaw_degrees(n_vertices, avg_degree, alpha=2.3,
                            d_min=1, d_max=max(8, n_vertices // 20), rng=rng)
    src = np.repeat(np.arange(n_vertices), deg)[:m]
    if len(src) < m:
        src = np.concatenate([src, rng.integers(0, n_vertices,
                                                m - len(src))])
    # destinations: 35 % go to hubs (zipf within hubs), the rest uniform
    to_hub = rng.random(m) < 0.35
    dst = np.empty(m, dtype=np.int64)
    hub_rank = rng.zipf(1.6, size=int(to_hub.sum()))
    dst[to_hub] = np.minimum(hub_rank - 1, n_hubs - 1)
    dst[~to_hub] = rng.integers(0, n_vertices, int((~to_hub).sum()))
    return GraphSpec("Twitter", DataSource.SOCIAL, n_vertices,
                     np.column_stack([src, dst]), directed=True,
                     meta={"n_hubs": n_hubs, "seed": seed,
                           "avg_degree": avg_degree})
