#!/usr/bin/env python
"""Social-network analysis: centralities + community cores on a
Twitter-like graph (the paper's "social analysis" workload category and
data-source type 1).

Finds the influencer accounts three different ways — degree centrality,
betweenness centrality, and k-core membership — and shows how the hub
structure of a social graph drives all three.

Run:  python examples/social_analysis.py
"""

import numpy as np

from repro.datagen import twitter
from repro.workloads import common_edge_schema, common_vertex_schema, run

spec = twitter(n_vertices=2500, avg_degree=8, seed=11)
print(f"dataset: {spec} (hubs: {spec.meta['n_hubs']})")


def fresh():
    return spec.build(vertex_schema=common_vertex_schema(),
                      edge_schema=common_edge_schema())


# --- degree centrality: who has the most connections? -----------------------
dc = run("DCentr", fresh()).outputs["dc"]
top_dc = sorted(dc, key=dc.get, reverse=True)[:5]
print("\ntop-5 by degree centrality:")
for v in top_dc:
    print(f"  user {v:5d}: in+out degree {dc[v]:.0f}")

# --- betweenness centrality: who brokers information flow? ------------------
bc = run("BCentr", fresh(), n_sources=64).outputs["bc"]
top_bc = sorted(bc, key=bc.get, reverse=True)[:5]
print("\ntop-5 by (sampled) betweenness centrality:")
for v in top_bc:
    print(f"  user {v:5d}: bc estimate {bc[v]:.0f}")

# --- k-core: the densely engaged community nucleus --------------------------
res = run("kCore", fresh())
core = res.outputs["core"]
kmax = res.outputs["max_core"]
nucleus = [v for v, k in core.items() if k == kmax]
print(f"\nmax core number: {kmax}; innermost community has "
      f"{len(nucleus)} members")

# --- how the three views overlap --------------------------------------------
hubs = set(top_dc)
print("\noverlap analysis:")
print(f"  degree-top5 ∩ betweenness-top5: "
      f"{len(hubs & set(top_bc))}/5")
print(f"  degree-top5 inside the innermost core: "
      f"{len(hubs & set(nucleus))}/5")

# --- reachability from the biggest hub ---------------------------------------
root = top_dc[0]
bfs = run("BFS", fresh(), root=root).outputs
levels = np.array(list(bfs["levels"].values()))
print(f"\nBFS from hub {root}: reaches {bfs['visited']} of {spec.n} "
      f"users; median hops {np.median(levels):.0f} "
      "(small shortest-path lengths — Table 2's social signature)")
