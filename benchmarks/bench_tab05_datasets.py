"""Tables 5 & 7 — the dataset suite (four real-world sources + LDBC).

Paper: Twitter (type 1), IBM Knowledge Repo (type 2), IBM Watson Gene
(type 3), CA Road Network (type 4), plus the LDBC synthetic generator;
each source type has the topological features of Table 2.
Measured: generated datasets at the benchmark scale, with the per-source
feature checks that drive Figs. 9/13.
"""

import numpy as np

from benchmarks.conftest import show
from benchmarks.paper import paper_note
from repro.datagen import REGISTRY
from repro.harness import format_table


def test_tab05_dataset_suite(suite, benchmark):
    def generate():
        stats = {}
        for key, spec in suite.datasets.items():
            deg = spec.degrees_undirected()
            stats[key] = (spec.n, spec.m, float(deg.mean()),
                          int(deg.max()), float(np.percentile(deg, 99)))
        return stats

    stats = benchmark(generate)
    rows = []
    for key, entry in REGISTRY.items():
        n, m, mean_d, max_d, p99 = stats[key]
        rows.append([entry.name, entry.source.name,
                     f"{entry.paper_vertices:,}", f"{entry.paper_edges:,}",
                     n, m, mean_d, max_d])
    show(format_table(
        ["dataset", "source", "paper_V", "paper_E", "V", "E",
         "avg_deg", "max_deg"], rows,
        title="Tables 5/7 — dataset suite (paper size vs scaled)")
        + paper_note("type 1: high degree variance; type 2: large "
                     "degrees; type 3: structured modules; type 4: "
                     "regular, small degrees"))

    # Table 2 feature checks
    tw = stats["twitter"]
    ld = stats["ldbc"]
    rd = stats["roadnet"]
    assert tw[3] > 10 * tw[4]            # a few extreme hubs
    assert ld[3] < 15 * ld[4]            # broad skew, no extreme outlier
    assert rd[3] <= 8                    # regular small degrees
    assert stats["knowledge"][3] > 5 * stats["knowledge"][2]
    # edge/vertex ratios stay near the paper's
    for key in ("roadnet", "ldbc"):
        entry = REGISTRY[key]
        paper_ratio = entry.paper_edges / entry.paper_vertices
        ours = stats[key][1] / stats[key][0]
        assert ours == __import__("pytest").approx(paper_ratio, rel=0.5)
