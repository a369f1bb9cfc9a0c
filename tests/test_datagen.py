"""Unit tests for the dataset generators (repro.datagen).

The generators must reproduce Table 2's per-source topological features —
those features are what drives the data-sensitivity results (Figs. 9, 13).
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.taxonomy import DataSource
from repro.datagen import (
    REGISTRY,
    GraphSpec,
    ca_road,
    knowledge_repo,
    ldbc,
    make,
    rmat,
    twitter,
    watson_gene,
)
from tests.oracles import nx_graph


class TestGraphSpec:
    def test_dedup_and_loops(self):
        s = GraphSpec("t", DataSource.SYNTHETIC, 3,
                      [[0, 1], [0, 1], [2, 2], [1, 2]])
        assert s.m == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GraphSpec("t", DataSource.SYNTHETIC, 2, [[0, 5]])

    def test_build_matches_edges(self):
        s = GraphSpec("t", DataSource.SYNTHETIC, 4, [[0, 1], [2, 3]])
        g = s.build()
        assert g.num_vertices == 4
        assert g.has_edge(0, 1) and g.has_edge(2, 3)

    def test_build_undirected_mirrors(self):
        s = GraphSpec("t", DataSource.SYNTHETIC, 2, [[0, 1]],
                      directed=False)
        g = s.build()
        assert g.has_edge(1, 0)

    def test_csr_symmetrizes_undirected(self):
        s = GraphSpec("t", DataSource.SYNTHETIC, 3, [[0, 1], [1, 2]],
                      directed=False)
        c = s.csr()
        assert c.has_edge(1, 0) and c.has_edge(2, 1)

    def test_nx_roundtrip(self):
        s = GraphSpec("t", DataSource.SYNTHETIC, 4, [[0, 1], [1, 2]])
        nxg = nx_graph(s)
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 2

    def test_degree_helpers(self):
        s = GraphSpec("t", DataSource.SYNTHETIC, 3, [[0, 1], [0, 2]])
        assert list(s.out_degrees()) == [2, 0, 0]
        assert list(s.degrees_undirected()) == [2, 1, 1]


class TestSocialGenerators:
    def test_twitter_hubs_dominate(self):
        spec = twitter(3000, seed=1)
        deg = spec.degrees_undirected()
        # a few extreme-degree vertices (Fig. 13's Twitter signature)
        assert deg.max() > 15 * np.percentile(deg, 99)

    def test_ldbc_broad_skew_without_extreme_hubs(self):
        spec = ldbc(2000, seed=1)
        deg = spec.degrees_undirected()
        # unbalanced, but the imbalance involves many vertices
        assert deg.max() < 15 * np.percentile(deg, 99)
        assert np.percentile(deg, 99) > 3 * np.median(deg)

    def test_ldbc_avg_degree_parameter(self):
        spec = ldbc(2000, avg_degree=10, seed=0)
        assert spec.m == pytest.approx(2000 * 10, rel=0.35)

    def test_ldbc_community_meta(self):
        spec = ldbc(1000, seed=0)
        assert spec.meta["communities"] >= 4

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ldbc(5)
        with pytest.raises(ValueError):
            twitter(50)


class TestOtherGenerators:
    def test_knowledge_bipartite(self):
        spec = knowledge_repo(1500, seed=0)
        n_users = spec.meta["n_users"]
        assert (spec.edges[:, 0] < n_users).all()
        assert (spec.edges[:, 1] >= n_users).all()

    def test_knowledge_popular_docs(self):
        spec = knowledge_repo(1500, seed=0)
        indeg = np.bincount(spec.edges[:, 1], minlength=spec.n)
        assert indeg.max() > 20 * max(np.median(indeg[indeg > 0]), 1)

    def test_watson_modular(self):
        spec = watson_gene(2000, module_size=40, seed=0)
        mod = spec.edges // 40
        local = (mod[:, 0] == mod[:, 1]).mean()
        assert local > 0.9       # small local subgraphs

    def test_watson_entity_types(self):
        spec = watson_gene(2000, seed=0)
        assert len(spec.meta["entity_type"]) == spec.n

    def test_road_small_degrees(self):
        spec = ca_road(1900, seed=0)
        assert not spec.directed
        assert spec.degrees_undirected().max() <= 8
        assert spec.m / spec.n == pytest.approx(1.45, abs=0.3)

    def test_road_giant_component(self):
        import networkx as nx
        spec = ca_road(900, seed=0)
        und = nx.Graph(nx_graph(spec))
        giant = max(len(c) for c in nx.connected_components(und))
        assert giant > 0.9 * spec.n

    def test_road_large_diameter(self):
        import networkx as nx
        spec = ca_road(900, seed=0)
        und = nx.Graph(nx_graph(spec))
        giant = und.subgraph(max(nx.connected_components(und), key=len))
        # a mesh has diameter ~ 2*sqrt(n); social graphs have ~log(n)
        assert nx.eccentricity(giant, v=0) > 2 * np.sqrt(spec.n) / 2

    def test_rmat_skew(self):
        spec = rmat(scale=9, edge_factor=8, seed=0)
        deg = spec.degrees_undirected()
        assert deg.max() > 6 * np.percentile(deg, 90)

    def test_rmat_validation(self):
        with pytest.raises(ValueError):
            rmat(scale=0)
        with pytest.raises(ValueError):
            rmat(a=0.8, b=0.2, c=0.2)

    def test_rmat_deterministic(self):
        a = rmat(scale=8, edge_factor=4, seed=7)
        b = rmat(scale=8, edge_factor=4, seed=7)
        assert np.array_equal(a.edges, b.edges)


class TestRegistry:
    def test_all_sources_covered(self):
        sources = {e.source for e in REGISTRY.values()}
        assert {DataSource.SOCIAL, DataSource.INFORMATION,
                DataSource.NATURE, DataSource.TECHNOLOGY,
                DataSource.SYNTHETIC} <= sources

    def test_make_scales(self):
        small = make("ldbc", scale=0.1, seed=0)
        big = make("ldbc", scale=0.2, seed=0)
        assert big.n > small.n

    def test_make_unknown(self):
        with pytest.raises(KeyError):
            make("nope")

    def test_experiment_datasets_complete(self):
        ds = {name: make(name, scale=0.05) for name in REGISTRY}
        assert set(ds) == set(REGISTRY)
        for spec in ds.values():
            assert spec.n >= 100
            assert spec.m > 0

    def test_paper_sizes_recorded(self):
        assert REGISTRY["twitter"].paper_vertices == 11_000_000
        assert REGISTRY["ldbc"].paper_edges == 28_820_000


@given(st.integers(150, 800), st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_generator_specs_always_valid(n, seed):
    for gen in (ldbc, watson_gene, ca_road):
        spec = gen(max(n, 200), seed=seed)
        assert spec.m > 0
        assert spec.edges.min() >= 0
        assert spec.edges.max() < spec.n
        # dedup holds
        key = spec.edges[:, 0] * spec.n + spec.edges[:, 1]
        assert len(np.unique(key)) == len(key)
