"""Correctness tests for the dynamic-graph workloads and Gibbs."""

import numpy as np
import pytest

from repro import workloads as W
from repro.bayes import munin_like
from repro.core.graph import PropertyGraph
from repro.core.trace import Tracer
from repro.workloads import (
    build_bn_graph,
    common_edge_schema,
    common_vertex_schema,
)
from tests.oracles import gibbs_sample, moral_edges


def empty_graph():
    return PropertyGraph(common_vertex_schema(), common_edge_schema())


class TestGCons:
    def test_builds_requested_graph(self, small_spec):
        g = empty_graph()
        res = W.run("GCons", g, n_vertices=small_spec.n,
                    edges=small_spec.edges)
        assert res.outputs["n_vertices"] == small_spec.n
        assert res.outputs["n_edges"] == small_spec.m
        assert g.num_edges == small_spec.m

    def test_duplicates_skipped(self):
        g = empty_graph()
        res = W.run("GCons", g, n_vertices=3,
                    edges=np.array([[0, 1], [0, 1], [1, 2]]))
        assert res.outputs["n_edges"] == 2

    def test_requires_empty_graph(self):
        g = empty_graph()
        g.add_vertex(0)
        with pytest.raises(ValueError):
            W.run("GCons", g, n_vertices=2, edges=np.array([[0, 1]]))

    def test_properties_initialized(self):
        g = empty_graph()
        W.run("GCons", g, n_vertices=2, edges=np.array([[0, 1]]))
        assert g.vget(0, "level") == 0
        assert g.eget(g.find_edge(0, 1), "weight") == 1.0


class TestGUp:
    def test_explicit_victims(self, small_spec):
        # The victims are the seeded draw the docstring names: exactly
        # those vertices go, and the counts drop by the reported amounts.
        from tests.conftest import build
        g = build(small_spec)
        before_v, before_e = g.num_vertices, g.num_edges
        ids = np.asarray(sorted(g.vertex_ids()))
        k = int(len(ids) * 0.25)
        victims = np.random.default_rng(3).choice(ids, size=k,
                                                  replace=False)
        res = W.run("GUp", g, fraction=0.25, seed=3)
        assert res.outputs["deleted_vertices"] == k
        assert g.num_vertices == before_v - k
        assert g.num_edges == before_e - res.outputs["deleted_edges"]
        for v in victims.tolist():
            assert v not in g

    def test_fraction_sampling(self, small_spec):
        from tests.conftest import build
        g = build(small_spec)
        res = W.run("GUp", g, fraction=0.25, seed=3)
        assert res.outputs["deleted_vertices"] == int(small_spec.n * 0.25)

    def test_bad_fraction(self, small_spec):
        from tests.conftest import build
        g = build(small_spec)
        with pytest.raises(ValueError):
            W.run("GUp", g, fraction=0.0)

    def test_remaining_graph_consistent(self, small_spec):
        from tests.conftest import build
        g = build(small_spec)
        W.run("GUp", g, fraction=0.3, seed=1)
        arcs = sum(len(g.find_vertex(v).out) for v in g.vertex_ids())
        assert arcs == g.num_edges
        for vid in g.vertex_ids():
            for dst in g.find_vertex(vid).out:
                assert dst in g


class TestTMorph:
    def _dag_graph(self, dag_edges, n):
        g = empty_graph()
        for v in range(n):
            g.add_vertex(v)
        for s, d in dag_edges:
            g.add_edge(s, d)
        return g

    def test_v_structure_married(self):
        g = self._dag_graph([(0, 2), (1, 2)], 3)
        res = W.run("TMorph", g)
        assert res.outputs["moral_edges"] == {(0, 1), (0, 2), (1, 2)}
        assert res.outputs["marriages"] == 1

    def test_matches_reference_on_random_dag(self, tiny_spec):
        dag = [(min(s, d), max(s, d)) for s, d in tiny_spec.edges
               if s != d]
        dag = list(dict.fromkeys(dag))
        g = self._dag_graph(dag, tiny_spec.n)
        res = W.run("TMorph", g)
        assert res.outputs["moral_edges"] == moral_edges(tiny_spec.n, dag)

    def test_on_bayes_network_dag(self):
        bn = munin_like(n_vertices=80, n_edges=110, target_params=2000,
                        seed=4)
        g = self._dag_graph(bn.edges(), bn.n)
        res = W.run("TMorph", g)
        assert res.outputs["moral_edges"] == moral_edges(bn.n, bn.edges())

    def test_moral_graph_is_undirected(self):
        g = self._dag_graph([(0, 2), (1, 2)], 3)
        res = W.run("TMorph", g)
        moral = res.outputs["moral_graph"]
        assert moral.has_edge(2, 0) and moral.has_edge(0, 2)

    def test_source_graph_unmodified(self):
        g = self._dag_graph([(0, 2), (1, 2)], 3)
        W.run("TMorph", g)
        assert g.num_edges == 2
        assert not g.has_edge(0, 1)


class TestGibbs:
    def test_matches_reference_sampler(self):
        bn = munin_like(n_vertices=50, n_edges=65, target_params=600,
                        seed=2)
        g = build_bn_graph(bn)
        res = W.run("Gibbs", g, bn=bn, n_sweeps=25, burn_in=5, seed=7)
        _, ref = gibbs_sample(bn, n_sweeps=25, burn_in=5, seed=7)
        for a, b in zip(res.outputs["marginals"], ref):
            assert np.array_equal(a, b)

    def test_evidence_clamped(self):
        bn = munin_like(n_vertices=30, n_edges=40, target_params=300,
                        seed=1)
        g = build_bn_graph(bn)
        res = W.run("Gibbs", g, bn=bn, n_sweeps=10, burn_in=2, seed=0,
                    evidence={0: 0})
        assert res.outputs["state"][0] == 0
        assert res.outputs["marginals"][0][0] == pytest.approx(1.0)

    def test_burn_in_validation(self):
        bn = munin_like(n_vertices=20, n_edges=25, target_params=200,
                        seed=0)
        g = build_bn_graph(bn)
        with pytest.raises(ValueError):
            W.run("Gibbs", g, bn=bn, n_sweeps=5, burn_in=5)

    def test_state_property_updated(self):
        bn = munin_like(n_vertices=20, n_edges=25, target_params=200,
                        seed=0)
        g = build_bn_graph(bn)
        res = W.run("Gibbs", g, bn=bn, n_sweeps=4, burn_in=1, seed=3)
        for v in range(bn.n):
            assert g.vget(v, "state") == res.outputs["state"][v]

    def test_traced_run_compprop_signature(self):
        bn = munin_like(n_vertices=40, n_edges=55, target_params=600,
                        seed=3)
        g = build_bn_graph(bn)
        t = Tracer()
        W.run("Gibbs", g, tracer=t, bn=bn, n_sweeps=4, burn_in=1)
        ft = t.freeze()
        assert ft.n_accesses > 0
        # payload (CPT) traffic dominates vertex-struct traffic
        from repro.core import trace as T
        payload = (ft.acc_region == T.R_PAYLOAD).sum()
        assert payload > 0.15 * ft.n_accesses
