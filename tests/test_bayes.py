"""Unit tests for the Bayesian-network substrate (repro.bayes)."""

import hashlib

import numpy as np
import pytest

from repro.bayes import (
    CPT,
    BayesianNetwork,
    MUNIN_EDGES,
    MUNIN_PARAMS,
    MUNIN_VERTICES,
    deterministic_cpt,
    munin_like,
    random_cpt,
)
from tests.oracles import (
    exact_marginals_brute_force,
    gibbs_sample,
    moral_edges,
    topological_order,
)


class TestCPT:
    def test_row_stochastic_required(self):
        with pytest.raises(ValueError):
            CPT(np.array([[0.5, 0.6]]), ())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CPT(np.array([[1.5, -0.5]]), ())

    def test_shape_must_match_parents(self):
        with pytest.raises(ValueError):
            CPT(np.array([[0.5, 0.5]]), (2,))

    def test_row_indexing_mixed_radix(self):
        table = np.full((6, 2), 0.5)
        c = CPT(table, (2, 3))      # parents: arity 2 then 3
        # last parent varies fastest
        assert c.row_index((0, 0)) == 0
        assert c.row_index((0, 2)) == 2
        assert c.row_index((1, 0)) == 3
        assert c.row_index((1, 2)) == 5

    def test_row_index_validation(self):
        c = CPT(np.full((2, 2), 0.5), (2,))
        with pytest.raises(ValueError):
            c.row_index((2,))
        with pytest.raises(ValueError):
            c.row_index((0, 0))

    def test_prob(self):
        c = CPT(np.array([[0.2, 0.8], [0.9, 0.1]]), (2,))
        assert c.row((0,))[1] == pytest.approx(0.8)
        assert c.row((1,))[0] == pytest.approx(0.9)

    def test_column_is_prob_over_one_parent(self):
        c = random_cpt(3, (2, 4, 3), np.random.default_rng(1))
        for pos, arity in enumerate(c.parent_arities):
            states = [1, 2, 1]
            want = []
            for k in range(arity):
                states[pos] = k
                want.append(c.row(tuple(states))[2])
            states[pos] = arity - 1         # its own entry is ignored
            assert c.column(2, tuple(states), pos).tolist() == want

    def test_n_params(self):
        c = CPT(np.full((6, 3), 1 / 3), (2, 3))
        assert c.n_params == 18

    def test_random_cpt_valid(self):
        rng = np.random.default_rng(0)
        c = random_cpt(4, (2, 2), rng)
        assert c.table.shape == (4, 4)
        assert np.allclose(c.table.sum(axis=1), 1.0)

    def test_deterministic_cpt_peaked(self):
        rng = np.random.default_rng(0)
        c = deterministic_cpt(3, (2,), rng)
        assert (c.table.max(axis=1) > 0.9).all()


class TestBayesianNetwork:
    def _chain(self):
        bn = BayesianNetwork([2, 2, 2])
        bn.set_parents(1, (0,))
        bn.set_parents(2, (1,))
        bn.randomize_cpts(np.random.default_rng(0))
        return bn

    def test_counts(self):
        bn = self._chain()
        assert bn.n == 3
        assert bn.n_edges == 2
        assert bn.edges() == [(0, 1), (1, 2)]

    def test_cycle_rejected(self):
        bn = BayesianNetwork([2, 2])
        bn.set_parents(1, (0,))
        with pytest.raises(ValueError):
            bn.set_parents(0, (1,))

    def test_self_parent_rejected(self):
        bn = BayesianNetwork([2])
        with pytest.raises(ValueError):
            bn.set_parents(0, (0,))

    def test_rejected_set_parents_leaves_network_unchanged(self):
        """Validation comes before mutation: a refused call (cycle,
        self-loop, out-of-range parent late in the tuple) leaves no arc
        behind, and the network stays sortable."""
        bn = BayesianNetwork([2] * 4)
        bn.set_parents(1, (0,))
        bn.set_parents(2, (1,))
        bn.set_parents(3, (1, 2))
        parents = list(bn.parents)
        children = [list(c) for c in bn.children]
        order = topological_order(bn)
        for v, bad in [(0, (2,)),          # 0 -> 1 -> 2 -> 0
                       (1, (0, 3)),        # keeps 0, adds descendant 3
                       (2, (2,)),          # self-loop
                       (3, (0, 1, 7)),     # out of range after two good ones
                       (1, (-1,))]:
            with pytest.raises(ValueError):
                bn.set_parents(v, bad)
            assert bn.parents == parents
            assert bn.children == children
            assert topological_order(bn) == order

    def test_set_parents_replaces_old_arcs(self):
        bn = BayesianNetwork([2] * 3)
        bn.set_parents(2, (0,))
        bn.set_parents(2, (1,))
        assert bn.parents[2] == (1,)
        assert bn.children == [[], [2], []]
        bn.set_parents(0, (2,))             # legal now that 0 -> 2 is gone
        assert topological_order(bn) == [1, 2, 0]

    def test_topological_order(self):
        bn = self._chain()
        order = topological_order(bn)
        assert order.index(0) < order.index(1) < order.index(2)

    def test_cpt_shape_enforced(self):
        bn = BayesianNetwork([2, 3])
        bn.set_parents(1, (0,))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bn.set_cpt(1, random_cpt(2, (2,), rng))   # wrong arity
        with pytest.raises(ValueError):
            bn.set_cpt(1, random_cpt(3, (3,), rng))   # wrong parent arity

    def test_conditional_row_normalized(self):
        bn = self._chain()
        state = np.array([0, 1, 0])
        row = bn.conditional_row(1, state)
        assert row.sum() == pytest.approx(1.0)
        assert (row >= 0).all()

    def test_n_params(self):
        bn = self._chain()
        assert bn.n_params == 2 + 4 + 4


class TestGibbsSampler:
    def _net(self, seed=3):
        rng = np.random.default_rng(seed)
        bn = BayesianNetwork([2, 2, 2])
        bn.set_parents(1, (0,))
        bn.set_parents(2, (0, 1))
        bn.randomize_cpts(rng)
        return bn

    def test_converges_to_exact(self):
        bn = self._net()
        _, marg = gibbs_sample(bn, n_sweeps=4000, burn_in=400, seed=1)
        exact = exact_marginals_brute_force(bn)
        for m, e in zip(marg, exact):
            assert np.allclose(m, e, atol=0.04)

    def test_evidence_clamped(self):
        bn = self._net()
        state, marg = gibbs_sample(bn, evidence={0: 1}, n_sweeps=50,
                                   burn_in=5, seed=2)
        assert state[0] == 1
        assert marg[0][1] == pytest.approx(1.0)

    def test_evidence_changes_marginals(self):
        bn = self._net()
        e0 = exact_marginals_brute_force(bn, evidence={0: 0})
        e1 = exact_marginals_brute_force(bn, evidence={0: 1})
        assert not np.allclose(e0[2], e1[2], atol=1e-3)

    def test_burn_in_validation(self):
        with pytest.raises(ValueError):
            gibbs_sample(self._net(), n_sweeps=5, burn_in=5)

    def test_bad_evidence(self):
        with pytest.raises(ValueError):
            gibbs_sample(self._net(), evidence={0: 5}, n_sweeps=5,
                         burn_in=1)

    def test_deterministic_given_seed(self):
        bn = self._net()
        s1, m1 = gibbs_sample(bn, n_sweeps=30, burn_in=5, seed=9)
        s2, m2 = gibbs_sample(bn, n_sweeps=30, burn_in=5, seed=9)
        assert (s1 == s2).all()
        assert all(np.array_equal(a, b) for a, b in zip(m1, m2))

    def test_brute_force_size_guard(self):
        bn = BayesianNetwork([4] * 12)
        bn.randomize_cpts(np.random.default_rng(0))
        with pytest.raises(ValueError):
            exact_marginals_brute_force(bn)


class TestMoralize:
    def test_marries_parents(self):
        # v-structure 0 -> 2 <- 1: moral graph adds (0, 1)
        assert moral_edges(3, [(0, 2), (1, 2)]) == {(0, 2), (1, 2), (0, 1)}

    def test_chain_unchanged(self):
        assert moral_edges(3, [(0, 1), (1, 2)]) == {(0, 1), (1, 2)}

    def test_many_parents_clique(self):
        edges = moral_edges(4, [(0, 3), (1, 3), (2, 3)])
        assert (0, 1) in edges and (0, 2) in edges and (1, 2) in edges

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            moral_edges(2, [(0, 5)])

    def test_moralize_network(self):
        bn = BayesianNetwork([2] * 3)
        bn.set_parents(2, (0, 1))
        assert (0, 1) in moral_edges(bn.n, bn.edges())


class TestMunin:
    def test_vital_statistics(self):
        bn = munin_like(seed=0)
        assert bn.n == MUNIN_VERTICES
        assert bn.n_edges == MUNIN_EDGES
        assert abs(bn.n_params - MUNIN_PARAMS) <= MUNIN_PARAMS * 0.05

    def test_acyclic_with_cpts(self):
        bn = munin_like(n_vertices=200, n_edges=260, target_params=8000,
                        seed=2)
        topological_order(bn)
        assert all(c is not None for c in bn.cpts)

    def test_deterministic_per_seed(self):
        a = munin_like(n_vertices=100, n_edges=130, target_params=4000,
                       seed=5)
        b = munin_like(n_vertices=100, n_edges=130, target_params=4000,
                       seed=5)
        assert a.parents == b.parents
        assert a.arities == b.arities

    def test_mixed_arities(self):
        bn = munin_like(seed=1)
        assert len(set(bn.arities)) > 3

    def test_infeasible_edge_count_rejected(self):
        """Each non-root v holds at most min(3, v) distinct parents; a
        request beyond that used to spin in the placement loop forever."""
        with pytest.raises(ValueError, match="9 edges"):
            munin_like(n_vertices=5, n_edges=10, target_params=50)
        with pytest.raises(ValueError, match="0 edges"):
            munin_like(n_vertices=1, n_edges=1, target_params=4)

    def test_full_capacity_still_generated(self):
        bn = munin_like(n_vertices=5, n_edges=9, target_params=50, seed=1)
        assert [len(p) for p in bn.parents] == [0, 1, 2, 3, 3]

    # recorded at the commit before the generator was made linear-time
    GOLDEN = {
        (): "8f7add05515e6455dc72b8b112bac46d9f2fa1d174dc4bd253c4362b03cf6c0d",
        (60, 80, 900, 4):
            "28cf0a8aa849a1852778869ac7445668dc2a25a67052b600cbfb4cc32cb8ae0d",
    }

    @pytest.mark.parametrize("args", GOLDEN, ids=["default", "small"])
    def test_generator_output_pinned(self, args):
        """sha256 over arities, parent tuples and CPT bytes: generator
        drift fails here, not only in the benchmark's digests."""
        bn = munin_like(*args)
        h = hashlib.sha256()
        h.update(np.asarray(bn.arities, np.int64).tobytes())
        for v in range(bn.n):
            h.update(np.asarray((v, len(bn.parents[v])) + bn.parents[v],
                                np.int64).tobytes())
        for c in bn.cpts:
            h.update(np.ascontiguousarray(c.table, np.float64).tobytes())
        assert h.hexdigest() == self.GOLDEN[args]

    def test_generator_work_is_linear(self, monkeypatch):
        """Counted, not timed: no topological sort per ``set_parents`` (the
        network has none to call; the sort is a tests/ oracle) and
        products only for the vertex nudged and its children (the
        quadratic generator made 1 041 sorts and 478 278 products)."""
        calls = {"prod": 0}

        def counting(fn, key):
            def wrapper(*a, **kw):
                calls[key] += 1
                return fn(*a, **kw)
            return wrapper

        assert not hasattr(BayesianNetwork, "topological_order")
        monkeypatch.setattr(np, "prod", counting(np.prod, "prod"))
        munin_like()
        assert 0 < calls["prod"] < 10_000
