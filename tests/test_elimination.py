"""Tests for exact inference by variable elimination."""

import numpy as np
import pytest

from repro.bayes import BayesianNetwork, munin_like
from tests.oracles import (
    Factor,
    eliminate_marginal,
    exact_marginals,
    exact_marginals_brute_force,
    gibbs_sample,
)


class TestFactor:
    def test_rank_check(self):
        with pytest.raises(ValueError):
            Factor((0, 1), np.zeros(3))

    def test_multiply_disjoint(self):
        f = Factor((0,), np.array([1.0, 2.0]))
        g = Factor((1,), np.array([10.0, 20.0, 30.0]))
        h = f.multiply(g)
        assert h.vars == (0, 1)
        assert h.table.shape == (2, 3)
        assert h.table[1, 2] == 60.0

    def test_multiply_shared_axis(self):
        f = Factor((0, 1), np.arange(6, dtype=float).reshape(2, 3))
        g = Factor((1,), np.array([1.0, 0.0, 2.0]))
        h = f.multiply(g)
        assert h.table[1, 1] == 0.0
        assert h.table[1, 2] == f.table[1, 2] * 2

    def test_multiply_commutes(self):
        rng = np.random.default_rng(0)
        f = Factor((0, 2), rng.random((2, 4)))
        g = Factor((2, 1), rng.random((4, 3)))
        a = f.multiply(g)
        b = g.multiply(f)
        # same values over possibly different axis orders
        perm = [b.vars.index(v) for v in a.vars]
        assert np.allclose(a.table, np.transpose(b.table, perm))

    def test_sum_out(self):
        f = Factor((0, 1), np.arange(6, dtype=float).reshape(2, 3))
        s = f.sum_out(0)
        assert s.vars == (1,)
        assert list(s.table) == [3.0, 5.0, 7.0]
        assert f.sum_out(99) is f

    def test_reduce(self):
        f = Factor((0, 1), np.arange(6, dtype=float).reshape(2, 3))
        r = f.reduce(1, 2)
        assert r.vars == (0,)
        assert list(r.table) == [2.0, 5.0]

    def test_scalar(self):
        assert Factor((), np.array(3.5)).scalar == 3.5
        with pytest.raises(ValueError):
            Factor((0,), np.ones(2)).scalar


def _random_net(n, seed, max_arity=3, window=None):
    """Random sparse net; a parent ``window`` bounds the induced width
    (local chains, like layered diagnostic networks)."""
    rng = np.random.default_rng(seed)
    bn = BayesianNetwork(rng.integers(2, max_arity + 1, n).tolist())
    for v in range(1, n):
        lo = 0 if window is None else max(0, v - window)
        k = int(rng.integers(0, min(v - lo, 3) + 1))
        parents = tuple((lo + rng.choice(v - lo, size=k,
                                         replace=False)).tolist())
        bn.set_parents(v, parents)
    bn.randomize_cpts(rng)
    return bn


class TestEliminationVsBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_evidence(self, seed):
        bn = _random_net(7, seed)
        exact = exact_marginals_brute_force(bn)
        for q in range(bn.n):
            ve = eliminate_marginal(bn, q)
            assert np.allclose(ve, exact[q], atol=1e-9), q

    @pytest.mark.parametrize("seed", range(3))
    def test_with_evidence(self, seed):
        bn = _random_net(6, seed + 10)
        ev = {0: 1, 3: 0}
        exact = exact_marginals_brute_force(bn, evidence=ev)
        for q in range(bn.n):
            ve = eliminate_marginal(bn, q, evidence=ev)
            assert np.allclose(ve, exact[q], atol=1e-9), q

    def test_query_is_evidence(self):
        bn = _random_net(4, 2)
        m = eliminate_marginal(bn, 0, evidence={0: 1})
        assert m[1] == 1.0


class TestEliminationAtScale:
    def test_beyond_brute_force_cap(self):
        """Exact inference on a sparse 200-variable net — far beyond the
        brute-force cap (the point of variable elimination)."""
        bn = _random_net(200, seed=3, max_arity=3, window=6)
        marg = exact_marginals(bn, queries=[0, 50, 199])
        for m in marg.values():
            assert m.sum() == pytest.approx(1.0)
            assert (m >= 0).all()

    def test_width_explosion_raises_cleanly(self):
        """High-arity diagnostic nets (like the real MUNIN) can exceed
        the tractable induced width; the failure must be a clear error,
        not a memory blowup."""
        bn = munin_like(n_vertices=400, n_edges=560, target_params=40000,
                        seed=3)
        try:
            eliminate_marginal(bn, 0,
                               max_factor_entries=100_000)
        except ValueError as e:
            assert "induced width" in str(e)

    def test_gibbs_converges_to_elimination(self):
        """The Gibbs workload's estimates approach the exact marginals on
        a network too big for brute force."""
        bn = _random_net(30, seed=7, max_arity=2)
        _, gibbs = gibbs_sample(bn, n_sweeps=6000, burn_in=500, seed=4)
        for q in (0, 7, 29):
            ve = eliminate_marginal(bn, q)
            assert np.allclose(gibbs[q], ve, atol=0.05), q
