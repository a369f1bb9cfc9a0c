"""Bayesian network: DAG of categorical variables with CPTs.

The substrate for the Gibbs workload (approximate inference, paper
Table 4) and the TMorph workload (moralization of a DAG into an undirected
moral graph).  Vertices are integers ``0..n-1``; parents are ordered (CPT
row indexing depends on parent order).
"""

from __future__ import annotations

import numpy as np

from .cpt import CPT, deterministic_cpt, random_cpt


class BayesianNetwork:
    """Immutable-topology Bayesian network over categorical variables."""

    def __init__(self, arities: list[int]):
        self.arities = [int(a) for a in arities]
        if any(a < 1 for a in self.arities):
            raise ValueError("arities must be >= 1")
        self.n = len(self.arities)
        self.parents: list[tuple[int, ...]] = [() for _ in range(self.n)]
        self.children: list[list[int]] = [[] for _ in range(self.n)]
        self.cpts: list[CPT | None] = [None] * self.n

    # -- construction --------------------------------------------------------
    def set_parents(self, v: int, parents: tuple[int, ...]) -> None:
        """Assign ``v``'s parent tuple (must keep the graph acyclic).

        Validates before it mutates: a rejected call leaves the network
        exactly as it was.
        """
        parents = tuple(parents)
        for p in parents:
            if not 0 <= p < self.n:
                raise ValueError(f"parent {p} out of range")
        if self._reaches(v, set(parents)):
            raise ValueError(f"setting parents of {v} creates a cycle")
        for p in self.parents[v]:
            self.children[p].remove(v)
        self.parents[v] = parents
        for p in parents:
            self.children[p].append(v)

    def _reaches(self, v: int, targets: set[int]) -> bool:
        """Whether ``v`` or one of its descendants is in ``targets`` —
        an arc ``p -> v`` closes a cycle iff ``v`` already reaches ``p``.
        Walks only ``v``'s descendants."""
        if not targets:
            return False
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            if u in targets:
                return True
            for c in self.children[u]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return False

    def set_cpt(self, v: int, cpt: CPT) -> None:
        """Attach ``v``'s CPT (shape must match arity and parents)."""
        if cpt.arity != self.arities[v]:
            raise ValueError(f"CPT arity {cpt.arity} != {self.arities[v]}")
        expected = tuple(self.arities[p] for p in self.parents[v])
        if cpt.parent_arities != expected:
            raise ValueError(
                f"CPT parents {cpt.parent_arities} != graph {expected}")
        self.cpts[v] = cpt

    def randomize_cpts(self, rng: np.random.Generator,
                       deterministic_fraction: float = 0.0) -> None:
        """Fill every CPT randomly (Dirichlet, with an optional fraction of
        near-deterministic diagnostic-style tables)."""
        for v in range(self.n):
            pa = tuple(self.arities[p] for p in self.parents[v])
            if rng.random() < deterministic_fraction:
                self.set_cpt(v, deterministic_cpt(self.arities[v], pa, rng))
            else:
                self.set_cpt(v, random_cpt(self.arities[v], pa, rng))

    # -- queries -------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return sum(len(p) for p in self.parents)

    @property
    def n_params(self) -> int:
        """Total CPT parameters (MUNIN reports 80592)."""
        return sum(c.n_params for c in self.cpts if c is not None)

    def edges(self) -> list[tuple[int, int]]:
        """Directed (parent -> child) edge list."""
        return [(p, v) for v in range(self.n) for p in self.parents[v]]

    def conditional_row(self, v: int, state: np.ndarray) -> np.ndarray:
        """P(X_v | markov blanket in ``state``), unnormalized then
        normalized — the inner computation of Gibbs sampling."""
        cpt = self.cpts[v]
        pstates = tuple(int(state[p]) for p in self.parents[v])
        probs = cpt.row(pstates).copy()
        for c in self.children[v]:
            cps = tuple(int(state[p]) for p in self.parents[c])
            probs *= self.cpts[c].column(int(state[c]), cps,
                                         self.parents[c].index(v))
        s = probs.sum()
        if s <= 0:
            probs[:] = 1.0 / len(probs)
        else:
            probs /= s
        return probs
