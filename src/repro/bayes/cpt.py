"""Conditional probability tables (CPTs) for Bayesian networks.

A CPT for variable X with parents P1..Pk stores, for every combination of
parent states, a categorical distribution over X's states.  These are the
"complex probability tables" the paper names as an example of rich vertex
properties (Section 2, "Framework"): the Gibbs workload's numeric intensity
comes from reading/normalizing CPT rows.
"""

from __future__ import annotations

import numpy as np


class CPT:
    """CPT as a dense ``(n_parent_combos, arity)`` row-stochastic matrix.

    Parent state combinations are linearized in mixed radix with the *last*
    parent varying fastest (C-order), via :meth:`row_index`.
    """

    __slots__ = ("table", "parent_arities", "arity", "_strides")

    def __init__(self, table: np.ndarray, parent_arities: tuple[int, ...]):
        table = np.ascontiguousarray(table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError("CPT table must be 2-D")
        expected = int(np.prod(parent_arities)) if parent_arities else 1
        if table.shape[0] != expected:
            raise ValueError(
                f"CPT has {table.shape[0]} rows, parents imply {expected}")
        if np.any(table < 0):
            raise ValueError("CPT entries must be non-negative")
        sums = table.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("CPT rows must sum to 1")
        self.table = table
        self.parent_arities = tuple(int(a) for a in parent_arities)
        self.arity = table.shape[1]
        strides = []
        acc = 1
        for a in reversed(self.parent_arities):
            strides.append(acc)
            acc *= a
        self._strides = tuple(reversed(strides))

    @property
    def n_params(self) -> int:
        """Number of free-ish parameters (all table entries, as MUNIN's
        80592-parameter count is reported)."""
        return self.table.size

    def row_index(self, parent_states: tuple[int, ...]) -> int:
        """Linear row index of a parent-state combination."""
        if len(parent_states) != len(self.parent_arities):
            raise ValueError("wrong number of parent states")
        idx = 0
        for s, a, st in zip(parent_states, self.parent_arities,
                            self._strides):
            if not 0 <= s < a:
                raise ValueError(f"parent state {s} out of range 0..{a - 1}")
            idx += s * st
        return idx

    def row(self, parent_states: tuple[int, ...]) -> np.ndarray:
        """Distribution over X given parent states (a view)."""
        return self.table[self.row_index(parent_states)]

    def column(self, x: int, parent_states: tuple[int, ...],
               pos: int) -> np.ndarray:
        """P(X = x | parents) for every state of parent ``pos``, the other
        parents held at ``parent_states`` (a strided view)."""
        step = self._strides[pos]
        lo = self.row_index(parent_states) - parent_states[pos] * step
        return self.table[lo:lo + step * self.parent_arities[pos]:step, x]


def random_cpt(arity: int, parent_arities: tuple[int, ...],
               rng: np.random.Generator) -> CPT:
    """Dirichlet-random CPT (each row an independent flat Dirichlet
    draw)."""
    rows = int(np.prod(parent_arities)) if parent_arities else 1
    table = rng.dirichlet(np.ones(arity), size=rows)
    return CPT(table, tuple(parent_arities))


def deterministic_cpt(arity: int, parent_arities: tuple[int, ...],
                      rng: np.random.Generator) -> CPT:
    """Near-deterministic CPT (one dominant outcome per row, the other
    outcomes sharing 5 % noise), as appears in diagnostic networks like
    MUNIN."""
    noise = 0.05
    rows = int(np.prod(parent_arities)) if parent_arities else 1
    table = np.full((rows, arity), noise / max(arity - 1, 1))
    winners = rng.integers(0, arity, rows)
    table[np.arange(rows), winners] = 1.0 - noise
    if arity == 1:
        table[:] = 1.0
    return CPT(table, tuple(parent_arities))
