"""GraphSpec: a generated dataset before materialization.

Generators produce a :class:`GraphSpec` (vertex count + edge array +
provenance metadata); the spec can then be materialized as a dynamic
:class:`~repro.core.graph.PropertyGraph`, a CSR or a COO.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.graph import PropertyGraph
from ..core.memmodel import AGED_HEAP, HeapModel
from ..core.properties import EMPTY_SCHEMA, Schema
from ..core.taxonomy import DataSource


@dataclass
class GraphSpec:
    """A dataset: ``n`` vertices, ``edges`` as an (m, 2) int64 array."""

    name: str
    source: DataSource
    n: int
    edges: np.ndarray
    directed: bool = True
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if len(self.edges):
            if self.edges.min() < 0 or self.edges.max() >= self.n:
                raise ValueError(f"{self.name}: edge endpoint out of range")
        # drop self loops and duplicates (generators may produce a few)
        keep = self.edges[:, 0] != self.edges[:, 1]
        e = self.edges[keep]
        key = e[:, 0] * self.n + e[:, 1]
        _, idx = np.unique(key, return_index=True)
        self.edges = e[np.sort(idx)]

    @property
    def m(self) -> int:
        """Number of (deduplicated, loop-free) edges in the spec."""
        return len(self.edges)

    @property
    def seed(self):
        """Generator seed recorded by the dataset factory (None for
        hand-built specs) — part of the dataset's identity for caching."""
        return self.meta.get("seed")

    def identity(self) -> tuple:
        """What makes this dataset itself, for every cache keyed by dataset:
        ``(name, n, m, seed)`` when a generator seed fixes the edges, and
        for a hand-built spec (no seed) additionally a sha-256 of the
        orientation and the edge array — two hand-built graphs of one name
        and size are otherwise indistinguishable."""
        ident = (self.name, int(self.n), int(self.m), self.seed)
        if self.seed is not None:
            return ident
        h = hashlib.sha256(b"d" if self.directed else b"u")
        h.update(np.ascontiguousarray(self.edges).tobytes())
        return ident + (h.hexdigest(),)

    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex (spec edges, before symmetrization)."""
        return np.bincount(self.edges[:, 0], minlength=self.n)

    def degrees_undirected(self) -> np.ndarray:
        """Degree per vertex treating edges as undirected."""
        return (np.bincount(self.edges[:, 0], minlength=self.n)
                + np.bincount(self.edges[:, 1], minlength=self.n))

    # -- materialization ----------------------------------------------------
    def build(self, *, vertex_schema: Schema = EMPTY_SCHEMA,
              edge_schema: Schema = EMPTY_SCHEMA,
              heap: HeapModel = AGED_HEAP) -> PropertyGraph:
        """Materialize as a dynamic vertex-centric graph.

        Uses the aged-heap model by default: characterization graphs stand
        for long-lived graph stores, whose dynamic layout is the point of
        the vertex-centric representation.
        """
        return PropertyGraph.from_edges(
            self.n, self.edges, directed=self.directed,
            vertex_schema=vertex_schema, edge_schema=edge_schema, heap=heap)

    def csr(self):
        """Materialize as CSR (arcs mirrored first if undirected, then
        sorted; a directed spec keeps generation order within a row)."""
        from ..formats.csr import from_arc_keys, from_edge_arrays
        src, dst = self.edges[:, 0], self.edges[:, 1]
        if self.directed:
            return from_edge_arrays(self.n, src, dst)
        return from_arc_keys(self.n, np.concatenate(
            [src * self.n + dst, dst * self.n + src]))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"GraphSpec({self.name!r}, n={self.n}, m={self.m}, "
                f"source={self.source.name}, "
                f"{'directed' if self.directed else 'undirected'})")
