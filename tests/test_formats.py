"""Unit tests for CSR/COO formats and conversions (repro.formats)."""

import numpy as np
import pytest

from repro.core.graph import PropertyGraph
from repro.core.properties import Field, Schema
from repro.core.trace import Tracer
from repro.datagen.registry import REGISTRY, make
from repro.formats import (
    COOGraph,
    CSRGraph,
    compact_ids,
    coo_to_csr,
    csr_to_coo,
    from_csr,
    from_edge_arrays,
    to_coo,
    to_csr,
)
from repro.query.exec import GraphImage


@pytest.fixture
def csr():
    # 0->1, 0->2, 1->2, 3->0
    return from_edge_arrays(4, [0, 0, 1, 3], [1, 2, 2, 0])


class TestCSRValidation:
    def test_row_ptr_must_start_zero(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_row_ptr_must_match_col_len(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([0]))

    def test_row_ptr_monotone(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 0, 0]))

    def test_col_idx_in_range(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_vals_length(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]))


class TestCSRQueries:
    def test_degrees(self, csr):
        assert list(csr.degrees()) == [2, 1, 0, 1]
        assert csr.degree(0) == 2

    def test_neighbors(self, csr):
        assert list(csr.neighbors(0)) == [1, 2]
        assert list(csr.neighbors(2)) == []

    def test_has_edge(self, csr):
        assert csr.has_edge(0, 1)
        assert not csr.has_edge(1, 0)

    def test_edge_values_requires_vals(self, csr):
        with pytest.raises(ValueError):
            csr.edge_values(0)

    def test_edge_values(self):
        c = from_edge_arrays(2, [0], [1], [3.5])
        assert list(c.edge_values(0)) == [3.5]

    def test_reverse(self, csr):
        r = csr.reverse()
        assert list(r.neighbors(2)) == [0, 1]
        assert list(r.neighbors(0)) == [3]
        assert r.m == csr.m

    def test_undirected_symmetric(self, csr):
        u = csr.undirected()
        for v in range(u.n):
            for d in u.neighbors(v):
                assert u.has_edge(int(d), v)

    def test_traced_neighbors(self, csr):
        t = Tracer()
        got = list(csr.traced_neighbors(0, t))
        assert got == [1, 2]
        ft = t.freeze()
        assert ft.n_accesses >= 4   # 2 row_ptr + 2 col loads

    def test_arrays_contiguous_addresses(self, csr):
        assert csr.base_col != csr.base_row
        assert csr.vprop_addr(1) == csr.base_vprop + 8


class TestCOO:
    def test_basic(self):
        c = COOGraph(3, [0, 1], [1, 2])
        assert c.m == 2
        assert list(c.degrees()) == [1, 1, 0]
        assert list(c.in_degrees()) == [0, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            COOGraph(2, [0], [5])
        with pytest.raises(ValueError):
            COOGraph(2, [0, 1], [1])
        with pytest.raises(ValueError):
            COOGraph(2, [0], [1], [1.0, 2.0])

    def test_reversed_edges(self):
        c = COOGraph(3, [0, 1], [1, 2]).reversed_edges()
        assert list(c.src) == [1, 2]
        assert list(c.dst) == [0, 1]


class TestConversions:
    def _graph(self):
        g = PropertyGraph(Schema([Field("x")]),
                          Schema([Field("weight", default=1.0)]))
        for i in range(5):
            g.add_vertex(i)
        for s, d in [(0, 1), (0, 4), (2, 3), (4, 0)]:
            g.add_edge(s, d, weight=float(s + d))
        return g

    def test_to_csr_roundtrip(self):
        g = self._graph()
        csr, ids = to_csr(g)
        assert csr.n == 5
        assert csr.m == 4
        g2 = from_csr(csr)
        assert g2.num_edges == 4
        for v in range(5):
            assert sorted(g2.find_vertex(v).out) == sorted(
                int(d) for d in csr.neighbors(v))

    def test_to_csr_weights(self):
        g = self._graph()
        csr, _ = to_csr(g, weight_prop="weight")
        assert set(csr.edge_values(0)) == {1.0, 4.0}

    def test_to_coo(self):
        g = self._graph()
        coo, ids = to_coo(g)
        assert coo.m == 4
        assert len(ids) == 5

    def test_coo_csr_roundtrip(self):
        coo = COOGraph(4, [3, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0])
        csr = coo_to_csr(coo)
        back = csr_to_coo(csr)
        pairs = sorted(zip(back.src.tolist(), back.dst.tolist()))
        assert pairs == [(0, 1), (1, 2), (3, 0)]

    def test_compact_ids_with_holes(self):
        g = PropertyGraph()
        for i in (10, 3, 7):
            g.add_vertex(i)
        ids, remap = compact_ids(g)
        assert list(ids) == [3, 7, 10]
        assert remap == {3: 0, 7: 1, 10: 2}

    def test_conversion_preserves_tracer(self):
        t = Tracer()
        g = self._graph()
        g.attach_tracer(t)
        n_before = t.n_accesses
        to_csr(g)
        # populate runs untraced, tracer restored afterwards
        assert g.t is t
        assert t.n_accesses == n_before

    def test_deleted_vertices_compact(self):
        g = self._graph()
        g.delete_vertex(2)
        csr, ids = to_csr(g)
        assert csr.n == 4
        assert 2 not in ids


def _mirrored(src, dst):
    return np.concatenate([src, dst]), np.concatenate([dst, src])


def _unique_by_index(n, src, dst):
    # GraphSpec.csr()'s undirected branch and CSRGraph.undirected(), as
    # they were
    _, idx = np.unique(src * n + dst, return_index=True)
    return from_edge_arrays(n, src[idx], dst[idx])


def _sorted_then_diffed(n, key):
    # the query image's builder, as it was
    key = np.sort(key)
    key = key[np.diff(key, prepend=-1) != 0]
    return from_edge_arrays(n, key // n, key % n)


class TestOneSortedCSRBuilder:
    """``GraphSpec.csr()`` (undirected), ``CSRGraph.undirected()`` and
    the query image build the sorted, de-duplicated CSR of a key array
    through one builder; each equals the expression it replaced."""

    @staticmethod
    def _same(got: CSRGraph, want: CSRGraph) -> None:
        assert np.array_equal(got.row_ptr, want.row_ptr)
        assert np.array_equal(got.col_idx, want.col_idx)

    @pytest.mark.parametrize("scale", [0.05, 0.25])
    @pytest.mark.parametrize("dataset", sorted(REGISTRY))
    def test_every_site_equals_its_old_expression(self, dataset, scale):
        spec = make(dataset, scale=scale, seed=0)
        n, src, dst = spec.n, spec.edges[:, 0], spec.edges[:, 1]
        csr = spec.csr()
        if not spec.directed:
            self._same(csr, _unique_by_index(n, *_mirrored(src, dst)))
        rows = np.repeat(np.arange(n), csr.degrees())
        self._same(csr.undirected(),
                   _unique_by_index(n, *_mirrored(rows, csr.col_idx)))
        image = GraphImage.from_spec(spec)
        s, d = (src, dst) if spec.directed else _mirrored(src, dst)
        self._same(image.csr, _sorted_then_diffed(n, s * n + d))
        rows = np.repeat(np.arange(n), image.csr.degrees())
        off = rows != image.csr.col_idx
        s, d = _mirrored(rows[off], image.csr.col_idx[off])
        self._same(image.und, _sorted_then_diffed(n, s * n + d))
