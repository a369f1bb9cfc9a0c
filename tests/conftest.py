"""Shared fixtures for the workload/harness tests."""

import pytest

from repro.datagen import ldbc
from repro.workloads import common_edge_schema, common_vertex_schema


@pytest.fixture(scope="session")
def small_spec():
    """Connected social-style test graph (session-scoped: specs are
    immutable; graphs built from them are not shared)."""
    return ldbc(400, avg_degree=8, seed=5)


@pytest.fixture(scope="session")
def tiny_spec():
    return ldbc(120, avg_degree=5, seed=3)


def build(spec):
    """Materialize a spec with the common workload schemas."""
    return spec.build(vertex_schema=common_vertex_schema(),
                      edge_schema=common_edge_schema())


@pytest.fixture
def small_graph(small_spec):
    return build(small_spec)


@pytest.fixture
def tiny_graph(tiny_spec):
    return build(tiny_spec)
