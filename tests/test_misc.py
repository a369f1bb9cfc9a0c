"""Cross-cutting smoke tests: public API surface, undirected datasets
through the harness, and error-path tracer hygiene."""

import numpy as np
import pytest


class TestPublicAPI:
    def test_top_level_exports(self):
        import repro
        assert repro.__version__
        g = repro.PropertyGraph()
        v = g.add_vertex(0)
        assert isinstance(v, repro.Vertex)
        assert isinstance(repro.Schema([repro.Field("x")]),
                          repro.Schema)
        assert repro.ComputationType.COMP_PROP.value == "CompProp"
        assert repro.DataSource.SOCIAL.value == 1

    def test_subpackage_imports(self):
        from repro import arch, bayes, datagen, formats, gpu, harness
        from repro import parallel, workloads
        assert arch.SCALED_XEON.name
        assert len(workloads.WORKLOADS) == 13
        assert len(gpu.GPU_KERNELS) == 8
        assert "ldbc" in datagen.REGISTRY
        assert callable(parallel.project_multicore)
        assert callable(harness.characterize)
        assert callable(formats.to_csr)
        assert callable(bayes.munin_like)


class TestUndirectedDatasetsThroughHarness:
    def test_all_workloads_on_road_network(self):
        from repro.arch.machine import TEST_MACHINE
        from repro.datagen import ca_road
        from repro.harness import run_cpu_workload
        spec = ca_road(200, seed=0)
        for name in ("BFS", "DFS", "SPath", "kCore", "CComp", "TC",
                     "DCentr", "GCons", "GUp", "TMorph"):
            result, metrics = run_cpu_workload(name, spec,
                                               machine=TEST_MACHINE)
            assert metrics.cycles > 0, name

    def test_gcons_undirected_counts_edges_once(self):
        from repro.core.graph import PropertyGraph
        from repro.workloads import (common_edge_schema,
                                     common_vertex_schema, run)
        g = PropertyGraph(common_vertex_schema(), common_edge_schema(),
                          directed=False)
        res = run("GCons", g, n_vertices=3,
                  edges=np.array([[0, 1], [1, 2]]))
        assert res.outputs["n_edges"] == 2
        assert g.num_edges == 4    # two arcs per undirected edge


class TestTracerHygieneOnErrors:
    def test_find_vertex_error_leaves_balanced(self):
        from repro.core.errors import VertexNotFound
        from repro.core.graph import PropertyGraph
        from repro.core.trace import Tracer
        t = Tracer()
        g = PropertyGraph(tracer=t)
        with pytest.raises(VertexNotFound):
            g.find_vertex(1)
        with pytest.raises(VertexNotFound):
            g.delete_vertex(1)
        g.add_vertex(0)
        from repro.core.errors import EdgeNotFound
        with pytest.raises(EdgeNotFound):
            g.find_edge(0, 0)
        assert len(t._rstack) == 1

    def test_workload_error_restores_tracer(self):
        from repro.core.graph import PropertyGraph
        from repro.core.trace import Tracer
        from repro.workloads import (common_edge_schema,
                                     common_vertex_schema, run)
        g = PropertyGraph(common_vertex_schema(), common_edge_schema())
        g.add_vertex(0)
        t = Tracer()
        with pytest.raises(ValueError):
            run("GCons", g, tracer=t, n_vertices=1,
                edges=np.array([[0, 0]]))
        assert g.t is None      # tracer detached despite the error
