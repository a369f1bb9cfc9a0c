"""Tests for the content-addressed trace store (repro.core.tracestore)
and its harness/resilience/service wiring."""

import dataclasses
import json

import numpy as np
import pytest

from repro.arch.cpu import CPUModel
from repro.arch.machine import SCALED_XEON, TEST_MACHINE
from repro.core.taxonomy import DataSource
from repro.core.tracestore import (
    TRACE_FORMAT_VERSION,
    TraceStore,
)
from repro.datagen import GraphSpec
from repro.datagen.registry import make as make_dataset
from repro.harness.runner import (
    cache_stats,
    characterize,
    clear_cache,
    run_cpu_workload,
)


@pytest.fixture
def spec():
    return make_dataset("ldbc", scale=0.02, seed=0)


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "traces")


class TestKeying:
    def test_key_is_deterministic(self, store, spec):
        assert store.key_for("BFS", spec) == store.key_for("BFS", spec)

    def test_different_seeds_never_collide(self, store):
        a = make_dataset("ldbc", scale=0.02, seed=0)
        b = make_dataset("ldbc", scale=0.02, seed=1)
        assert store.key_for("BFS", a) != store.key_for("BFS", b)

    def test_different_workloads_and_sizes_never_collide(self, store, spec):
        other = make_dataset("ldbc", scale=0.04, seed=0)
        keys = {store.key_for(w, s) for w in ("BFS", "kCore", "CComp")
                for s in (spec, other)}
        assert len(keys) == 6

    def test_seeded_key_is_the_one_existing_stores_hold(self, store, spec):
        """Hand-built specs gained an edge digest; a generated dataset's
        key is byte for byte what it was."""
        assert spec.identity() == ("LDBC", 120, 2539, 0)
        assert store.key_for("BFS", spec) == (
            "71a6bac1f57d3e6212ec6c76aa3b5796"
            "f656ceba10d608059a83a20e034ac354")


class TestHandBuiltSpecsAreTheirEdges:
    """A hand-built ``GraphSpec`` has no seed: two of one name, ``n`` and
    ``m`` used to share the graph cache entry, the ``characterize`` memo
    row and the on-disk trace — the second ran on the first one's graph."""

    @staticmethod
    def _specs():
        return (GraphSpec("mine", DataSource.SYNTHETIC, 5,
                          [[0, 1], [1, 2], [2, 3]]),
                GraphSpec("mine", DataSource.SYNTHETIC, 5,
                          [[0, 4], [4, 3], [3, 2]]))

    def test_identity(self):
        a, b = self._specs()
        assert a.identity()[:4] == b.identity()[:4] == ("mine", 5, 3, None)
        assert a.identity() != b.identity()
        assert a.identity() == self._specs()[0].identity()
        und = GraphSpec("mine", DataSource.SYNTHETIC, 5, a.edges,
                        directed=False)
        assert und.identity() != a.identity()

    def test_shared_graph(self):
        clear_cache()
        a, b = self._specs()
        levels = [run_cpu_workload("BFS", s)[0]
                  .outputs["levels"] for s in (a, b, a)]
        assert levels == [{0: 0, 1: 1, 2: 2, 3: 3}, {0: 0, 4: 1, 3: 2, 2: 3},
                          {0: 0, 1: 1, 2: 2, 3: 3}]

    def test_characterize_memo(self):
        clear_cache()
        a, b = self._specs()
        ra = characterize("CComp", a, with_gpu=False)
        rb = characterize("CComp", b, with_gpu=False)
        assert ra is not rb
        assert ra.result.outputs["comp"] != rb.result.outputs["comp"]
        assert characterize("CComp", a, with_gpu=False) is ra

    def test_trace_store(self, store):
        clear_cache()
        a, b = self._specs()
        assert store.key_for("BFS", a) != store.key_for("BFS", b)
        ran = [run_cpu_workload("BFS", s, trace_store=store)[0].trace
               for s in (a, b)]
        assert (store.stats.stores, store.stats.hits) == (2, 0)
        clear_cache()
        again = TraceStore(store.root)          # a later process
        got = [run_cpu_workload("BFS", s, trace_store=again)[0].trace
               for s in (a, b)]
        assert again.stats.hits == 2
        for fresh, loaded in zip(ran, got):
            assert np.array_equal(fresh.addrs, loaded.addrs)
        # relative to each build's own arena: b's walk visits other structs
        assert not np.array_equal(got[0].addrs - got[0].addrs[0],
                                  got[1].addrs - got[1].addrs[0])


class TestRoundTrip:
    def test_store_load_gives_identical_metrics(self, store, spec):
        result, fresh = run_cpu_workload("BFS", spec, machine=TEST_MACHINE)
        key = store.key_for("BFS", spec)
        store.save(key, result.trace, footprint_bytes=1234,
                   outputs={"depth": 5}, params={"root": 1})
        loaded = store.load(key)
        assert loaded is not None
        for f in ("addrs", "rw", "iat", "acc_region", "branch_sites",
                  "branch_taken", "region_seq", "region_instrs"):
            assert np.array_equal(getattr(result.trace, f),
                                  getattr(loaded.trace, f)), f
        assert loaded.trace.regions == result.trace.regions
        assert loaded.footprint_bytes == 1234
        assert loaded.outputs == {"depth": 5}
        replayed = CPUModel(TEST_MACHINE).run(loaded.trace)
        direct = CPUModel(TEST_MACHINE).run(result.trace)
        assert replayed.summary() == direct.summary()

    def test_missing_key_is_miss(self, store):
        assert store.load("0" * 64) is None
        assert store.stats.misses == 1

    def test_corrupt_sidecar_fails_open(self, store, spec):
        result, _ = run_cpu_workload("BFS", spec, machine=TEST_MACHINE)
        key = store.key_for("BFS", spec)
        store.save(key, result.trace)
        (store.root / f"{key}.json").write_text("{not json")
        assert store.load(key) is None
        assert store.stats.invalid == 1

    def test_format_version_mismatch_fails_open(self, store, spec):
        result, _ = run_cpu_workload("BFS", spec, machine=TEST_MACHINE)
        key = store.key_for("BFS", spec)
        path = store.save(key, result.trace)
        meta = json.loads(path.read_text())
        meta["format_version"] = TRACE_FORMAT_VERSION + 1
        path.write_text(json.dumps(meta))
        assert store.load(key) is None
        assert store.stats.invalid == 1

    @pytest.mark.parametrize("column,damage", [
        ("rw", lambda c: c[:10]),
        ("branch_taken", lambda c: c[:-3]),
        ("iat", lambda c: c[::-1]),
        ("iat", lambda c: c + np.uint64(1 << 40)),
        ("addrs", lambda c: c.astype(np.int64)),
        ("addrs", lambda c: c.reshape(1, -1)),
        ("region_seq", lambda c: c[:-1]),
        ("region_instrs", lambda c: c + np.uint64(1)),
        ("acc_region", lambda c: np.where(np.arange(len(c)) == 5, 999, c)
         .astype(c.dtype)),
        ("region_seq", lambda c: np.where(np.arange(len(c)) == 1, 40, c)
         .astype(c.dtype)),
        ("n_accesses", lambda n: n - 1),
        ("n_instrs", lambda n: None),
    ], ids=["rw-ten-long", "branch_taken-three-short", "iat-reversed",
            "iat-past-n_instrs", "addrs-int64", "addrs-2d",
            "region_seq-one-short", "region_instrs-sum", "acc_region-unknown",
            "region_seq-unknown", "sidecar-n_accesses", "sidecar-n_instrs-null"])
    def test_columns_that_do_not_fit_fail_open(self, store, spec, column,
                                               damage):
        """A stored entry whose columns disagree with each other or with
        the sidecar is a counted miss, not a trace: the replay never
        sees it (``rw`` ten entries long was an ``IndexError`` inside
        ``CPUModel.run``, a reversed ``iat`` a silently wrong answer),
        and the re-run replaces it."""
        fresh, _ = run_cpu_workload("BFS", spec, machine=TEST_MACHINE,
                                    trace_store=store)
        key = store.key_for("BFS", spec)
        npz, sidecar = (store.root / f"{key}.npz",
                        store.root / f"{key}.json")
        if column.startswith("n_"):
            meta = json.loads(sidecar.read_text())
            meta[column] = damage(meta[column])
            sidecar.write_text(json.dumps(meta))
        else:
            with np.load(npz) as data:
                cols = dict(data)
            cols[column] = damage(cols[column])
            np.savez(npz, **cols)
        assert store.load(key) is None
        assert (store.stats.invalid, store.stats.misses) == (1, 2)
        again, _ = run_cpu_workload("BFS", spec, machine=TEST_MACHINE,
                                    trace_store=store)
        assert (store.stats.invalid, store.stats.stores) == (2, 2)
        loaded = store.load(key)
        assert loaded is not None and store.stats.invalid == 2
        assert np.array_equal(loaded.trace.iat, fresh.trace.iat)
        assert np.array_equal(again.trace.rw, fresh.trace.rw)

    def test_len_and_keys(self, store, spec):
        result, _ = run_cpu_workload("BFS", spec, machine=TEST_MACHINE)
        key = store.key_for("BFS", spec)
        assert len(store) == 0
        store.save(key, result.trace)
        assert len(store) == 1
        assert [p.stem for p in store.root.glob("*.json")] == [key]
        assert key in store


class TestHarnessIntegration:
    def test_machine_sweep_executes_once(self, store, spec):
        machines = [TEST_MACHINE, SCALED_XEON]
        for m in machines:
            run_cpu_workload("kCore", spec, machine=m, trace_store=store)
        assert store.stats.stores == 1
        assert store.stats.hits == 1
        # replayed metrics match a fresh execution on the second machine
        _, replayed = run_cpu_workload("kCore", spec, machine=SCALED_XEON,
                                       trace_store=store)
        _, fresh = run_cpu_workload("kCore", spec, machine=SCALED_XEON)
        assert replayed.summary() == fresh.summary()

    def test_a_sweep_walks_each_invariant_stage_once(self, store, spec,
                                                     monkeypatch):
        """The fill's memo seeds the stored entry: over a fill and two
        replays on machines that differ only in the L3, the branch model
        runs once."""
        from repro.arch import cpu
        real, calls = cpu.simulate_branches, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cpu, "simulate_branches", counted)
        l3 = SCALED_XEON.l3
        big = dataclasses.replace(SCALED_XEON, name="big-l3",
                                  l3=dataclasses.replace(l3, size=2 * l3.size))
        for m in (SCALED_XEON, big, SCALED_XEON):
            run_cpu_workload("kCore", spec, machine=m, trace_store=store)
        assert (store.stats.stores, store.stats.hits) == (1, 2)
        assert len(calls) == 1

    def test_characterize_uses_store(self, store, spec):
        clear_cache()
        characterize("BFS", spec, machine=TEST_MACHINE, memo=False,
                     trace_store=store)
        row = characterize("BFS", spec, machine=SCALED_XEON, memo=False,
                           trace_store=store)
        assert store.stats.stores == 1
        assert store.stats.hits == 1
        fresh = characterize("BFS", spec, machine=SCALED_XEON, memo=False)
        assert row.cpu.summary() == fresh.cpu.summary()

    def test_custom_gibbs_bn_bypasses_store(self, store, spec):
        from repro.bayes import munin_like
        bn = munin_like(n_vertices=40, n_edges=60, target_params=500, seed=1)
        run_cpu_workload("Gibbs", spec, machine=TEST_MACHINE,
                         gibbs_bn=bn, trace_store=store)
        assert store.stats.stores == 0
        assert len(store) == 0

    def test_default_store_and_cache_stats(self, store, spec):
        # the store is passed, never installed: by default a run neither
        # reads nor writes one, and the harness caches report only
        # themselves
        run_cpu_workload("BFS", spec, machine=TEST_MACHINE,
                         trace_store=store)
        run_cpu_workload("BFS", spec, machine=SCALED_XEON)
        run_cpu_workload("BFS", spec, machine=SCALED_XEON,
                         trace_store=store)
        assert (store.stats.stores, store.stats.hits,
                store.stats.misses) == (1, 1, 1)
        assert set(cache_stats()) == {"rows", "graphs"}

    def test_replay_span_recorded(self, store, spec):
        from repro.obs import SpanTracer
        from repro.obs.tracing import set_global_tracer
        run_cpu_workload("BFS", spec, machine=TEST_MACHINE,
                         trace_store=store)
        tracer = SpanTracer()
        set_global_tracer(tracer)
        try:
            run_cpu_workload("BFS", spec, machine=SCALED_XEON,
                             trace_store=store)
        finally:
            set_global_tracer(None)
        spans = [s for s in tracer.spans if s.name.startswith("replay:BFS")]
        assert len(spans) == 1
        assert spans[0].args.get("served") == "trace-store"

    def test_service_stats_carry_no_trace_store(self, store, spec):
        # a store's counters are its holder's to read: a service's
        # ``stats`` carries none, however the process ran a store
        from repro.service import GraphService, PoolConfig
        service = GraphService(
            pool_config=PoolConfig(size=1, isolation="inline"))
        try:
            run_cpu_workload("BFS", spec, machine=TEST_MACHINE,
                             trace_store=store)
            run_cpu_workload("BFS", spec, machine=SCALED_XEON,
                             trace_store=store)
            stats = service.stats()
        finally:
            service.pool.shutdown()
        assert "trace_store" not in stats
        assert (store.stats.hits, store.stats.misses) == (1, 1)


class TestResilienceIntegration:
    def test_matrix_cells_carry_store(self, tmp_path):
        from repro.resilience import matrix_cells
        cells = matrix_cells(["BFS"], ["ldbc"], scale=0.02,
                             machine="test", trace_store=str(tmp_path))
        assert cells[0].trace_store == str(tmp_path)
        # not part of identity: old journal records must still match
        assert "trace_store" not in cells[0].cell_id

    def test_run_cell_populates_store(self, tmp_path):
        from repro.resilience.cell import Cell, run_cell
        clear_cache()
        cell = Cell(workload="BFS", dataset="ldbc", scale=0.02,
                    machine="test", trace_store=str(tmp_path / "ts"))
        run_cell(cell)
        assert len(TraceStore(tmp_path / "ts")) == 1

    def test_cell_from_dict_without_store_field(self):
        from repro.resilience.cell import Cell
        cell = Cell.from_dict({"workload": "BFS", "dataset": "ldbc",
                               "scale": 0.02, "seed": 0,
                               "machine": "test", "with_gpu": False})
        assert cell.trace_store is None
