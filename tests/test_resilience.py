"""Tests for the fault-tolerant characterization runner
(repro.resilience): retry/backoff, checkpoint-resume, subprocess
isolation, and graceful report degradation, each recovery path driven by
a cell fault from ``tests/faults.py``."""

import dataclasses
import json
import math

import pytest

from repro.arch.machine import TEST_MACHINE
from repro.core.errors import (
    CellCrash,
    CellOOM,
    CellTimeout,
    MetricsUnavailable,
    RetriesExhausted,
)
from repro.core.taxonomy import DataSource
from repro.datagen.spec import GraphSpec
from repro.harness import (
    breakdown_table,
    characterize,
    clear_cache,
    cpu_table,
    export_all,
    failure_table,
    gpu_speedup,
    matrix_table,
)
from repro.resilience import (
    Cell,
    CheckpointStore,
    ExecutorConfig,
    RetryPolicy,
    matrix_cells,
    record_to_row,
    run_cell_inline,
    run_cell_once,
    run_cell_resilient,
    run_matrix,
    run_with_retries,
)
from tests.faults import inject

#: Cheap cells: scale 0.03 clamps every registry dataset to 120 vertices.
SCALE = 0.03


def fast_config(retries=2, timeout_s=5.0, isolation="inline", seed=0):
    return ExecutorConfig(
        timeout_s=timeout_s, isolation=isolation,
        policy=RetryPolicy(max_retries=retries, base_delay=0.01,
                           max_delay=0.05, seed=seed))


def cell(workload="BFS", dataset="ldbc", **kw):
    kw.setdefault("scale", SCALE)
    kw.setdefault("machine", "test")
    return Cell(workload, dataset, **kw)


class TestRetryPolicy:
    def test_schedule_deterministic(self):
        p = RetryPolicy(max_retries=4, seed=13)
        assert ([p.delay(a, "cellA") for a in range(1, 5)]
                == [p.delay(a, "cellA") for a in range(1, 5)])

    def test_schedule_decorrelates_cells_and_seeds(self):
        p = RetryPolicy(max_retries=4, seed=13)
        q = RetryPolicy(max_retries=4, seed=14)
        a = [p.delay(i, "cellA") for i in range(1, 5)]
        assert a != [p.delay(i, "cellB") for i in range(1, 5)]
        assert a != [q.delay(i, "cellA") for i in range(1, 5)]

    def test_exponential_growth_with_jitter_bounds(self):
        p = RetryPolicy(max_retries=5, base_delay=0.1, factor=2.0,
                        max_delay=100.0, jitter=0.5, seed=0)
        for i in range(1, 6):
            base = 0.1 * 2.0 ** (i - 1)
            assert base * 0.5 <= p.delay(i, "c") <= base * 1.5

    def test_zero_jitter_is_exact(self):
        p = RetryPolicy(max_retries=3, base_delay=1.0, factor=2.0,
                        max_delay=3.0, jitter=0.0)
        assert [p.delay(a, "c") for a in (1, 2, 3)] == [1.0, 2.0, 3.0]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_flaky_then_success_counts_attempts_and_backoff(self):
        p = RetryPolicy(max_retries=3, base_delay=0.5, jitter=0.5, seed=3)
        calls, slept = [], []

        def attempt(n):
            calls.append(n)
            if n <= 2:
                raise CellCrash("c1", "flaky")
            return "done"

        result, attempts = run_with_retries(attempt, p, "c1",
                                            sleep=slept.append)
        assert result == "done"
        assert attempts == 3
        assert calls == [1, 2, 3]
        assert slept == [p.delay(1, "c1"), p.delay(2, "c1")]

    def test_retries_exhausted_carries_last_failure(self):
        p = RetryPolicy(max_retries=2, base_delay=0.01)

        def attempt(n):
            raise CellOOM("c2", f"attempt {n}")

        with pytest.raises(RetriesExhausted) as ei:
            run_with_retries(attempt, p, "c2", sleep=lambda s: None)
        assert ei.value.attempts == 3
        assert ei.value.last.kind == "oom"
        assert "attempt 3" in ei.value.last.message

    def test_non_cell_errors_propagate_immediately(self):
        p = RetryPolicy(max_retries=5)
        calls = []

        def attempt(n):
            calls.append(n)
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            run_with_retries(attempt, p, "c3", sleep=lambda s: None)
        assert calls == [1]


class TestCheckpoint:
    def test_roundtrip_latest_wins(self, tmp_path):
        cp = CheckpointStore(tmp_path / "j.jsonl")
        assert cp.load() == {}
        cp.append({"kind": "failure", "cell": "a", "workload": "BFS",
                   "dataset": "ldbc", "failure_kind": "crash",
                   "message": "m", "attempts": 3})
        cp.append({"kind": "row", "cell": "b", "workload": "DFS",
                   "dataset": "ldbc", "ctype": "CompStruct"})
        # re-run supersedes the failure
        cp.append({"kind": "row", "cell": "a", "workload": "BFS",
                   "dataset": "ldbc", "ctype": "CompStruct"})
        loaded = cp.load()
        assert loaded["a"]["kind"] == "row"
        assert {c for c, r in loaded.items() if r["kind"] == "row"} == {
            "a", "b"}

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        cp = CheckpointStore(path)
        cp.append({"kind": "row", "cell": "a", "workload": "BFS",
                   "dataset": "ldbc", "ctype": "CompStruct"})
        with open(path, "a") as f:        # crash mid-append
            f.write('{"kind": "row", "cel')
        assert set(cp.load()) == {"a"}
        # journal still appendable after the torn write
        cp.append({"kind": "row", "cell": "c", "workload": "TC",
                   "dataset": "ldbc", "ctype": "CompProp"})
        assert set(cp.load()) == {"a", "c"}

    def test_clear(self, tmp_path):
        cp = CheckpointStore(tmp_path / "j.jsonl")
        cp.append({"kind": "row", "cell": "a"})
        cp.clear()
        assert not cp.path.exists() and cp.load() == {}


class TestInlineMatrix:
    """Every recovery path of the sweep driver, fault-driven, in-process."""

    @pytest.fixture()
    def cells(self):
        return matrix_cells(("BFS", "DCentr"), ("ldbc", "roadnet"),
                            scale=SCALE, machine="test")

    def test_timeout_crash_oom_flaky_matrix(self, cells, tmp_path,
                                            monkeypatch):
        clear_cache()
        hang, crash, oom, flaky = (c.cell_id for c in cells)
        inject(monkeypatch, {hang: ("hang", 0), crash: ("crash", 0),
                             oom: ("oom", 0), flaky: ("crash", 1)})
        cp = CheckpointStore(tmp_path / "sweep.jsonl")
        config = fast_config(retries=2)
        slept = []
        result = run_matrix(cells, config=config, checkpoint=cp,
                            sleep=slept.append)

        assert {f.kind for f in result.failures} == {"timeout", "crash",
                                                     "oom"}
        assert all(f.attempts == 3 for f in result.failures)
        assert [r.workload for r in result.rows] == ["DCentr"]
        assert result.executed == 4 and result.resumed == 0

        # backoff schedule: permanent faults sleep the full per-cell
        # schedule; the flaky cell sleeps only its first delay
        delay = config.policy.delay
        expected = [delay(a, c) for c in (hang, crash, oom) for a in (1, 2)]
        expected.append(delay(1, flaky))
        assert slept == expected

        # checkpoint journals every cell with the right kind + attempts
        loaded = cp.load()
        assert set(loaded) == {c.cell_id for c in cells}
        assert loaded[flaky]["kind"] == "row"
        assert loaded[flaky]["attempts"] == 2
        assert loaded[hang]["failure_kind"] == "timeout"
        assert loaded[crash]["failure_kind"] == "crash"
        assert loaded[oom]["failure_kind"] == "oom"

    def test_resume_reexecutes_only_unfinished(self, cells, tmp_path,
                                               monkeypatch):
        clear_cache()
        crash = cells[0].cell_id
        cp = CheckpointStore(tmp_path / "sweep.jsonl")
        with monkeypatch.context() as mp:
            inject(mp, {crash: ("crash", 0)})
            first = run_matrix(cells, config=fast_config(retries=0),
                               checkpoint=cp, sleep=lambda s: None)
        assert len(first.rows) == 3 and len(first.failures) == 1

        second = run_matrix(cells, config=fast_config(retries=0),
                            checkpoint=cp, resume=True,
                            sleep=lambda s: None)
        assert second.resumed == 3        # completed cells not re-run
        assert second.executed == 1       # only the failed cell re-ran
        assert second.complete and len(second.rows) == 4
        # the journal's latest record for the failed cell is now a row
        assert cp.load()[crash]["kind"] == "row"

    def test_resume_requires_checkpoint(self, cells):
        with pytest.raises(ValueError):
            run_matrix(cells, resume=True)

    def test_no_resume_restarts_journal(self, cells, tmp_path):
        clear_cache()
        cp = CheckpointStore(tmp_path / "sweep.jsonl")
        cp.append({"kind": "row", "cell": "stale"})
        result = run_matrix(cells[:1], config=fast_config(),
                            checkpoint=cp, sleep=lambda s: None)
        assert result.executed == 1
        assert "stale" not in cp.load()


class TestRestoredRows:
    """Checkpointed rows rehydrate into report/export-compatible Rows."""

    @pytest.fixture(scope="class")
    def restored(self):
        clear_cache()
        c = cell("CComp", with_gpu=True)
        record = run_cell_inline(c)
        # simulate a resume: JSON round-trip through the journal format
        return c, json.loads(json.dumps(record)), record

    def test_tables_render(self, restored):
        _, rec, _ = restored
        row = record_to_row(rec)
        assert cpu_table([row])[0][0] == "CComp"
        fractions = breakdown_table([row])[0][2:]
        assert sum(fractions) == pytest.approx(1.0)
        grid = matrix_table([row], metric="ipc")
        assert "CComp" in grid

    def test_gpu_speedup_matches_live(self, restored):
        c, rec, _ = restored
        clear_cache()
        from repro.datagen.registry import make
        live = characterize("CComp", make(c.dataset, scale=c.scale,
                                          seed=c.seed),
                            machine=TEST_MACHINE, with_gpu=True)
        row = record_to_row(rec)
        assert gpu_speedup(row, machine=TEST_MACHINE) == pytest.approx(
            gpu_speedup(live, machine=TEST_MACHINE), rel=1e-6)

    def test_export_partial_matrix(self, restored, tmp_path):
        _, rec, _ = restored
        row = record_to_row(rec)
        failures = [{"workload": "BFS", "dataset": "ldbc",
                     "failure_kind": "timeout", "attempts": 3,
                     "message": "exceeded 1s"}]
        written = export_all([row], tmp_path, failures=failures)
        names = {p.split("/")[-1] for p in written}
        assert "cpu_metrics.csv" in names
        assert "gpu_metrics.csv" in names
        assert "failures.csv" in names
        # the framework view reads the journaled CPU summary: one row per
        # restored cell
        lines = (tmp_path / "framework_fraction.csv").read_text().split()
        assert lines == [
            "workload,dataset,framework_fraction",
            f"CComp,{rec['dataset']},"
            f"{rec['cpu_summary']['framework_fraction']!r}"]
        text = (tmp_path / "failures.csv").read_text()
        assert "timeout" in text

    def test_failure_table_accepts_objects_and_dicts(self, restored):
        from repro.resilience import CellFailure
        obj = CellFailure("id", "BFS", "ldbc", "oom", "boom", 2)
        rows = failure_table([obj, {"workload": "TC", "dataset": "rmat",
                                    "failure_kind": "crash",
                                    "attempts": 1, "message": "m"}])
        assert rows[0][:3] == ["BFS", "ldbc", "oom"]
        assert rows[1][:3] == ["TC", "rmat", "crash"]


class TestRunnerSatellites:
    def test_memo_key_includes_seed(self):
        clear_cache()
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
        s0 = GraphSpec("memo", DataSource.SYNTHETIC, 4, edges,
                       meta={"seed": 0})
        s1 = GraphSpec("memo", DataSource.SYNTHETIC, 4, edges,
                       meta={"seed": 1})
        assert s0.seed == 0 and s1.seed == 1
        r0 = characterize("BFS", s0, machine=TEST_MACHINE)
        r1 = characterize("BFS", s1, machine=TEST_MACHINE)
        assert r0 is not r1
        assert characterize("BFS", s0, machine=TEST_MACHINE) is r0

    def test_memo_key_includes_full_machine_identity(self, tiny_spec):
        clear_cache()
        impostor = dataclasses.replace(TEST_MACHINE, mem_latency=400)
        assert impostor.name == TEST_MACHINE.name
        r0 = characterize("BFS", tiny_spec, machine=TEST_MACHINE)
        r1 = characterize("BFS", tiny_spec, machine=impostor)
        assert r0 is not r1
        assert r1.cpu.cycles > r0.cpu.cycles

    def test_gpu_speedup_typed_error(self, tiny_spec):
        clear_cache()
        row = characterize("DFS", tiny_spec, machine=TEST_MACHINE)
        with pytest.raises(MetricsUnavailable):
            gpu_speedup(row)
        with pytest.raises(ValueError):   # backward-compatible
            gpu_speedup(row)

    def test_gpu_speedup_nan_on_degenerate_cell(self, tiny_spec):
        clear_cache()
        row = characterize("CComp", tiny_spec, machine=TEST_MACHINE,
                           with_gpu=True)
        degenerate = dataclasses.replace(
            row.gpu, t_compute=0.0, t_bandwidth=0.0, t_latency=0.0,
            t_atomic=0.0, t_launch=0.0)
        broken = dataclasses.replace(row, gpu=degenerate)
        assert math.isnan(gpu_speedup(broken, machine=TEST_MACHINE))


@pytest.mark.slow
class TestSubprocessIsolation:
    """Real worker processes: timeouts kill, crashes are contained."""

    def test_hang_hits_wall_clock_timeout(self, monkeypatch):
        c = cell()
        inject(monkeypatch, {c.cell_id: ("hang", 0)})
        with pytest.raises(CellTimeout):
            run_cell_once(c, timeout_s=0.8)

    def test_sigkill_contained_as_crash(self, monkeypatch):
        c = cell()
        inject(monkeypatch, {c.cell_id: ("crash", 0)})
        with pytest.raises(CellCrash) as ei:
            run_cell_once(c, timeout_s=10)
        assert "died" in str(ei.value)

    def test_memoryerror_contained_as_oom(self, monkeypatch):
        c = cell()
        inject(monkeypatch, {c.cell_id: ("oom", 0)})
        with pytest.raises(CellOOM):
            run_cell_once(c, timeout_s=10)

    def test_exception_contained_as_crash(self, monkeypatch):
        c = cell()
        inject(monkeypatch, {c.cell_id: ("raise", 0)})
        with pytest.raises(CellCrash) as ei:
            run_cell_once(c, timeout_s=10)
        assert "RuntimeError: injected raise" in str(ei.value)

    def test_corrupt_payload_detected(self, monkeypatch):
        c = cell()
        inject(monkeypatch, {c.cell_id: ("corrupt", 0)})
        with pytest.raises(CellCrash) as ei:
            run_cell_once(c, timeout_s=30)
        assert "corrupt" in str(ei.value)

    def test_clean_cell_returns_record(self):
        c = cell()
        rec = run_cell_once(c, timeout_s=30)
        assert rec["kind"] == "row" and rec["cell"] == c.cell_id
        assert rec["cpu_summary"]["ipc"] > 0
        assert rec["elapsed_s"] > 0

    def test_flaky_cell_recovers_in_subprocess(self, monkeypatch):
        c = cell()
        inject(monkeypatch, {c.cell_id: ("crash", 1)})
        config = fast_config(retries=1, timeout_s=30, isolation="process")
        record, attempts = run_cell_resilient(c, config=config,
                                              sleep=lambda s: None)
        assert attempts == 2
        assert record["attempts"] == 2

    def test_interrupted_sweep_resumes(self, tmp_path, monkeypatch):
        """Acceptance path: a fault-crashed sweep resumes and completes,
        re-running only the unfinished cell; the permanently hanging cell
        is reported failed while every other cell is populated."""
        cells = matrix_cells(("BFS", "DCentr"), ("ldbc",),
                             scale=SCALE, machine="test")
        hang = cells[0].cell_id
        cp = CheckpointStore(tmp_path / "sweep.jsonl")
        config = fast_config(retries=0, timeout_s=1.0,
                             isolation="process")
        with monkeypatch.context() as mp:
            inject(mp, {hang: ("hang", 0)})
            first = run_matrix(cells, config=config, checkpoint=cp,
                               sleep=lambda s: None)
        assert len(first.rows) == 1 and len(first.failures) == 1
        assert first.failures[0].kind == "timeout"
        # report still renders, hanging cell explicitly marked
        grid = matrix_table(first.rows, first.failures)
        assert "FAILED(timeout)" in grid and "DCentr" in grid

        second = run_matrix(cells, config=config, checkpoint=cp,
                            resume=True, sleep=lambda s: None)
        assert second.resumed == 1 and second.executed == 1
        assert second.complete and len(second.rows) == 2
