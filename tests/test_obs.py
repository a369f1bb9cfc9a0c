"""Tests for the observability subsystem: the metrics registry
(counters, gauges, histograms, labels, collectors, snapshot/delta),
span tracing and its Chrome Trace export, structured JSON logging,
Prometheus exposition, and the live-scrape path end to end (the
``stats`` wire op, the ``repro stats`` CLI, ``--trace-out``)."""

from __future__ import annotations

import asyncio
import io
import json
import logging
import math
import threading
from pathlib import Path

import pytest

from repro.core.errors import MetricError
from repro.obs import (
    JsonFormatter,
    MetricsRegistry,
    SpanTracer,
    counter_total,
    escape_label_value,
    get_logger,
    maybe_span,
    percentile,
    quantile_from_snapshot,
    render_prometheus,
    set_global_tracer,
    setup_logging,
)
from repro.resilience import Cell, ChaosSpec, Fault
from repro.service import (
    CONNECTION_FAILURE_KIND,
    GraphService,
    LoadGenerator,
    PoolConfig,
    Query,
    ServiceClient,
    ServiceThread,
)


# -- nearest-rank percentile (shared with the load generator) ----------------

class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_single_sample_is_every_percentile(self):
        for q in (1, 50, 99, 100):
            assert percentile([7.0], q) == 7.0

    def test_nearest_rank_is_an_observation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 50) == 2.0
        assert percentile(samples, 75) == 3.0
        assert percentile(samples, 76) == 4.0
        assert percentile(samples, 100) == 4.0

    @pytest.mark.parametrize("q", [0, -1, 101])
    def test_out_of_range_q_rejected(self, q):
        with pytest.raises(ValueError):
            percentile([1.0], q)


# -- counters, gauges, labels ------------------------------------------------

class TestCounterGauge:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.dec(2)
        assert g.value == 3.0

    def test_callback_gauge_reads_lazily(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        g = reg.gauge("live", callback=lambda: state["v"])
        state["v"] = 42.0
        assert g.value == 42.0
        with pytest.raises(MetricError):
            g.set(0)

    def test_labels_give_independent_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("ops_total", labels=("op",))
        fam.labels(op="run").inc(3)
        fam.labels(op="ping").inc()
        assert fam.labels(op="run").value == 3.0
        assert fam.labels(op="ping").value == 1.0

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("ops_total", labels=("op",))
        with pytest.raises(MetricError):
            fam.labels(kind="x")
        with pytest.raises(MetricError):
            fam.labels(op="run", extra="y")
        with pytest.raises(MetricError):
            fam.inc()          # labeled family has no unlabeled child

    def test_reregistration_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        assert reg.counter("x_total") is not None   # same shape: fine
        with pytest.raises(MetricError):
            reg.gauge("x_total")
        with pytest.raises(MetricError):
            reg.counter("x_total", labels=("op",))

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x_total", labels=("op",))
        c.labels(op="run").inc()
        c.inc()
        assert reg.snapshot() == {}

    def test_thread_safety_under_concurrent_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        h = reg.histogram("lat_ms", buckets=(1.0, 10.0))
        n_threads, per_thread = 8, 2000

        def work():
            for i in range(per_thread):
                c.inc()
                h.observe(float(i % 12))

        threads = [threading.Thread(target=work)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * per_thread
        assert h.count == n_threads * per_thread
        assert h.bucket_counts()[-1] == ("+Inf", n_threads * per_thread)


# -- histograms --------------------------------------------------------------

class TestHistogram:
    def test_empty_quantile_is_nan(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms")
        assert math.isnan(h.quantile(50))

    def test_single_sample(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", buckets=(1.0, 10.0, 100.0))
        h.observe(7.0)
        for q in (1, 50, 100):
            assert h.quantile(q) == 10.0     # its bucket's upper bound

    def test_overflow_lands_in_inf_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", buckets=(1.0,))
        h.observe(5.0)
        assert h.quantile(50) == float("inf")
        assert h.bucket_counts() == [("1", 0), ("+Inf", 1)]

    def test_quantiles_from_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.6, 5.0, 50.0):
            h.observe(v)
        assert h.quantile(50) == 1.0
        assert h.quantile(75) == 10.0
        assert h.quantile(100) == 100.0
        assert h.sum == pytest.approx(56.1)

    def test_bad_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.histogram("a", buckets=())
        with pytest.raises(MetricError):
            reg.histogram("b", buckets=(1.0, 1.0))

    @pytest.mark.parametrize("q", [0, 101])
    def test_out_of_range_q_rejected(self, q):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(q)

    def test_quantile_from_snapshot_round_trips_json(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", labels=("op",))
        for v in (0.15, 3.0, 3.0, 40.0):
            h.labels(op="run").observe(v)
        snap = json.loads(json.dumps(reg.snapshot()))
        sample = snap["lat_ms"]["samples"][0]
        assert quantile_from_snapshot(sample, 50) == 5.0
        assert quantile_from_snapshot(sample, 100) == 50.0
        assert math.isnan(quantile_from_snapshot({"count": 0}, 50))


# -- snapshot / delta / collectors -------------------------------------------

class TestSnapshotDelta:
    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("a_total", labels=("k",)).labels(k="x").inc()
        reg.gauge("g").set(2)
        reg.histogram("h_ms").observe(1.0)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == json.loads(
            json.dumps(snap))
        assert snap["a_total"]["type"] == "counter"
        assert snap["h_ms"]["samples"][0]["count"] == 1

    def test_delta_counts_growth(self):
        reg = MetricsRegistry()
        c = reg.counter("a_total")
        h = reg.histogram("h_ms")
        c.inc(2)
        h.observe(1.0)
        before = reg.snapshot()
        c.inc(3)
        h.observe(2.0)
        d = MetricsRegistry.delta(before, reg.snapshot())
        assert d["a_total"]["samples"][0]["value"] == 3.0
        assert d["h_ms"]["samples"][0]["count"] == 1

    def test_collector_merges_at_snapshot_time(self):
        reg = MetricsRegistry()
        calls = []

        def collect():
            calls.append(1)
            return {"side_total": {
                "type": "counter", "help": "from a collector",
                "samples": [{"labels": {}, "value": 7.0}]}}

        reg.register_collector(collect)
        assert not calls                    # lazy: nothing until snapshot
        snap = reg.snapshot()
        assert snap["side_total"]["samples"][0]["value"] == 7.0
        assert counter_total(snap, "side_total") == 7.0

    def test_counter_total_filters_by_labels(self):
        reg = MetricsRegistry()
        fam = reg.counter("e_total", labels=("tier", "event"))
        fam.labels(tier="rows", event="hits").inc(2)
        fam.labels(tier="rows", event="misses").inc(1)
        fam.labels(tier="datasets", event="hits").inc(5)
        snap = reg.snapshot()
        assert counter_total(snap, "e_total") == 8.0
        assert counter_total(snap, "e_total", tier="rows") == 3.0
        assert counter_total(snap, "e_total", event="hits") == 7.0


# -- Prometheus exposition ---------------------------------------------------

class TestExposition:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests",
                    labels=("op",)).labels(op="run").inc(3)
        reg.gauge("depth", "queue depth").set(2)
        text = render_prometheus(reg.snapshot())
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{op="run"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert text.endswith("\n")

    def test_histogram_exposition_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms", "latency", labels=("op",),
                          buckets=(1.0, 10.0))
        h.labels(op="run").observe(0.5)
        h.labels(op="run").observe(5.0)
        text = render_prometheus(reg.snapshot())
        assert 'lat_ms_bucket{op="run",le="1"} 1' in text
        assert 'lat_ms_bucket{op="run",le="10"} 2' in text
        assert 'lat_ms_bucket{op="run",le="+Inf"} 2' in text
        assert 'lat_ms_sum{op="run"} 5.5' in text
        assert 'lat_ms_count{op="run"} 2' in text

    def test_label_values_escaped(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("k",)).labels(k='say "hi"').inc()
        assert 'x_total{k="say \\"hi\\""} 1' in render_prometheus(
            reg.snapshot())


# -- span tracing ------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self) -> float:
        return self.t


class TestTracing:
    def test_span_timing_with_injected_clock(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("outer"):
            clock.t += 0.010
            with tracer.span("inner", detail=1):
                clock.t += 0.002
        outer, = tracer.find("outer")
        inner, = tracer.find("inner")
        assert outer.dur_us == pytest.approx(12_000)
        assert inner.dur_us == pytest.approx(2_000)
        assert inner.parent == "outer" and inner.depth == 1
        assert tracer.children_of("outer") == [inner]

    def test_raising_span_tagged_with_error(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        span, = tracer.find("doomed")
        assert span.args["error"] == "RuntimeError"

    def test_body_annotates_args(self):
        tracer = SpanTracer()
        with tracer.span("req") as args:
            args["served"] = "cache"
        assert tracer.find("req")[0].args["served"] == "cache"

    def test_chrome_trace_schema(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock, process_name="test-proc")
        with tracer.span("a"):
            clock.t += 0.001
        doc = json.loads(json.dumps(tracer.to_chrome_trace()))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        completes = [e for e in events if e["ph"] == "X"]
        assert {e["ph"] for e in events} == {"M", "X"}
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "test-proc" for e in metas)
        assert any(e["name"] == "thread_name" for e in metas)
        (span,) = completes
        assert span["name"] == "a" and span["cat"] == "repro"
        assert span["dur"] == pytest.approx(1_000)
        assert isinstance(span["ts"], (int, float))
        assert isinstance(span["pid"], int)
        assert isinstance(span["tid"], int)

    def test_write_chrome_trace(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert any(e.get("name") == "a" for e in doc["traceEvents"])

    def test_per_thread_nesting(self):
        tracer = SpanTracer()

        def worker():
            with tracer.span("w"):
                pass

        with tracer.span("main"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        w, = tracer.find("w")
        assert w.parent is None and w.depth == 0   # not nested under main
        main, = tracer.find("main")
        assert w.tid != main.tid

    def test_interleaved_tasks_on_one_loop_do_not_nest(self):
        # two requests on one event loop, each its own task: the second
        # opens its span while the first's is still open, and neither
        # nests under the other; a span inside a task still nests under
        # that task's own span across the await
        tracer = SpanTracer()

        async def request(name, entered, go):
            with tracer.span(name):
                entered.set()
                await go.wait()
                with tracer.span(f"inner-{name}"):
                    pass

        async def main():
            a_in, b_in, go = asyncio.Event(), asyncio.Event(), \
                asyncio.Event()
            a = asyncio.create_task(request("a", a_in, go))
            await a_in.wait()
            b = asyncio.create_task(request("b", b_in, go))
            await b_in.wait()
            go.set()
            await asyncio.gather(a, b)

        asyncio.run(main())
        for name in ("a", "b"):
            outer, = tracer.find(name)
            assert (outer.parent, outer.depth) == (None, 0)
            inner, = tracer.find(f"inner-{name}")
            assert (inner.parent, inner.depth) == (name, 1)

    def test_maybe_span_without_tracer_is_noop(self):
        with maybe_span(None, "x", a=1) as args:
            assert args == {"a": 1}

    def test_maybe_span_falls_back_to_global(self):
        tracer = SpanTracer()
        set_global_tracer(tracer)
        try:
            with maybe_span(None, "g"):
                pass
        finally:
            set_global_tracer(None)
        assert len(tracer.find("g")) == 1


# -- structured logging ------------------------------------------------------

class TestLogs:
    def test_json_formatter_includes_extras(self):
        stream = io.StringIO()
        root = setup_logging("info", json_mode=True, stream=stream)
        try:
            get_logger("service.test").warning(
                "cell %s failed", "BFS:ldbc", extra={"attempts": 3})
        finally:
            for h in list(root.handlers):
                if getattr(h, "_repro_obs", False):
                    root.removeHandler(h)
        rec = json.loads(stream.getvalue())
        assert rec["msg"] == "cell BFS:ldbc failed"
        assert rec["level"] == "warning"
        assert rec["logger"] == "repro.service.test"
        assert rec["attempts"] == 3
        assert "ts" in rec

    def test_setup_is_idempotent(self):
        stream = io.StringIO()
        root = setup_logging("warning", stream=stream)
        root = setup_logging("warning", stream=stream)
        try:
            ours = [h for h in root.handlers
                    if getattr(h, "_repro_obs", False)]
            assert len(ours) == 1
        finally:
            for h in list(root.handlers):
                if getattr(h, "_repro_obs", False):
                    root.removeHandler(h)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            setup_logging("loud")

    def test_exception_serialized(self):
        import sys
        fmt = JsonFormatter()
        try:
            raise ValueError("bad")
        except ValueError:
            record = logging.LogRecord(
                "repro.t", logging.ERROR, __file__, 1, "failed", (),
                exc_info=sys.exc_info())
        rec = json.loads(fmt.format(record))
        assert "ValueError: bad" in rec["exc"]


# -- live scrape: the stats op end to end ------------------------------------

def _inline_service(**kwargs) -> GraphService:
    defaults = dict(pool_config=PoolConfig(size=4, isolation="inline"))
    defaults.update(kwargs)
    return GraphService(**defaults)


class TestStatsScrape:
    def test_stats_op_carries_registry_snapshot(self):
        with ServiceThread(_inline_service()) as st:
            with ServiceClient(st.host, st.port) as c:
                c.ping()
                c.run("BFS", scale=0.02)
                c.run("BFS", scale=0.02)       # second one hits the cache
                with pytest.raises(Exception):
                    c.run("PageRank", scale=0.02)
                stats = c.stats()

        m = stats["metrics"]
        # per-op latency histograms with every request accounted for
        lat = {tuple(sorted(s["labels"].items())): s
               for s in m["service_request_latency_ms"]["samples"]}
        assert lat[(("op", "run"),)]["count"] == 3
        assert lat[(("op", "ping"),)]["count"] == 1
        assert quantile_from_snapshot(lat[(("op", "run"),)], 50) > 0
        # requests_total derives from the same observations
        assert counter_total(m, "service_requests_total", op="run") == 3
        # the bad workload surfaced as a typed error counter
        assert counter_total(m, "service_errors_total",
                             op="run", kind="bad-request") == 1
        # cache hit/miss, scheduler outcomes and pool counters live on
        # the registry alone: no stats key restates a family
        assert counter_total(m, "cache_events_total",
                             tier="rows", event="hits") == 1
        assert counter_total(m, "cache_events_total",
                             tier="rows", event="misses") == 1
        assert counter_total(m, "scheduler_requests_total",
                             outcome="cache_hits") == 1
        assert counter_total(m, "scheduler_requests_total",
                             outcome="submitted") == 2
        # queue depth gauge present (drained by scrape time)
        assert m["scheduler_pending"]["samples"][0]["value"] == 0
        # pool counters, including the worker-restart counter
        assert counter_total(m, "pool_executions_total") == 1
        assert counter_total(m, "pool_worker_restarts_total") == 0
        assert set(stats) == {"protocol", "server", "dynamic", "query",
                              "metrics"}
        assert set(stats["dynamic"]) == {"graphs", "stores", "cache"}
        assert set(stats["query"]) == {"plan_cache", "graph_cache",
                                       "result_cache"}

    def test_metric_families_match_the_recording(self):
        # every family a fixed script leaves on the registry — name,
        # type, label sets, counter and gauge values, histogram counts —
        # is what the tree produced before the report-only counters
        # moved onto the registry (tests/metric_families.py)
        from tests import metric_families
        recorded = json.loads(
            (Path(__file__).parent / "data/metric_families.json")
            .read_text())
        assert metric_families.record() == recorded

    def test_worker_restart_counter_counts_crashes(self):
        doomed = Cell(workload="BFS", dataset="ldbc", scale=0.02,
                      seed=0, machine="scaled")
        chaos = ChaosSpec(faults={doomed.cell_id: Fault("crash")})
        with ServiceThread(_inline_service(chaos=chaos)) as st:
            with ServiceClient(st.host, st.port) as c:
                with pytest.raises(Exception):
                    c.run("BFS", scale=0.02)
                m = c.stats()["metrics"]
        assert counter_total(m, "pool_worker_restarts_total") >= 1
        assert counter_total(m, "pool_failures_total", kind="crash") >= 1

    def test_prometheus_render_of_live_snapshot(self):
        with ServiceThread(_inline_service()) as st:
            with ServiceClient(st.host, st.port) as c:
                c.run("CComp", scale=0.02)
                text = render_prometheus(c.stats()["metrics"])
        assert 'service_request_latency_ms_bucket{op="run",le="+Inf"} 1' \
            in text
        assert "# TYPE scheduler_pending gauge" in text
        assert "# TYPE cache_events_total counter" in text

    def test_stats_cli_scrapes_live_server(self, capsys):
        from repro.cli import main
        with ServiceThread(_inline_service()) as st:
            with ServiceClient(st.host, st.port) as c:
                c.run("BFS", scale=0.02)
            for fmt in ("table", "json", "prom"):
                assert main(["stats", "--port", str(st.port),
                             "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "latency/run" in out                       # table
        assert "scheduler    pending=0 cache_hits=0 coalesced=0 " \
            "executed=1 rejected=0" in out
        assert "pool         executed=1 failed=0 " in out
        assert "cache/rows      hits=0 misses=1 hit_rate=0.0" in out
        assert '"service_request_latency_ms"' in out      # json
        assert "service_bytes_sent_total" in out          # prom

    def test_stats_cli_on_a_router_prints_only_what_it_has(self, capsys):
        from repro.cli import main
        from repro.cluster import ClusterSpec, ClusterThread
        with ClusterThread(ClusterSpec.of(2, datasets=("ldbc",))) as ct:
            with ServiceClient(port=ct.router_port) as c:
                c.run("BFS", "ldbc", scale=0.02, machine="test")
            assert main(["stats", "--port", str(ct.router_port)]) == 0
        out = capsys.readouterr().out
        # the router's own latency family, and no node-only section
        assert "latency/run" in out
        assert "connections" in out and "None" not in out
        for section in ("scheduler", "pool ", "cache/"):
            assert section not in out

    def test_stats_cli_connection_refused_exits_2(self, capsys):
        from repro.cli import main
        with ServiceThread(_inline_service()) as st:
            port = st.port                 # free again after shutdown
        assert main(["stats", "--port", str(port)]) == 2
        assert "error:" in capsys.readouterr().err


# -- load generator hardening ------------------------------------------------

class _FlakyClient:
    """Scripted stand-in for ServiceClient: fail N requests, then serve."""

    def __init__(self, plan):
        self._plan = plan                  # shared mutable failure budget
        self.closed = False

    def request(self, op, **params):
        if self._plan["failures"] > 0:
            self._plan["failures"] -= 1
            raise ConnectionResetError("peer reset")
        return {"served": "cache"}

    def close(self):
        self.closed = True


class TestLoadgenHardening:
    def test_connection_failure_reconnects_and_drains_plan(self):
        plan_state = {"failures": 3}
        made = []

        def factory():
            client = _FlakyClient(plan_state)
            made.append(client)
            return client

        gen = LoadGenerator("127.0.0.1", 1, concurrency=2,
                            client_factory=factory)
        queries = [Query(op="run", params={"workload": "BFS"})
                   for _ in range(10)]
        report = gen.run(queries)
        # every request accounted for: 3 connection failures, 7 ok
        assert report.failed == 3
        assert report.ok == 7
        assert report.failures_by_kind == {CONNECTION_FAILURE_KIND: 3}
        # each failure reconnected: 2 initial + 3 replacements
        assert len(made) == 5
        assert all(c.closed for c in made)

    def test_tracer_tags_failed_requests(self):
        tracer = SpanTracer()
        state = {"failures": 1}          # shared across reconnects
        gen = LoadGenerator(
            "127.0.0.1", 1, concurrency=1, tracer=tracer,
            client_factory=lambda: _FlakyClient(state))
        gen.run([Query(op="run", params={}) for _ in range(2)])
        spans = tracer.find("request:run")
        assert len(spans) == 2
        tags = sorted(s.args.get("failed", s.args.get("served"))
                      for s in spans)
        assert tags == ["cache", CONNECTION_FAILURE_KIND]

    def test_report_zero_elapsed_guard(self):
        from repro.service import LoadReport
        report = LoadReport(requests=0, ok=0, failed=0,
                            failures_by_kind={}, elapsed_s=0.0,
                            latencies_ms=[], served={})
        assert report.throughput_rps == 0.0
        s = report.summary()
        assert s["throughput_rps"] == 0.0
        assert s["latency_ms"]["p50"] is None
        assert "0.0 req/s" in report.format()

    def test_report_percentiles_match_shared_definition(self):
        from repro.service import LoadReport
        lat = sorted([5.0, 1.0, 9.0, 3.0])
        report = LoadReport(requests=4, ok=4, failed=0,
                            failures_by_kind={}, elapsed_s=1.0,
                            latencies_ms=lat, served={"cache": 4})
        assert report.latency_ms(50) == percentile(lat, 50)
        assert report.latency_ms(99) == 9.0


# -- trace plumbing through matrix / harness ---------------------------------

class TestMatrixTracing:
    def test_matrix_cells_and_retries_become_spans(self, tmp_path):
        from repro.resilience import (
            ExecutorConfig,
            RetryPolicy,
            matrix_cells,
            run_matrix,
        )
        cells = matrix_cells(["BFS"], ["ldbc"], scale=0.02,
                             machine="scaled")
        chaos = ChaosSpec(faults={
            cells[0].cell_id: Fault("crash", until_attempt=1)})
        tracer = SpanTracer()
        registry = MetricsRegistry()
        config = ExecutorConfig(
            isolation="inline",
            policy=RetryPolicy(max_retries=2, base_delay=0.0))
        result = run_matrix(cells, config=config, chaos=chaos,
                            sleep=lambda _s: None, tracer=tracer,
                            registry=registry)
        assert result.complete
        cell_span, = tracer.find("cell:")
        assert cell_span.args["attempts"] == 2
        attempts = tracer.children_of(cell_span.name)
        assert [a.name for a in attempts] == ["attempt:1", "attempt:2"]
        assert attempts[0].args["error"] == "CellCrash"
        snap = registry.snapshot()
        assert counter_total(snap, "matrix_cells_total", outcome="ok") == 1
        assert counter_total(snap, "matrix_retries_total") == 1
        # the exported trace is valid Chrome Trace JSON
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" and e["name"].startswith("cell:")
                   for e in doc["traceEvents"])

    def test_matrix_counts_faults_by_kind(self):
        from repro.resilience import (
            ExecutorConfig,
            RetryPolicy,
            matrix_cells,
            run_matrix,
        )
        cells = matrix_cells(["BFS"], ["ldbc"], scale=0.02)
        chaos = ChaosSpec(faults={cells[0].cell_id: Fault("crash")})
        registry = MetricsRegistry()
        config = ExecutorConfig(
            isolation="inline",
            policy=RetryPolicy(max_retries=1, base_delay=0.0))
        result = run_matrix(cells, config=config, chaos=chaos,
                            sleep=lambda _s: None, registry=registry)
        assert not result.complete
        snap = registry.snapshot()
        assert counter_total(snap, "matrix_cells_total",
                             outcome="failed") == 1
        assert counter_total(snap, "matrix_faults_total", kind="crash") == 1

    def test_characterize_spans_nest_under_attempt(self):
        from repro.datagen.registry import make as make_dataset
        from repro.harness import characterize

        tracer = SpanTracer()
        spec = make_dataset("ldbc", scale=0.02, seed=0)
        characterize("BFS", spec, memo=False, tracer=tracer)
        char, = tracer.find("characterize:BFS")
        assert char.args["served"] == "computed"
        cpu, = tracer.find("cpu:BFS")
        assert cpu.parent == char.name

    def test_characterize_memo_hit_tagged(self):
        from repro.datagen.registry import make as make_dataset
        from repro.harness import characterize, clear_cache

        clear_cache()
        spec = make_dataset("ldbc", scale=0.02, seed=1)
        tracer = SpanTracer()
        characterize("BFS", spec, tracer=tracer)
        characterize("BFS", spec, tracer=tracer)
        served = [s.args["served"]
                  for s in tracer.find("characterize:BFS")]
        assert served == ["computed", "memo"]
        clear_cache()
