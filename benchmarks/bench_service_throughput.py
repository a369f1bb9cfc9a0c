"""Service throughput: duplicate-heavy traffic through the coalescing and
cache tiers, with crash containment and the metrics-overhead budget.

The serving claim behind `repro.service`: duplicate-heavy traffic (the
industrial regime GraphBIG's System G framing implies — many users, few
distinct heavy queries) executes only its distinct queries — everything
else is answered from the coalescing and cache tiers — and a cell that
crashes mid-run fails only its own requests while concurrent traffic
proceeds.  The crash is patched into the executor's ``run_cell`` from
here, for the one doomed cell; nothing in ``src/`` injects faults.  Absolute serving numbers live in the spine's ``serve_hot``
workload, not here.

Measured: a closed-loop load generator drives 200 requests over a small
workload mix against a live in-process server.  Workers run ``inline`` so
the run exercises the serving tiers rather than subprocess spawn cost.
Results land in ``BENCH_service.json``.

Also measured: metrics overhead, on all-hits traffic — the cheapest
requests the service can serve, hence the regime where per-request
instrumentation cost is most visible.  The asserted estimator is the
projected ratio: the timed per-request instrumentation delta (a real
histogram observe and two counter increments vs the no-ops a
``MetricsRegistry(enabled=False)`` server executes) divided by the
measured per-request CPU cost, which stays deterministic on machines
where an end-to-end A/B swings tens of percent from scheduling noise.  The end-to-end A/B (CPU seconds per
request, instrumented vs no-op registry) is recorded as evidence but
not asserted.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
"""

from __future__ import annotations

import contextlib
import json
import time
import timeit
from pathlib import Path

try:
    from benchmarks.conftest import show
except ModuleNotFoundError:      # standalone: repo root not on sys.path
    def show(text: str) -> None:
        print("\n" + text)
from repro.harness import format_table
from repro.obs import MetricsRegistry
from repro.resilience import Cell, executor
from repro.service import (
    GraphService,
    LoadGenerator,
    PoolConfig,
    ServiceThread,
    schedule,
    workload_mix,
)

REQUESTS = 200
OVERHEAD_REQUESTS = 2000     # all-hits traffic is fast; a short plan
                             # would make the overhead ratio pure noise
CONCURRENCY = 16
WORKERS = 8
SCALE = 0.05
SEED = 0
MIX_WORKLOADS = ("BFS", "CComp", "kCore")
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _service(registry: MetricsRegistry | None = None) -> GraphService:
    return GraphService(
        pool_config=PoolConfig(size=WORKERS, isolation="inline"),
        registry=registry)


@contextlib.contextmanager
def _crashing(doomed: Cell):
    """Crash every run of ``doomed``: the inline executor types the
    exception as a ``crash``, as it would a worker that died."""
    run_cell = executor.run_cell

    def crashing_run_cell(cell, **kw):
        if cell.cell_id == doomed.cell_id:
            raise RuntimeError(f"injected crash in {cell.cell_id}")
        return run_cell(cell, **kw)

    executor.run_cell = crashing_run_cell
    try:
        yield
    finally:
        executor.run_cell = run_cell


def _drive(service: GraphService, plan):
    with ServiceThread(service) as st:
        report = LoadGenerator(st.host, st.port,
                               concurrency=CONCURRENCY).run(plan)
        stats = service.stats()
    return report, stats


def run_service_benchmark() -> dict:
    mix = workload_mix(MIX_WORKLOADS, ("ldbc",), scale=SCALE,
                       machine="test")
    plan = schedule(mix, REQUESTS, seed=SEED)

    report, stats = _drive(_service(), plan)

    # crash containment: crash one cell of the mix and re-drive —
    # exactly that cell's requests fail, typed, on the wire
    doomed = Cell(workload="kCore", dataset="ldbc", scale=SCALE,
                  seed=0, machine="test")
    doomed_count = sum(1 for q in plan
                       if q.params["workload"] == "kCore")
    with _crashing(doomed):
        chaos_report, _ = _drive(_service(), plan)

    # metrics overhead, in two parts.
    #
    # (a) The asserted number: the per-request instrumentation *delta*.
    # On the all-hits path an instrumented server differs from a
    # MetricsRegistry(enabled=False) server by three calls — a real
    # histogram observe and the scheduler's two counter increments
    # (submitted, cache_hits) instead of no-ops (byte/connection
    # counters amortize over a connection's lifetime).  Timing that delta
    # with a tight loop and dividing by the measured per-request CPU cost
    # projects the overhead ratio deterministically: both terms are pure
    # CPU measurements with microsecond-scale bodies, so the projection
    # survives noisy-neighbour machines where an end-to-end A/B
    # (wall-clock or CPU-clock) swings tens of percent run to run.
    #
    # (b) The end-to-end A/B (instrumented vs no-op registry CPU seconds
    # per request over the same all-hits plan) is recorded alongside as
    # evidence but not asserted, for exactly that noise reason.
    warm_plan = schedule(mix, 50, seed=SEED + 1)
    overhead_plan = schedule(mix, OVERHEAD_REQUESTS, seed=SEED)

    def _cpu_us_per_request(registry) -> float:
        with ServiceThread(_service(registry=registry)) as st:
            gen = LoadGenerator(st.host, st.port,
                                concurrency=CONCURRENCY)
            gen.run(warm_plan)                 # fill the caches untimed
            t0 = time.process_time()
            rep = gen.run(overhead_plan)
            cpu_s = time.process_time() - t0
        assert rep.failed == 0, rep.failures_by_kind
        return cpu_s / rep.ok * 1e6

    def _observe_cost_us(registry) -> float:
        lat = registry.histogram(
            "service_request_latency_ms",
            "request handling latency (ms), by op", labels=("op",))
        child = lat.labels(op="run")
        outcomes = registry.counter("scheduler_requests_total",
                                    labels=("outcome",))
        submitted = outcomes.labels(outcome="submitted")
        hits = outcomes.labels(outcome="cache_hits")

        def request() -> None:
            child.observe(1.5)
            submitted.inc()
            hits.inc()

        n = 50_000
        return min(timeit.repeat(request, number=n, repeat=3)) / n * 1e6

    cpu_on = _cpu_us_per_request(MetricsRegistry())
    cpu_off = _cpu_us_per_request(MetricsRegistry(enabled=False))
    delta_us = (_observe_cost_us(MetricsRegistry())
                - _observe_cost_us(MetricsRegistry(enabled=False)))
    projected_ratio = 1.0 + max(0.0, delta_us) / cpu_on

    return {
        "metrics_overhead": {
            "requests": OVERHEAD_REQUESTS,
            "instrument_delta_us_per_request": round(delta_us, 4),
            "cpu_us_per_request_on": round(cpu_on, 3),
            "cpu_us_per_request_off": round(cpu_off, 3),
            "projected_ratio": round(projected_ratio, 4),
            "budget": "projected_ratio <= 1.05 (per-request "
                      "instrumentation delta vs request CPU cost)"},
        "config": {"requests": REQUESTS, "concurrency": CONCURRENCY,
                   "workers": WORKERS, "scale": SCALE, "seed": SEED,
                   "mix": list(MIX_WORKLOADS), "isolation": "inline",
                   "machine": "test"},
        "traffic": report.summary(),
        "scheduler": {s["labels"]["outcome"]: int(s["value"]) for s in
                      stats["metrics"]["scheduler_requests_total"]
                      ["samples"]},
        "chaos": {"requests": chaos_report.requests,
                  "doomed_requests": doomed_count,
                  "failed": chaos_report.failed,
                  "ok": chaos_report.ok,
                  "failures_by_kind": dict(chaos_report.failures_by_kind),
                  "contained": (chaos_report.failed == doomed_count
                                and chaos_report.ok
                                == REQUESTS - doomed_count)},
    }


def _render(results: dict) -> str:
    s = results["traffic"]
    lat = s["latency_ms"]
    return format_table(
        ["ok", "failed", "rps", "p50_ms", "p95_ms", "p99_ms"],
        [[s["ok"], s["failed"], s["throughput_rps"], lat["p50"],
          lat["p95"], lat["p99"]]],
        title="service throughput — duplicate-heavy closed loop")


def test_service_throughput_and_chaos_containment():
    results = run_service_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    show(_render(results)
         + f"\nscheduler: {results['scheduler']}"
         f"\nchaos: {results['chaos']}"
         + f"\nmetrics overhead: {results['metrics_overhead']}")

    assert results["traffic"]["failed"] == 0
    # duplicate-heavy traffic: only the distinct queries execute
    assert results["scheduler"]["executed"] == len(MIX_WORKLOADS)
    assert results["chaos"]["contained"]
    kinds = set(results["chaos"]["failures_by_kind"])
    assert kinds <= {"crash", "retries-exhausted"}
    # instrumentation budget: the per-request instrumentation delta
    # projects to within 5% of the uninstrumented request cost
    assert results["metrics_overhead"]["projected_ratio"] <= 1.05, \
        results["metrics_overhead"]


if __name__ == "__main__":
    results = run_service_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(_render(results))
    print(f"scheduler: {results['scheduler']}")
    print(f"chaos containment: {results['chaos']}")
    print(f"metrics overhead: {results['metrics_overhead']}")
    print(f"wrote {OUT_PATH}")
