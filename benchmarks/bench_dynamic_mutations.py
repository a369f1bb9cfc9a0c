"""Streaming mutations: incremental kernels vs full recompute, and
sustained write/read serving with a measured staleness bound.

Two claims behind the dynamic subsystem:

* **kernel claim** — maintaining BFS depths and connected components
  through the delta chain is O(delta) per batch, so against small churn
  batches the incremental refresh beats a from-scratch recompute by at
  least ``MIN_SPEEDUP``x (both paths run over the same pinned-snapshot
  machinery; equivalence after every batch is asserted here and
  property-tested in ``tests/test_dynamic.py``).
* **serving claim** — a closed-loop mix of mutation batches and
  ``dyn_query`` reads sustains without the answered versions falling
  behind: the report discloses read/write latency separately and the
  maximum version lag (newest acked commit minus the version a read
  answered at) stays within ``MAX_VERSION_LAG``.

* **commit claim** — a commit costs its batch, not the graph: once the
  store is ``max_versions`` commits old every commit also retires a
  version, and the median commit over the next ``3 x max_versions``
  versions stays within ``MAX_WINDOW_RATIO``x of the median over the
  first ``max_versions`` (61x when compaction walked the whole store).

Shape-not-absolute: thresholds compare the two kernel arms within this
run on this host; seeds pin the churn stream and the plan.  Results
land in ``BENCH_dynamic.json``.

Run standalone (tiny mode for CI smoke)::

    PYTHONPATH=src python benchmarks/bench_dynamic_mutations.py
    REPRO_BENCH_SCALE=0.05 PYTHONPATH=src python benchmarks/bench_dynamic_mutations.py
"""

from __future__ import annotations

import json
import os
import random
import time
from statistics import median
from pathlib import Path
from typing import Any

try:
    from benchmarks.conftest import show
except ModuleNotFoundError:      # standalone: repo root not on sys.path
    def show(text: str) -> None:
        print("\n" + text)
from repro.datagen.registry import make, scaled_vertices
from repro.dynamic import (
    IncrementalBFS,
    IncrementalCComp,
    SnapshotStore,
    churn_ops,
    parse_ops,
)
from repro.harness import format_table
from repro.service import (
    GraphService,
    LoadGenerator,
    PoolConfig,
    ServiceThread,
    schedule,
    workload_mix,
)
from repro.service.loadgen import churn_write_factory

# the suite's one scale knob (benchmarks/conftest.py): below 1 is the
# CI smoke size
TINY = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) < 1

DATASET = "ldbc"
SCALE = 0.05 if TINY else 0.5
SEED = 7
BATCHES = 8 if TINY else 40
BATCH_OPS = 8
MIN_SPEEDUP = 5.0

REQUESTS = 60 if TINY else 300
CONCURRENCY = 4
WRITE_MIX = 0.3
MAX_VERSION_LAG = 64                 # the store's retention window
WINDOW_SCALES = (0.05, 0.5)          # both sizes, whatever TINY says
MAX_WINDOW_RATIO = 3.0
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dynamic.json"


# -- kernel arm: incremental refresh vs forced recompute ---------------------

def _kernel_arm(kernel_cls, **kernel_kw) -> dict[str, Any]:
    spec = make(DATASET, scale=SCALE, seed=SEED)
    store = SnapshotStore.from_spec(spec)
    rng = random.Random(SEED)
    batches = [parse_ops(churn_ops(rng, spec.n, BATCH_OPS))
               for _ in range(BATCHES)]

    maintained = kernel_cls(store, **kernel_kw)
    maintained.refresh()             # initial build is off the clock

    inc_s = rec_s = 0.0
    inc_served: dict[str, int] = {}
    for ops in batches:
        store.commit(ops)
        t0 = time.perf_counter()
        served = maintained.refresh()
        inc_s += time.perf_counter() - t0
        inc_served[served] = inc_served.get(served, 0) + 1
        # the contrast arm: a cold kernel has no synced state, so its
        # refresh is exactly the full-recompute path over the same
        # pinned snapshot
        cold = kernel_cls(store, **kernel_kw)
        t0 = time.perf_counter()
        assert cold.refresh() == "recompute"
        rec_s += time.perf_counter() - t0
        assert maintained.outputs() == cold.outputs()
    speedup = rec_s / inc_s if inc_s > 0 else float("inf")
    return {"kernel": kernel_cls.__name__,
            "batches": BATCHES, "ops_per_batch": BATCH_OPS,
            "incremental_total_s": round(inc_s, 6),
            "recompute_total_s": round(rec_s, 6),
            "speedup": round(speedup, 2),
            "served": inc_served,
            "stats": maintained.stats.as_dict()}


# -- commit arm: the same churn on either side of the retention window -------

def _window_arm(scale: float) -> dict[str, Any]:
    spec = make(DATASET, scale=scale, seed=SEED)
    store = SnapshotStore.from_spec(spec)
    window = store.max_versions
    rng = random.Random(SEED)
    us = []
    for _ in range(4 * window):
        ops = parse_ops(churn_ops(rng, spec.n, BATCH_OPS))
        t0 = time.perf_counter()
        store.commit(ops)
        us.append((time.perf_counter() - t0) * 1e6)
    before, after = median(us[:window]), median(us[window:])
    return {"scale": scale, "vertices": spec.n, "arcs": store.n_arcs,
            "max_versions": window, "commits": len(us),
            "commit_us_before": round(before, 1),
            "commit_us_after": round(after, 1),
            "after_over_before": round(after / before, 2),
            "compactions": store.stats.compactions,
            "spans_folded": store.stats.spans_folded}


# -- serving arm: sustained writes interleaved with versioned reads ----------

def _serving_arm() -> dict[str, Any]:
    mix = workload_mix(("BFS", "CComp"), (DATASET,), scale=SCALE,
                       op="dyn_query")
    factory = churn_write_factory(
        DATASET, scaled_vertices(DATASET, SCALE),
        scale=SCALE, seed=0, batch=BATCH_OPS)
    plan = schedule(mix, REQUESTS, seed=SEED, write_mix=WRITE_MIX,
                    write_factory=factory)
    service = GraphService(
        pool_config=PoolConfig(size=2, isolation="inline"))
    t0 = time.perf_counter()
    with ServiceThread(service) as st:
        report = LoadGenerator(st.host, st.port,
                               concurrency=CONCURRENCY).run(plan)
        dyn = service.stats()["dynamic"]
    wall_s = time.perf_counter() - t0
    summary = report.summary()
    writes = sum(1 for q in plan if q.op == "mutate")
    return {"requests": REQUESTS, "write_mix": WRITE_MIX,
            "writes": writes, "failed": report.failed,
            "wall_s": round(wall_s, 3),
            "mutations_per_s": round(writes / wall_s, 1),
            "read_latency_ms": summary.get("read_latency_ms"),
            "write_latency_ms": summary.get("write_latency_ms"),
            "max_version_lag": summary.get("max_version_lag"),
            "throughput_rps": summary["throughput_rps"],
            "server_dynamic": dyn}


def run_dynamic_benchmark() -> dict[str, Any]:
    bfs = _kernel_arm(IncrementalBFS, root=0)
    comp = _kernel_arm(IncrementalCComp)
    serving = _serving_arm()
    window = [_window_arm(scale) for scale in WINDOW_SCALES]
    return {
        "config": {"dataset": DATASET, "scale": SCALE, "seed": SEED,
                   "batches": BATCHES, "batch_ops": BATCH_OPS,
                   "requests": REQUESTS, "concurrency": CONCURRENCY,
                   "write_mix": WRITE_MIX, "tiny": TINY},
        "methodology": "per-batch: commit churn, time the maintained "
                       "kernel's refresh vs a cold kernel's full "
                       "recompute over the same snapshot; outputs "
                       "asserted equal every batch. serving: "
                       "closed-loop read/write mix, version lag "
                       "measured as acked-head minus answered version. "
                       "window: median commit us over versions "
                       "1..max_versions and over the next "
                       "3*max_versions, same churn stream",
        "kernels": [bfs, comp],
        "serving": serving,
        "commit_window": window,
        "headline": {
            "bfs_speedup": bfs["speedup"],
            "ccomp_speedup": comp["speedup"],
            "speedup_floor": MIN_SPEEDUP,
            "max_version_lag": serving["max_version_lag"],
            "version_lag_ceiling": MAX_VERSION_LAG,
            "window_ratio": max(w["after_over_before"] for w in window),
            "window_ratio_ceiling": MAX_WINDOW_RATIO},
    }


def _render(results: dict) -> str:
    rows = [[k["kernel"], k["batches"], k["incremental_total_s"],
             k["recompute_total_s"], f'{k["speedup"]}x']
            for k in results["kernels"]]
    table = format_table(
        ["kernel", "batches", "incremental_s", "recompute_s", "speedup"],
        rows, title="incremental refresh vs full recompute per batch")
    window = format_table(
        ["scale", "arcs", "window", "v1..w us", "next 3w us", "ratio",
         "compactions", "spans folded"],
        [[w["scale"], w["arcs"], w["max_versions"], w["commit_us_before"],
          w["commit_us_after"], f'{w["after_over_before"]}x',
          w["compactions"], w["spans_folded"]]
         for w in results["commit_window"]],
        title="commit cost across the retention window (median us)")
    s = results["serving"]
    lines = [table, window,
             f"serving: {s['requests']} requests ({s['writes']} writes), "
             f"{s['mutations_per_s']} mutations/s, "
             f"version lag <= {s['max_version_lag']}"]
    if s["read_latency_ms"]:
        lines.append(f"read  p50/p99 ms: {s['read_latency_ms']['p50']}"
                     f"/{s['read_latency_ms']['p99']}")
    if s["write_latency_ms"]:
        lines.append(f"write p50/p99 ms: {s['write_latency_ms']['p50']}"
                     f"/{s['write_latency_ms']['p99']}")
    return "\n".join(lines)


def _check(results: dict) -> None:
    h = results["headline"]
    if not TINY:                     # tiny graphs make timing noise
        assert h["bfs_speedup"] >= MIN_SPEEDUP, h
        assert h["ccomp_speedup"] >= MIN_SPEEDUP, h
    assert results["serving"]["failed"] == 0, results["serving"]
    assert h["max_version_lag"] <= MAX_VERSION_LAG, h
    assert h["window_ratio"] <= MAX_WINDOW_RATIO, results["commit_window"]


def test_dynamic_mutations():
    results = run_dynamic_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    show(_render(results))
    _check(results)


if __name__ == "__main__":
    results = run_dynamic_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(_render(results))
    _check(results)
    print(f"wrote {OUT_PATH}")
