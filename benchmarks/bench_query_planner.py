"""Query planner/executor: plan+result cache leverage, and the router
vs a single node.

Two claims behind the pipeline-DSL subsystem:

* **cache claim** — the content-addressed plan cache plus the
  version-keyed result cache turn a repeated query into a lookup: a
  warm engine answers the same canonical query at least
  ``MIN_CACHE_SPEEDUP``x the throughput of a cold engine that must
  parse, plan, and execute every time (identical answers asserted).
* **router claim** — a query through a 4-shard router (one shard's
  answer, relayed) equals the single node's answer element for
  element; the benchmark reports both latencies so the router hop's
  cost is visible rather than hidden (the point is equivalence and
  disclosed cost, not a speedup).

Shape-not-absolute: thresholds compare arms within this run on this
host; seeds pin the graphs and the query set.  Results land in
``BENCH_query.json``.

Run standalone (tiny mode for CI smoke)::

    PYTHONPATH=src python benchmarks/bench_query_planner.py
    REPRO_BENCH_SCALE=0.05 PYTHONPATH=src python benchmarks/bench_query_planner.py
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

try:
    from benchmarks.conftest import show
except ModuleNotFoundError:      # standalone: repo root not on sys.path
    def show(text: str) -> None:
        print("\n" + text)
from repro.cluster import ClusterSpec, ClusterThread
from repro.harness import format_table
from repro.query import QueryEngine, query_template_pool
from repro.service import (
    GraphService,
    PoolConfig,
    ServiceClient,
    ServiceThread,
)

# the suite's one scale knob (benchmarks/conftest.py): below 1 is the
# CI smoke size
TINY = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) < 1

DATASETS = ("twitter", "roadnet") if TINY else (
    "twitter", "knowledge", "watson", "roadnet", "ldbc")
SCALE = 0.02 if TINY else 0.1
REPEATS = 5 if TINY else 20
SHARDS = 2 if TINY else 4
MIN_CACHE_SPEEDUP = 5.0
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_query.json"

TEMPLATES = query_template_pool(DATASETS, scale=SCALE)


# -- cache arm: warm engine vs cold engine per query -------------------------

def _cache_arm() -> dict[str, Any]:
    warm = QueryEngine()
    for q in TEMPLATES:              # first pass fills every cache
        warm.query({"q": q})

    t0 = time.perf_counter()
    for _ in range(REPEATS):
        for q in TEMPLATES:
            warm.query({"q": q})
    warm_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold_answers = []
    for q in TEMPLATES:
        cold_answers.append(QueryEngine().query({"q": q})["table"])
    cold_s = (time.perf_counter() - t0)

    # equivalence: the cached path answers exactly what a cold engine
    # computes from scratch
    for q, cold in zip(TEMPLATES, cold_answers):
        assert warm.query({"q": q})["table"] == cold

    n_warm = REPEATS * len(TEMPLATES)
    warm_qps = n_warm / warm_s if warm_s > 0 else float("inf")
    cold_qps = len(TEMPLATES) / cold_s if cold_s > 0 else float("inf")
    return {"queries": len(TEMPLATES), "repeats": REPEATS,
            "warm_total_s": round(warm_s, 6),
            "cold_total_s": round(cold_s, 6),
            "warm_qps": round(warm_qps, 1),
            "cold_qps": round(cold_qps, 1),
            "speedup": round(warm_qps / cold_qps, 2),
            "engine_stats": warm.stats()}


# -- router arm: router vs single node ---------------------------------------

def _timed_queries(client: ServiceClient,
                   queries: list[str]) -> tuple[float, list[dict]]:
    tables = []
    t0 = time.perf_counter()
    for q in queries:
        tables.append(client.query_lang(q)["table"])
    return time.perf_counter() - t0, tables


def _router_arm() -> dict[str, Any]:
    queries = [q for q in TEMPLATES if "topk" in q]
    service = GraphService(
        pool_config=PoolConfig(size=2, isolation="inline"))
    with ServiceThread(service) as st:
        with ServiceClient(st.host, st.port) as client:
            _timed_queries(client, queries)          # warm caches
            single_s, single_tables = _timed_queries(client, queries)
    spec = ClusterSpec.of(SHARDS, datasets=DATASETS)
    with ClusterThread(spec) as ct:
        with ServiceClient(port=ct.router_port) as client:
            _timed_queries(client, queries)          # warm caches
            router_s, router_tables = _timed_queries(client, queries)
    assert router_tables == single_tables, \
        "the router's topk diverged from the single node's"
    return {"queries": len(queries), "shards": SHARDS,
            "single_node_s": round(single_s, 6),
            "router_s": round(router_s, 6),
            "single_qps": round(len(queries) / single_s, 1),
            "router_qps": round(len(queries) / router_s, 1),
            "identical_answers": True}


def run_query_benchmark() -> dict[str, Any]:
    cache = _cache_arm()
    router = _router_arm()
    return {
        "config": {"datasets": list(DATASETS), "scale": SCALE,
                   "repeats": REPEATS, "shards": SHARDS, "tiny": TINY},
        "methodology": "cache: one warm engine replays the template "
                       "pool vs a cold engine per query (parse + plan "
                       "+ execute every time); answers asserted equal. "
                       "router vs single node: the pool's topk "
                       "templates on a single node vs through a "
                       "cluster router; element-identical tables "
                       "asserted",
        "cache": cache,
        "router": router,
        "headline": {"cache_speedup": cache["speedup"],
                     "cache_speedup_floor": MIN_CACHE_SPEEDUP,
                     "router_identical": router["identical_answers"]},
    }


def _render(results: dict) -> str:
    c, d = results["cache"], results["router"]
    table = format_table(
        ["arm", "queries", "total_s", "qps"],
        [["warm (cached)", c["queries"] * c["repeats"],
          c["warm_total_s"], c["warm_qps"]],
         ["cold (plan+exec)", c["queries"], c["cold_total_s"],
          c["cold_qps"]],
         ["single-node topk", d["queries"], d["single_node_s"],
          d["single_qps"]],
         [f"{d['shards']}-shard router topk", d["queries"],
          d["router_s"], d["router_qps"]]],
        title="query throughput by serving arm")
    return (f"{table}\n"
            f"plan/result cache speedup: {c['speedup']}x "
            f"(floor {MIN_CACHE_SPEEDUP}x)\n"
            f"router answers identical to the single node's: "
            f"{d['identical_answers']}")


def _check(results: dict) -> None:
    h = results["headline"]
    assert h["cache_speedup"] >= MIN_CACHE_SPEEDUP, h
    assert h["router_identical"], h


def test_query_planner():
    results = run_query_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    show(_render(results))
    _check(results)


if __name__ == "__main__":
    results = run_query_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(_render(results))
    _check(results)
    print(f"wrote {OUT_PATH}")
