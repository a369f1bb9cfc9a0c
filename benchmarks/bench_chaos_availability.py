"""Chaos availability: the router's reliability layer under real network
faults, held to an absolute contract.

The serving claim behind the request-reliability layer (deadline
propagation, per-shard circuit breakers, budgeted retries, hedging,
degraded serving): under partial network failure a replicated cluster
should keep *answering* — fresh from a surviving replica when one
exists, stale-but-disclosed when none does — without amplifying load
into a retry storm.  The adversary is the deterministic
:class:`~repro.resilience.netchaos.ChaosProxy` interposed on every
router→shard hop.

Scenarios (each a fresh 4-shard cluster, replication 2, zipf-skewed
closed-loop plan):

* **baseline** — transparent proxies; sanity and the p99 reference.
* **blackhole_single** — the primary of the zipf-hottest dataset is
  black-holed (bytes read, nothing answered — only a deadline ends the
  wait).  The router must keep success+degraded ≥ 99% with retry
  amplification ≤ 1.1x.
* **brownout_latency** — half the shards (2 of 4) get +250 ms injected
  latency; hedged requests (p95 quantile) bound the tail without
  breaking the amplification budget.
* **blackhole_pair** — *both* owners of the hottest dataset go dark:
  no fresh copy exists, so availability for those keys is exactly the
  degraded-serving path (last-good answers, staleness disclosed, hard
  cap enforced).

Retry amplification = shard dials per client request, from the router's
``cluster_route_total`` counter (outcomes that actually dialed) over the
measured window.  The gate is absolute: availability ≥
``MIN_ON_AVAILABILITY``, amplification ≤ ``MAX_AMPLIFICATION``, staleness
≤ the cap; seeds pin the fault schedule and the plan.  Results land in
``BENCH_chaos.json``.

Run standalone (tiny mode for CI smoke)::

    PYTHONPATH=src python benchmarks/bench_chaos_availability.py
    REPRO_BENCH_SCALE=0.05 PYTHONPATH=src python benchmarks/bench_chaos_availability.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

try:
    from benchmarks.conftest import show
except ModuleNotFoundError:      # standalone: repo root not on sys.path
    def show(text: str) -> None:
        print("\n" + text)
from repro.cluster import ClusterSpec, ClusterThread
from repro.cluster.router import ReliabilityConfig
from repro.harness import format_table
from repro.resilience.netchaos import NetFaultSpec
from repro.service import LoadGenerator, schedule, workload_mix

# the suite's one scale knob (benchmarks/conftest.py): below 1 is the
# CI smoke size
TINY = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) < 1

SHARDS = 4
REPLICATION = 2
WORKLOADS = ("BFS", "CComp")
DATASETS = ("twitter", "knowledge", "roadnet", "ldbc") if not TINY \
    else ("twitter", "ldbc")
SCALE = 0.02
SEED = 7
SKEW = 1.1
DEADLINE_S = 2.0
STALE_CAP_S = 60.0
CONCURRENCY = 4
REQUESTS = 60 if TINY else 150
WARM_ROUNDS = 3                        # transparent-proxy catalog sweeps
MIN_ON_AVAILABILITY = 0.99
MAX_AMPLIFICATION = 1.1
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

#: Outcomes of ``cluster_route_total`` that represent an actual shard
#: dial (breaker skips never touched the wire; the prober's pings of an
#: ejected shard are dials too, at most one per second per shard).
_DIAL_OUTCOMES = ("ok", "failover", "hedge", "error", "unreachable")


def reliability(hedge: bool = False) -> ReliabilityConfig:
    return ReliabilityConfig(
        breaker_failure_threshold=3, breaker_reset_timeout_s=1.0,
        retry_budget_ratio=0.1, retry_budget_max_tokens=10.0,
        hedge_quantile=95.0 if hedge else None,
        stale_cap_s=STALE_CAP_S)


def catalog():
    return workload_mix(WORKLOADS, DATASETS, scale=SCALE, seeds=1,
                        machine="test", op="run")


def dialed_attempts(router) -> float:
    snap = router.registry.snapshot().get("cluster_route_total", {})
    return sum(s["value"] for s in snap.get("samples", [])
               if s["labels"].get("outcome") in _DIAL_OUTCOMES)


def hedge_counts(router) -> dict[str, float]:
    snap = router.registry.snapshot().get("cluster_hedges_total", {})
    return {s["labels"]["outcome"]: s["value"]
            for s in snap.get("samples", [])}


def drive(scenario: str, faults: dict[str, NetFaultSpec],
          n_requests: int, hedge: bool = False) -> dict[str, Any]:
    """One scenario: boot, warm through transparent proxies, inject the
    faults, run the measured plan, read the meters."""
    spec = ClusterSpec.of(SHARDS, replication=REPLICATION,
                          datasets=DATASETS)
    mix = catalog()
    plan = schedule(mix, n_requests, seed=SEED, dataset_skew=SKEW)
    with ClusterThread(spec, netchaos=True, netchaos_seed=SEED,
                       router_kwargs={"reliability": reliability(hedge)}
                       ) as cluster:
        gen = LoadGenerator(cluster.router_thread.host,
                            cluster.router_port,
                            concurrency=CONCURRENCY,
                            timeout_s=DEADLINE_S,
                            deadline_s=DEADLINE_S)
        warm = gen.run([q for _ in range(WARM_ROUNDS) for q in mix])
        assert warm.failed == 0, warm.failures_by_kind
        for shard, fault in faults.items():
            cluster.proxies[shard].set_faults(fault)
        attempts_before = dialed_attempts(cluster.router)
        report = gen.run(plan)
        attempts = dialed_attempts(cluster.router) - attempts_before
        hedges = hedge_counts(cluster.router)
        reliability_state = cluster.router.reliability_snapshot()
        proxy_stats = {name: p.snapshot()
                       for name, p in cluster.proxies.items()}
    s = report.summary()
    return {"scenario": scenario,
            "requests": report.requests, "ok": report.ok,
            "failed": report.failed,
            "availability": s["availability"],
            "degraded": report.degraded,
            "degraded_fraction": round(
                report.degraded / report.requests, 4),
            "max_staleness_s": s["max_staleness_s"],
            "goodput_rps": s["throughput_rps"],
            "p50_ms": s["latency_ms"]["p50"],
            "p99_ms": s["latency_ms"]["p99"],
            "failures_by_kind": s["failures_by_kind"],
            "served": s["served"],
            "attempts": attempts,
            "amplification": round(attempts / report.requests, 4)
            if report.requests else None,
            "hedges": hedges,
            "reliability_state": reliability_state,
            "proxies": proxy_stats}


def run_chaos_availability_benchmark() -> dict[str, Any]:
    spec = ClusterSpec.of(SHARDS, replication=REPLICATION,
                          datasets=DATASETS)
    # the zipf-hottest dataset is the first in the mix's rank order;
    # black-holing its owners is the worst-placed partition
    hot = DATASETS[0]
    owners = spec.ring().owners(hot, REPLICATION)
    primary = owners[0]
    blackhole = NetFaultSpec(blackhole=True)
    slow = NetFaultSpec(latency_ms=250.0, jitter_ms=50.0)
    browned = list(spec.shards)[:SHARDS // 2]

    arms = [drive("baseline", {}, REQUESTS),
            drive("blackhole_single", {primary: blackhole}, REQUESTS)]
    if not TINY:
        arms.append(drive("brownout_latency",
                          {name: slow for name in browned}, REQUESTS,
                          hedge=True))
        arms.append(drive("blackhole_pair",
                          {name: blackhole for name in owners}, REQUESTS))
    headline = arms[1]
    return {
        "config": {"shards": SHARDS, "replication": REPLICATION,
                   "workloads": list(WORKLOADS),
                   "datasets": list(DATASETS), "scale": SCALE,
                   "seed": SEED, "zipf_skew": SKEW,
                   "deadline_s": DEADLINE_S,
                   "stale_cap_s": STALE_CAP_S,
                   "requests_per_scenario": REQUESTS,
                   "concurrency": CONCURRENCY, "tiny": TINY,
                   "hot_dataset": hot, "hot_owners": list(owners),
                   "blackholed_primary": primary},
        "methodology": "deterministic ChaosProxy faults (seeded) on "
                       "every router-shard hop; closed-loop zipf plan; "
                       "gated on absolute availability, amplification "
                       "and staleness bounds",
        "arms": arms,
        "headline": {
            "availability": headline["availability"],
            "availability_floor": MIN_ON_AVAILABILITY,
            "amplification": headline["amplification"],
            "amplification_ceiling": MAX_AMPLIFICATION,
            "max_staleness_s": headline["max_staleness_s"]},
    }


def _render(results: dict) -> str:
    rows = [[a["scenario"], a["availability"],
             a["degraded"], a["amplification"], a["p50_ms"],
             a["p99_ms"], a["failed"]]
            for a in results["arms"]]
    return format_table(
        ["scenario", "avail", "degraded", "amp", "p50_ms",
         "p99_ms", "failed"],
        rows, title="chaos availability")


def _check(results: dict) -> None:
    h = results["headline"]
    # the acceptance contract: single-shard black hole, replication 2
    assert h["availability"] >= MIN_ON_AVAILABILITY, h
    assert h["amplification"] <= MAX_AMPLIFICATION, h
    for a in results["arms"]:
        assert a["max_staleness_s"] <= STALE_CAP_S, a


def test_chaos_availability():
    results = run_chaos_availability_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    h = results["headline"]
    show(_render(results)
         + f"\nblackhole_single: availability "
         f"{h['availability']:.4f} (floor {MIN_ON_AVAILABILITY}), "
         f"amplification {h['amplification']}x "
         f"(ceiling {MAX_AMPLIFICATION}x)")
    _check(results)


if __name__ == "__main__":
    results = run_chaos_availability_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(_render(results))
    h = results["headline"]
    print(f"blackhole_single: availability {h['availability']:.4f}, "
          f"amplification {h['amplification']}x")
    print(f"wrote {OUT_PATH}")
    _check(results)         # the CI smoke runs this path: gate it too
