"""Tenant isolation: the QoS subsystem's claim.

Measured end to end and gated (results land in ``BENCH_qos.json``): a
quiet, latency-sensitive tenant shares a 2-slot service with a noisy
tenant that floods diverse, expensive queries.  Three arms drive the
same quiet request stream:

* ``alone`` — the quiet tenant by itself: the baseline p99;
* ``off``   — noisy neighbour, no governor: the noisy tenant's distinct
  cells churn the shared row cache and monopolise the pool, so the
  quiet tenant recomputes and queues;
* ``on``    — same traffic through a :class:`TenantGovernor`: the noisy
  tenant is rate-limited, weighted down at the fair gate, and confined
  to its own cache partition.

The gate is a *ratio*, not an absolute latency (machines vary; the
contrast does not): quiet p99 with QoS on must stay within
``MAX_P99_RATIO`` (2x) of the alone baseline, while the unbounded off
arm exceeds it.

``REPRO_BENCH_SCALE=0.05`` shrinks request counts for CI smoke runs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_tenant_isolation.py
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from typing import Any

try:
    from benchmarks.conftest import show
except ModuleNotFoundError:      # standalone: repo root not on sys.path
    def show(text: str) -> None:
        print("\n" + text)
from repro.harness import format_table
from repro.obs.metrics import percentile
from repro.service import (
    CacheTiers,
    GraphService,
    LoadGenerator,
    PoolConfig,
    Query,
    ServiceClient,
    ServiceThread,
    workload_mix,
)
from repro.tenancy import QosConfig, TenantGovernor, TenantPolicy

# the suite's one scale knob (benchmarks/conftest.py): below 1 is the
# CI smoke size
TINY = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) < 1

# -- isolation arm shape -----------------------------------------------------
QUIET, NOISY = "quiet", "noisy"
N_QUIET = 15 if TINY else 40          # quiet tenant's measured requests
N_NOISY = 30 if TINY else 80          # noisy tenant's flood
NOISY_SEEDS = 4 if TINY else 8        # distinct cells per noisy workload
SCALE = 0.03
CONCURRENCY = 8
ROW_CAPACITY = 8                      # small: the noisy flood churns it
MAX_P99_RATIO = 2.0                   # the acceptance gate
SEED = 11

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_qos.json"


# -- tenant isolation --------------------------------------------------------

def _isolation_plan(include_noisy: bool) -> list[Query]:
    """Deterministic interleave of the quiet tenant's repeated cheap
    query with the noisy tenant's diverse expensive ones."""
    quiet = [Query(op="run",
                   params={"workload": "BFS", "dataset": "roadnet",
                           "scale": SCALE, "seed": 0,
                           "machine": "test"},
                   tenant=QUIET)
             for _ in range(N_QUIET)]
    if not include_noisy:
        return quiet
    pool = workload_mix(("BFS", "CComp", "kCore"), ("ldbc",),
                        scale=SCALE, seeds=NOISY_SEEDS, machine="test")
    noisy = [Query(op=q.op, params=q.params, tenant=NOISY)
             for i in range(N_NOISY)
             for q in (pool[i % len(pool)],)]
    plan = quiet + noisy
    random.Random(f"qos-bench:{SEED}").shuffle(plan)
    return plan


def _governor() -> TenantGovernor:
    return TenantGovernor(QosConfig(
        policies={
            NOISY: TenantPolicy(rate=20.0, burst=4.0, weight=0.25,
                                cache_share=0.5),
            QUIET: TenantPolicy(weight=4.0),
        },
        fair_slots=2, row_capacity=ROW_CAPACITY))


def _isolation_arm(name: str, include_noisy: bool,
                   governed: bool) -> dict[str, Any]:
    service = GraphService(
        pool_config=PoolConfig(size=2, isolation="inline"),
        max_pending=256,
        caches=CacheTiers.build(row_capacity=ROW_CAPACITY),
        governor=_governor() if governed else None)
    plan = _isolation_plan(include_noisy)
    with ServiceThread(service) as st:
        # warm the quiet tenant's single cell so its baseline measures
        # the steady state (cache-served), not the one-time cold fill
        with ServiceClient(st.host, st.port, tenant=QUIET) as warm:
            warm.request("run", workload="BFS", dataset="roadnet",
                         scale=SCALE, seed=0, machine="test")
        report = LoadGenerator(st.host, st.port,
                               concurrency=CONCURRENCY,
                               timeout_s=300).run(plan)
    quiet_lat = report.tenant_latencies_ms.get(QUIET, [])
    return {
        "arm": name,
        "requests": report.requests,
        "ok": report.ok,
        "failed": report.failed,
        "failures_by_kind": dict(report.failures_by_kind),
        "quiet_ok": len(quiet_lat),
        "quiet_p50_ms": round(percentile(quiet_lat, 50), 3),
        "quiet_p99_ms": round(percentile(quiet_lat, 99), 3),
        "noisy_failures": dict(
            report.tenant_failures.get(NOISY, {})),
        "served": dict(report.served),
    }


def run_isolation() -> dict[str, Any]:
    arms = [
        _isolation_arm("alone", include_noisy=False, governed=False),
        _isolation_arm("off", include_noisy=True, governed=False),
        _isolation_arm("on", include_noisy=True, governed=True),
    ]
    by = {a["arm"]: a for a in arms}
    base = max(by["alone"]["quiet_p99_ms"], 1e-3)
    headline = {
        "quiet_p99_alone_ms": by["alone"]["quiet_p99_ms"],
        "p99_ratio_off": round(by["off"]["quiet_p99_ms"] / base, 2),
        "p99_ratio_on": round(by["on"]["quiet_p99_ms"] / base, 2),
        "max_p99_ratio": MAX_P99_RATIO,
        "noisy_shed_on": sum(
            by["on"]["noisy_failures"].values()),
    }
    return {"arms": arms, "headline": headline}


# -- assembly ----------------------------------------------------------------

def run_qos_benchmark() -> dict[str, Any]:
    return {"tiny": TINY, "isolation": run_isolation()}


def _render(results: dict[str, Any]) -> str:
    iso = results["isolation"]
    rows = [[a["arm"], a["quiet_ok"], a["quiet_p50_ms"],
             a["quiet_p99_ms"],
             sum(a["noisy_failures"].values()) or ""]
            for a in iso["arms"]]
    table = format_table(
        ["arm", "quiet ok", "quiet p50 ms", "quiet p99 ms",
         "noisy shed"],
        rows, title="tenant isolation (quiet tenant's view)")
    h = iso["headline"]
    return (table
            + f"\np99 ratio vs alone: off={h['p99_ratio_off']}x, "
            f"on={h['p99_ratio_on']}x (gate {h['max_p99_ratio']}x)")


def _check(results: dict[str, Any]) -> None:
    h = results["isolation"]["headline"]
    # the acceptance contract: QoS keeps the quiet tenant inside 2x of
    # its alone baseline while the ungoverned arm blows through it
    assert h["p99_ratio_on"] <= h["max_p99_ratio"], h
    assert h["p99_ratio_off"] > h["max_p99_ratio"], h
    assert h["p99_ratio_off"] > h["p99_ratio_on"], h


def test_tenant_isolation():
    results = run_qos_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    show(_render(results))
    _check(results)


if __name__ == "__main__":
    results = run_qos_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(_render(results))
    _check(results)
    print(f"\nwrote {OUT_PATH}")
