"""Tenant isolation and hot-shard recovery: the QoS subsystem's claims.

Two claims, measured end to end and gated (results land in
``BENCH_qos.json``):

**Isolation (single service).**  A quiet, latency-sensitive tenant
shares a 2-slot service with a noisy tenant that floods diverse,
expensive queries.  Three arms drive the same quiet request stream:

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

**Hot-shard recovery (cluster).**  Zipf-skewed traffic concentrates on
the shard owning the hot datasets; the :class:`HotspotDetector` names
the shard and its keys from routing deltas alone; a spare shard joins
and the report-only :class:`RebalancePlan` is executed *live* by the
:class:`RebalanceExecutor` while a checker thread keeps querying and
writing every dataset.  Gates: the checker sees zero failures (every
key answerable throughout the handoff — ``WrongShard`` never surfaces),
mutated state survives the move (version continuity), and post-
migration throughput on the widened topology recovers to at least
``MIN_RECOVERY`` of the pre-hotspot rate.

``REPRO_BENCH_SCALE=0.05`` shrinks request counts for CI smoke runs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_tenant_isolation.py
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from pathlib import Path
from typing import Any

try:
    from benchmarks.conftest import show
except ModuleNotFoundError:      # standalone: repo root not on sys.path
    def show(text: str) -> None:
        print("\n" + text)
from repro.cluster import ClusterSpec, ClusterThread, plan_rebalance
from repro.dynamic.ops import churn_ops
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
from repro.tenancy import (
    HotspotDetector,
    QosConfig,
    RebalanceExecutor,
    TenantGovernor,
    TenantPolicy,
)

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

# -- hotspot/migration shape -------------------------------------------------
# hot-first order: ldbc/roadnet/knowledge are shard-0's keys on the
# 2-shard ring, so the zipf skew concentrates load on shard-0
DATASETS = ("ldbc", "roadnet", "knowledge", "twitter", "watson")
N_CLUSTER = 60 if TINY else 150
CLUSTER_SKEW = 1.3
SEED = 11
MIN_RECOVERY = 0.6                    # post/pre throughput floor

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_qos.json"


# -- part A: tenant isolation ------------------------------------------------

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


# -- part B: hotspot detection + live migration ------------------------------

def _cluster_plan() -> list[Query]:
    """Zipf-skewed dyn_query traffic, hot-first dataset order."""
    from repro.service import schedule
    mix = workload_mix(("BFS",), DATASETS, scale=0.05, seeds=1,
                       op="dyn_query")
    return schedule(mix, N_CLUSTER, seed=SEED,
                    dataset_skew=CLUSTER_SKEW)


def run_hotspot_recovery() -> dict[str, Any]:
    spec = ClusterSpec.of(2, datasets=DATASETS)
    ring = spec.ring()
    plan = _cluster_plan()
    rng = random.Random(SEED)
    out: dict[str, Any] = {}
    with ClusterThread(spec, spares=("spare-0",),
                       router_kwargs=dict(attempt_timeout_s=30,
                                          fanout_timeout_s=10,
                                          probe_interval_s=0.2)) as ct:
        router = ct.router
        gen = LoadGenerator("127.0.0.1", ct.router_port,
                            concurrency=4, timeout_s=120)

        # mutated state that must survive the migration
        with ServiceClient(port=ct.router_port) as client:
            for _ in range(3):
                client.mutate("ldbc", churn_ops(rng, 200, 6),
                              scale=0.05, seed=0)
            committed = client.dyn_query("BFS", "ldbc",
                                         scale=0.05)["version"]

        detector = HotspotDetector(router, ratio=1.4, min_total=20)
        detector.sample()                       # prime the window
        pre = gen.run(plan)                     # the hotspot window
        hot = detector.sample()
        out["hotspot"] = hot.as_dict()

        # live migration onto the spare while a checker exercises
        # every key (reads everywhere, writes on the hot key)
        failures: list[str] = []
        checked = [0]
        stop = threading.Event()

        def checker() -> None:
            with ServiceClient(port=ct.router_port,
                               timeout_s=60) as c:
                i = 0
                while not stop.is_set():
                    ds = DATASETS[i % len(DATASETS)]
                    try:
                        c.dyn_query("BFS", ds, scale=0.05)
                        if ds == "ldbc":
                            c.mutate("ldbc", churn_ops(rng, 200, 2),
                                     scale=0.05, seed=0)
                        checked[0] += 1
                    except BaseException as e:  # noqa: BLE001
                        failures.append(f"{type(e).__name__}: {e}")
                        return
                    i += 1

        thread = threading.Thread(target=checker, daemon=True)
        thread.start()
        time.sleep(0.2)

        rebalance = plan_rebalance(ring, ring.with_node("spare-0"),
                                   list(DATASETS))
        executor = RebalanceExecutor(
            router, {**ct.shard_addresses, **ct.spare_addresses},
            handoff_window_s=10.0)
        migration = executor.execute(
            rebalance, join=ct.spare_addresses["spare-0"])
        time.sleep(0.2)
        stop.set()
        thread.join(timeout=60)

        post = gen.run(plan)                    # widened topology
        spread = detector.sample()

        with ServiceClient(port=ct.router_port) as client:
            surviving = client.dyn_query("BFS", "ldbc",
                                         scale=0.05)["version"]
            answerable = all(
                client.dyn_query("BFS", ds, scale=0.05) is not None
                for ds in DATASETS)

        out.update({
            "plan": rebalance.summary(),
            "migration": migration.as_dict(),
            "checker": {"requests": checked[0],
                        "failures": failures},
            "pre": {"throughput_rps": round(pre.throughput_rps, 2),
                    "availability": pre.availability,
                    "p99_ms": round(pre.latency_ms(99), 3)},
            "post": {"throughput_rps": round(post.throughput_rps, 2),
                     "availability": post.availability,
                     "p99_ms": round(post.latency_ms(99), 3)},
            "post_shard_deltas": spread.shard_deltas,
            "version_pre_migration": committed,
            "version_post_migration": surviving,
            "all_keys_answerable": answerable,
        })
    out["headline"] = {
        "hot_shard_detected": "shard-0" in out["hotspot"]["hot_shards"],
        "checker_failures": len(out["checker"]["failures"]),
        "recovery_ratio": round(
            out["post"]["throughput_rps"]
            / max(out["pre"]["throughput_rps"], 1e-9), 3),
        "min_recovery": MIN_RECOVERY,
        "versions_survived": (out["version_post_migration"]
                              >= out["version_pre_migration"]),
    }
    return out


# -- assembly ----------------------------------------------------------------

def run_qos_benchmark() -> dict[str, Any]:
    return {"tiny": TINY,
            "isolation": run_isolation(),
            "hotspot_recovery": run_hotspot_recovery()}


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
    rec = results["hotspot_recovery"]["headline"]
    return (table
            + f"\np99 ratio vs alone: off={h['p99_ratio_off']}x, "
            f"on={h['p99_ratio_on']}x (gate {h['max_p99_ratio']}x)"
            + f"\nhotspot: detected={rec['hot_shard_detected']}, "
            f"checker failures={rec['checker_failures']}, "
            f"throughput recovery={rec['recovery_ratio']}x "
            f"(floor {rec['min_recovery']}x)")


def _check(results: dict[str, Any]) -> None:
    h = results["isolation"]["headline"]
    # the acceptance contract: QoS keeps the quiet tenant inside 2x of
    # its alone baseline while the ungoverned arm blows through it
    assert h["p99_ratio_on"] <= h["max_p99_ratio"], h
    assert h["p99_ratio_off"] > h["max_p99_ratio"], h
    assert h["p99_ratio_off"] > h["p99_ratio_on"], h
    rec = results["hotspot_recovery"]
    rh = rec["headline"]
    assert rh["hot_shard_detected"], rec["hotspot"]
    assert rh["checker_failures"] == 0, rec["checker"]
    assert rec["checker"]["requests"] > 0, rec["checker"]
    assert rh["versions_survived"], rec
    assert rec["all_keys_answerable"], rec
    assert rec["pre"]["availability"] == 1.0, rec["pre"]
    assert rec["post"]["availability"] == 1.0, rec["post"]
    assert rh["recovery_ratio"] >= rh["min_recovery"], rh
    assert rec["migration"]["keys"], rec["migration"]


def test_tenant_isolation_and_recovery():
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
