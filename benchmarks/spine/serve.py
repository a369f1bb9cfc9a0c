"""The serving path: ``serve_hot`` (every answer a cache hit: per-request
fixed cost is everything) and ``serve_mixed`` (reads, writes and DSL
queries side by side on fresh clusters).

Load shape: one process.  An in-process ``ClusterThread`` (router + 2
inline-pool shards) and 2 client connections share one interpreter on a
2-core host, so CPU saved in any serving layer shows as throughput.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Sequence

from repro.cluster import ClusterSpec, ClusterThread
from repro.datagen.registry import make as make_dataset, scaled_vertices
from repro.dynamic import IncrementalBFS, SnapshotStore, churn_ops, parse_ops
from repro.obs import MetricsRegistry, SpanTracer
from repro.query import QueryEngine, parse, plan_pipeline, \
    query_template_pool, source_info
from repro.query.exec import GraphImage, execute_plan
from repro.service import (
    GraphService,
    LoadGenerator,
    LoadReport,
    PoolConfig,
    Query,
    ServiceClient,
    ServiceThread,
    decode_frame,
    encode_request,
    encode_response,
    parse_request,
    schedule,
    workload_mix,
)
from repro.service.loadgen import churn_write_factory
from repro.service.protocol import WRITE_OPS

from .common import Config, Outcome, digest, end_to_end, write_trace
from .measure import (
    HostSpeed,
    median,
    now,
    pct,
    peak_rss_mb,
    tail_percentile,
)
from .openloop import poisson_schedule, run_open_loop

DATASETS = ("twitter", "knowledge", "watson", "roadnet", "ldbc")
SCALE = 0.05
SHARDS = 2
CLIENTS = 2                       # <= nproc: the generator must not starve
HOT_WORKLOADS = ("BFS", "CComp", "kCore")
HOT_SKEW = 1.0                    # Zipf over datasets
# requests: a block is long enough for a p95; a group of blocks (half a
# second) is what one pair of host-speed samples brackets
HOT_WARM, HOT_BLOCK, HOT_GROUP = 1000, 250, 8
HOT_SETUPS = 5                    # clusters booted and warmed per run
MIXED_READS = (("BFS", "CComp"), ("ldbc", "twitter"))
MUTATED = "ldbc"
WRITE_MIX, QUERY_MIX, BATCH_OPS = 0.2, 0.3, 8
QUERY_DATASETS = ("ldbc", "twitter", "roadnet")
#: templates also asked of the *mutated* graph (``dynamic=true``): every
#: commit invalidates their plans and results, so the pure-python query
#: kernels run inside the timed region, not only in the warm pass
DYNAMIC_TEMPLATES = ("| bfs root=0 depth<=3 | topk", "| cc | count",
                     "| kcore k>=2")
# write latency drifts up as the store grows, so a rep is a fresh cluster
# and a plan of fixed length
MIXED_WARM, MIXED_PLAN = 300, 1000
MIXED_MIN_REPS = 3
OPEN_RATE, OPEN_REQUESTS = 150.0, 1500     # req/s, ~10 s
SLO_MS = 25.0
MAX_VERSION_LAG = 64              # the store's retention window
PROBE_BATCHES = 40


def _n(requests: int, cfg: Config) -> int:
    return max(20, requests // 10) if cfg.quick else requests


@contextmanager
def _cluster() -> Iterator[tuple[ClusterThread, str, int]]:
    with ClusterThread(ClusterSpec.of(SHARDS, datasets=DATASETS)) as ct:
        yield ct, ct.router_thread.host, ct.router_port


def _with_seed(mix: Sequence[Query], seed: int) -> list[Query]:
    return [replace(q, params={**q.params, "seed": seed}) for q in mix]


def _served(reports: Sequence[LoadReport]) -> dict[str, int]:
    """How the requests of several reports were served, summed."""
    served: dict[str, int] = {}
    for r in reports:
        for how, n in r.served.items():
            served[how] = served.get(how, 0) + n
    return served


@dataclass(frozen=True)
class Rep:
    """One rep (a block, or a plan on a fresh cluster): its report and
    the host-speed factor measured beside it.  Every time read through a
    ``Rep`` is in reference-host seconds."""

    report: LoadReport
    factor: float

    @property
    def elapsed_s(self) -> float:
        return self.report.elapsed_s * self.factor

    def latency_ms(self, q: float) -> float:
        return self.report.latency_ms(q) * self.factor

    def class_p50_ms(self, name: str) -> float:
        return pct(getattr(self.report, f"{name}_latencies_ms"),
                   50) * self.factor


def _timed_blocks(gens: Sequence[LoadGenerator], plan_for, seconds: float,
                  host: HostSpeed) -> list[list[Rep]]:
    """Closed-loop blocks of a fixed plan length until the time is up,
    the generators taking turns, so that each meets the same host; every
    group of blocks is bracketed by the host-speed reference."""
    reps: list[list[Rep]] = [[] for _ in gens]
    start, i = now(), 0
    while not i or now() - start < seconds:
        reports, _, factor = host.timed(
            lambda: [gens[j % len(gens)].run(plan_for(j))
                     for j in range(i, i + HOT_GROUP)])
        for j, report in enumerate(reports, i):
            reps[j % len(gens)].append(Rep(report, factor))
        i += HOT_GROUP
    return reps


def _scaled(host: HostSpeed, probe: Callable[[], dict[str, float]]
            ) -> dict[str, float]:
    """A probe's timings, in reference-host time."""
    metrics, _, factor = host.timed(probe)
    return {name: value * factor for name, value in metrics.items()}


def _end_to_end(setup_s, reps: Sequence[Rep],
                rss_mb: float) -> dict[str, float]:
    return end_to_end(setup_s=setup_s, peak_rss_mb=rss_mb,
                      wall_s=median(r.elapsed_s for r in reps))


def _closed_loop_metrics(reps: Sequence[Rep], failed: int,
                         attempted: int) -> dict[str, float]:
    """What the closed-loop clients saw, tracing off: the median over
    reps of each rep's rate and latency percentiles."""
    def over_reps(of) -> float:
        return median(of(r) for r in reps)

    first = reps[0].report
    metrics = {
        "loadgen.closed_rps":
            first.requests / over_reps(lambda r: r.elapsed_s),
        "loadgen.p50_ms": over_reps(lambda r: r.latency_ms(50)),
        "loadgen.p95_ms": over_reps(lambda r: r.latency_ms(95)),
        "loadgen.fail_share": failed / attempted}
    for name in ("read", "write", "query"):
        if getattr(first, f"{name}_latencies_ms"):
            metrics[f"loadgen.{name}_p50_ms"] = over_reps(
                lambda r: r.class_p50_ms(name))
    latencies = [ms * r.factor for r in reps for ms in r.report.latencies_ms]
    q, value = tail_percentile(latencies)
    return {**metrics, "loadgen.tail_pct": q, "loadgen.tail_ms": value,
            "loadgen.p99_ms": pct(latencies, 99),
            "loadgen.samples": float(len(latencies))}


def _router_stats(host: str, port: int) -> dict[str, Any]:
    with ServiceClient(host, port) as client:
        return client.stats()


def _served_metrics(served: dict[str, int]) -> dict[str, float]:
    total = sum(served.values())
    return {"service.cache_hit_ratio":
                served.get("cache", 0) / total if total else 0.0,
            "service.coalesced": float(served.get("coalesced", 0)),
            "service.executed": float(served.get("executed", 0))}


def _router_metrics(before: dict[str, Any], after: dict[str, Any],
                    op: str, client_mean_ms: float,
                    factor: float) -> dict[str, float]:
    """What the router's own ``stats`` op saw between two scrapes; its
    times at the host-speed ``factor`` of the stretch between them."""
    delta = MetricsRegistry.delta(before["metrics"], after["metrics"])
    routes = {s["labels"].get("outcome"): s["value"] for s in
              delta.get("cluster_route_total", {}).get("samples", [])}
    per_shard = [after["health"][s]["successes"]
                 - before["health"][s]["successes"]
                 for s in after["health"]]
    lat = next(s for s in delta["router_request_latency_ms"]["samples"]
               if s["labels"].get("op") == op)
    server_mean = lat["sum"] / lat["count"] * factor
    client_mean_ms *= factor
    return {"cluster.route_total": float(sum(routes.values())),
            "cluster.failovers": float(routes.get("failover", 0.0)),
            "cluster.shard_imbalance":
                max(per_shard) * len(per_shard) / sum(per_shard),
            "service.server_mean_ms": server_mean,
            "loadgen.wire_client_mean_ms": client_mean_ms - server_mean}


# -- serve_hot ---------------------------------------------------------------

def _protocol_probe(plan: Sequence[Query], answers: dict[str, Any]
                    ) -> dict[str, float]:
    """Frame codec cost per request over the plan's own frames: request
    and response each encoded once and decoded once."""
    results = [answers[digest(q.params)] for q in plan]
    t0 = now()
    requests = [encode_request(q.op, f"c{i}", q.params)
                for i, q in enumerate(plan)]
    responses = [encode_response(f"c{i}", r)
                 for i, r in enumerate(results)]
    encode_s = now() - t0
    t0 = now()
    for frame in requests:
        parse_request(decode_frame(frame))
    for frame in responses:
        decode_frame(frame)
    decode_s = now() - t0
    return {"service.protocol_encode_us": encode_s / len(plan) * 1e6,
            "service.protocol_decode_us": decode_s / len(plan) * 1e6}


def _cell_answers(host: str, port: int, mix: Sequence[Query]
                  ) -> dict[str, Any]:
    """``run`` result per cell, keyed by the digest of its params; the
    volatile fields (how it was served, how long it took) are dropped."""
    answers = {}
    with ServiceClient(host, port) as client:
        for q in mix:
            result = client.request(q.op, **q.params)
            answers[digest(q.params)] = {
                k: result[k] for k in ("workload", "dataset", "outputs")}
    return answers


@contextmanager
def _warm_hot_cluster(mix: Sequence[Query], cfg: Config, speed: HostSpeed):
    """Set-up of serve_hot: boot, execute every cell once, warm pass."""
    before = speed.sample()
    t0 = now()
    with _cluster() as (_, host, port):
        gen = LoadGenerator(host, port, concurrency=CLIENTS)
        warm = [gen.run(mix),
                gen.run(schedule(mix, _n(HOT_WARM, cfg),
                                 seed=f"{cfg.seed}:warm",
                                 dataset_skew=HOT_SKEW))]
        seconds = now() - t0
        yield host, port, gen, warm, \
            seconds * speed.factor(before, speed.sample())


def serve_hot(cfg: Config) -> Outcome:
    mix = _with_seed(workload_mix(HOT_WORKLOADS, DATASETS, scale=SCALE),
                     cfg.seed)
    block = _n(HOT_BLOCK, cfg)
    # a traced run splits its time: cluster (untraced and traced blocks
    # in turn), then direct service
    share = cfg.seconds / 2 if cfg.trace else cfg.seconds
    speed = HostSpeed()

    def plan_for(tag: object) -> list[Query]:
        return schedule(mix, block, seed=f"{cfg.seed}:{tag}",
                        dataset_skew=HOT_SKEW)

    setups, warm = [], []
    for _ in range(HOT_SETUPS - 1):
        with _warm_hot_cluster(mix, cfg, speed) as (*_, warmed, setup_s):
            setups.append(setup_s)
            warm += warmed
    with _warm_hot_cluster(mix, cfg, speed) as (host, port, gen, warmed,
                                                setup_s):
        setups.append(setup_s)
        warm += warmed
        gens = [gen]
        if cfg.trace:
            tracer = SpanTracer(process_name="spine:serve_hot")
            gens.append(LoadGenerator(host, port, concurrency=CLIENTS,
                                      tracer=tracer))
        before = _router_stats(host, port)
        reps, *traced = _timed_blocks(gens, plan_for, share, speed)
        rss_mb = peak_rss_mb()        # before the direct-service check
        after = _router_stats(host, port)
        if cfg.trace:
            write_trace(tracer, cfg, "serve_hot")
        answers = _cell_answers(host, port, mix)

    with ServiceThread(GraphService(pool_config=PoolConfig(
            size=2, isolation="inline"))) as st:
        if cfg.trace:
            direct_gen = LoadGenerator(st.host, st.port,
                                       concurrency=CLIENTS)
            direct_gen.run(mix)
            direct_gen.run(plan_for("direct-warm"))
            (direct,) = _timed_blocks(
                [direct_gen], lambda i: plan_for(f"direct-{i}"), share,
                speed)
        direct_answers = _cell_answers(st.host, st.port, mix)

    reports = [r.report for r in reps]
    served = _served(reports)
    attempted = sum(r.requests for r in warm + reports)
    failed = sum(r.failed for r in warm + reports)
    problems = []
    if failed:
        problems.append(f"{failed} requests failed")
    if set(served) != {"cache"}:
        problems.append(f"timed requests were not all cache hits: {served}")
    if answers != direct_answers:
        problems.append("cluster answers differ from a direct "
                        "single-node run")

    metrics = _end_to_end(setups, reps, rss_mb)
    if cfg.trace:
        closed = _closed_loop_metrics(reps, failed, attempted)
        direct_p50 = median(r.latency_ms(50) for r in direct)
        through_router = reps + traced[0]
        metrics = {
            **closed,
            **_scaled(speed, lambda: _protocol_probe(plan_for(0), answers)),
            **_router_metrics(
                before, after, "run",
                sum(sum(r.report.latencies_ms) for r in through_router)
                / sum(r.report.ok for r in through_router),
                median(r.factor for r in through_router)),
            **_served_metrics(served),
            "service.direct_rps":
                block / median(r.elapsed_s for r in direct),
            "service.direct_p50_ms": direct_p50,
            "cluster.router_added_p50_ms":
                closed["loadgen.p50_ms"] - direct_p50,
            "obs.trace_overhead_ratio":
                median(r.elapsed_s for r in traced[0])
                / median(r.elapsed_s for r in reps),
        }
    return Outcome(
        metrics=metrics, attempted=attempted, failed=failed,
        problems=problems, digests={"answers": digest(answers)},
        info={"sizes": {"scale": SCALE, "cells": len(mix), "block": block,
                        "warm": _n(HOT_WARM, cfg), "clients": CLIENTS,
                        "shards": SHARDS},
              "reps": len(reps), "host_speed": round(speed.speed(), 4),
              "measured_wall_s": round(
                  median(r.elapsed_s for r in reports), 5),
              "rep_wall_s": [round(r.elapsed_s, 4) for r in reps]})


# -- serve_mixed -------------------------------------------------------------

class _VersionLog:
    """Per-connection clients report here, in response order: acked
    writes, and how far behind the newest acked commit each read of the
    mutated graph answered."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.lock = threading.Lock()
        self.acked_writes = self.committed = self.max_lag = 0

    def client(self) -> ServiceClient:
        return _LoggingClient(self)

    def note(self, op: str, params: dict[str, Any], result: Any) -> None:
        version = (result or {}).get("version")
        with self.lock:
            if op in WRITE_OPS:
                self.acked_writes += 1
                self.committed = max(self.committed, version)
            elif op == "dyn_query" and params.get("dataset") == MUTATED:
                self.max_lag = max(self.max_lag, self.committed - version)


class _LoggingClient(ServiceClient):
    def __init__(self, log: _VersionLog):
        super().__init__(log.host, log.port)
        self._log = log

    def request(self, op: str, *, deadline_s: float | None = None,
                **params: Any) -> Any:
        result = super().request(op, deadline_s=deadline_s, **params)
        self._log.note(op, params, result)
        return result


def _query_pool(seed: int) -> tuple[list[str], list[str]]:
    """(static templates, dynamic templates over the mutated graph)."""
    static = query_template_pool(QUERY_DATASETS, scale=SCALE, seed=seed)
    source = f"from {MUTATED} scale={SCALE:g} seed={seed} "
    dynamic = [q.replace(source, source + "dynamic=true ", 1)
               for q in static if q.startswith(source)
               and any(t in q for t in DYNAMIC_TEMPLATES)]
    return static, dynamic


def _mixed_plan(cfg: Config, n: int, tag: str) -> list[Query]:
    reads = _with_seed(workload_mix(*MIXED_READS, scale=SCALE,
                                    op="dyn_query"), cfg.seed)
    static, dynamic = _query_pool(cfg.seed)
    pool = static + dynamic

    def query(rng: random.Random) -> Query:
        return Query("query", {"q": pool[rng.randrange(len(pool))]})

    return schedule(
        reads, n, seed=f"{cfg.seed}:{tag}",
        write_mix=WRITE_MIX, query_mix=QUERY_MIX, query_factory=query,
        write_factory=churn_write_factory(
            MUTATED, scaled_vertices(MUTATED, SCALE), scale=SCALE,
            seed=cfg.seed, batch=BATCH_OPS))


def _store_head(stats: dict[str, Any], seed: int) -> int:
    key = f"{MUTATED}/{SCALE}/{seed}"
    return max(shard["dynamic"]["stores"].get(key, {}).get("head", 0)
               for shard in stats["shards"].values())


def _mixed_rep(cfg: Config, tag: str, speed: HostSpeed,
               tracer: SpanTracer | None = None,
               check_tables: bool = False) -> dict[str, Any]:
    """Fresh cluster, warm pass, one timed closed-loop plan, checks.  The
    host-speed reference is sampled before the boot, between warm pass
    and plan, and after the plan."""
    plan = _mixed_plan(cfg, _n(MIXED_PLAN, cfg), tag)
    at_start = speed.sample()
    t0 = now()
    with _cluster() as (_, host, port):
        log = _VersionLog(host, port)
        gen = LoadGenerator(host, port, concurrency=CLIENTS,
                            client_factory=log.client, tracer=tracer)
        warm = gen.run(_mixed_plan(cfg, _n(MIXED_WARM, cfg), f"{tag}-warm"))
        setup_s = now() - t0
        before = _router_stats(host, port)
        warmed = speed.sample()
        report = gen.run(plan)
        at_end = speed.sample()
        after = _router_stats(host, port)
        problems = []
        if warm.failed or report.failed:
            problems.append(f"{warm.failed + report.failed} requests "
                            f"failed: {report.failures_by_kind}")
        head = _store_head(after, cfg.seed)
        if head != log.acked_writes:
            problems.append(f"store version {head} != acked writes "
                            f"{log.acked_writes}")
        if log.max_lag > MAX_VERSION_LAG:
            problems.append(f"a read answered {log.max_lag} versions "
                            f"behind (> {MAX_VERSION_LAG})")
        if check_tables:
            problems += _check_query_tables(host, port, cfg.seed)
    return {"rep": Rep(report, speed.factor(warmed, at_end)),
            "report": report, "warm": warm,
            "setup_s": setup_s * speed.factor(at_start, warmed),
            "before": before, "after": after, "problems": problems,
            "max_lag": log.max_lag, "rss_mb": peak_rss_mb()}


def _check_query_tables(host: str, port: int, seed: int) -> list[str]:
    """The router's scatter-merge must equal a local engine, table for
    table, on every static-source template."""
    static, _ = _query_pool(seed)
    local = QueryEngine()
    with ServiceClient(host, port) as client:
        return [f"scatter-merge differs from local: {q}" for q in static
                if client.query_lang(q)["table"]
                != local.query({"q": q})["table"]]


def _open_phase(cfg: Config) -> tuple[dict[str, float], int]:
    """Phase B: Poisson arrivals at a fixed rate on a fresh cluster,
    tracing off -> (metrics, requests failed or lost).  Times are as
    measured: latency from a due time at a fixed rate does not scale
    with host speed the way a closed loop's does."""
    n = _n(OPEN_REQUESTS, cfg)
    plan = _mixed_plan(cfg, n, "open")
    due = poisson_schedule(OPEN_RATE, n, cfg.seed)
    with _cluster() as (_, host, port):
        LoadGenerator(host, port, concurrency=CLIENTS).run(
            _mixed_plan(cfg, _n(MIXED_WARM, cfg), "open-warm"))
        t0 = now()
        samples = run_open_loop(plan, due,
                                lambda: ServiceClient(host, port),
                                connections=CLIENTS)
        elapsed = now() - t0
    ok = [s.latency_ms for s in samples if s.ok]
    # a request never answered (or lost with its worker) missed the limit
    return {"loadgen.open_p50_ms": pct(ok, 50),
            "loadgen.open_p95_ms": pct(ok, 95),
            "loadgen.slo_share":
                sum(1 for ms in ok if ms <= SLO_MS) / n,
            "loadgen.late_p95_ms": pct([s.late_ms for s in samples], 95),
            "loadgen.achieved_rps": len(ok) / elapsed}, n - len(ok)


def _query_probe(cfg: Config) -> dict[str, float]:
    """parse / plan / execute / cold / warm cost of the static template
    pool against an in-process ``QueryEngine``."""
    pool, _ = _query_pool(cfg.seed)

    def each(fn, items) -> list[float]:
        out = []
        for item in items:
            t0 = now()
            fn(item)
            out.append(now() - t0)
        return out

    pipelines = [parse(q) for q in pool]
    images = {d: GraphImage.from_spec(make_dataset(d, scale=SCALE,
                                                   seed=cfg.seed))
              for d in QUERY_DATASETS}
    plans = [plan_pipeline(p) for p in pipelines]
    warm = QueryEngine()
    cold_s = each(lambda q: QueryEngine().query({"q": q}), pool)
    for q in pool:
        warm.query({"q": q})
    return {
        "query.parse_us": median(each(parse, pool)) * 1e6,
        "query.plan_us": median(each(plan_pipeline, pipelines)) * 1e6,
        "query.exec_ms": median(each(
            lambda i: execute_plan(
                plans[i], images[source_info(pipelines[i]).dataset],
                kernel_cache={}), range(len(pool)))) * 1e3,
        "query.cold_ms": median(cold_s) * 1e3,
        "query.warm_us": median(each(lambda q: warm.query({"q": q}),
                                     pool * 5)) * 1e6,
    }


def _dynamic_probe(cfg: Config) -> dict[str, float]:
    """Commit cost per op, and an incremental BFS refresh beside the
    recompute it avoids, over one churn stream on the mutated graph."""
    spec = make_dataset(MUTATED, scale=SCALE, seed=cfg.seed)
    store = SnapshotStore.from_spec(spec)
    rng = random.Random(f"probe:{cfg.seed}")
    maintained = IncrementalBFS(store)
    maintained.refresh()
    commit_s, refresh_s, recompute_s = [], [], []
    for _ in range(_n(PROBE_BATCHES * 10, cfg) // 10):
        ops = parse_ops(churn_ops(rng, spec.n, BATCH_OPS))
        t0 = now()
        store.commit(ops)
        commit_s.append(now() - t0)
        t0 = now()
        maintained.refresh()
        refresh_s.append(now() - t0)
        cold = IncrementalBFS(store)
        t0 = now()
        cold.refresh()
        recompute_s.append(now() - t0)
    return {"dynamic.commit_us_per_op": median(commit_s) / BATCH_OPS * 1e6,
            "dynamic.incremental_refresh_ms": median(refresh_s) * 1e3,
            "dynamic.recompute_ms": median(recompute_s) * 1e3}


def serve_mixed(cfg: Config) -> Outcome:
    # a traced run keeps half its time for the traced rep, the open-loop
    # phase and the probes
    share = cfg.seconds / 2 if cfg.trace else cfg.seconds
    speed = HostSpeed()
    reps: list[dict[str, Any]] = []
    start = now()
    while len(reps) < MIXED_MIN_REPS or now() - start < share:
        reps.append(_mixed_rep(cfg, f"rep{len(reps)}", speed,
                               check_tables=not reps))
    reports = [r["report"] for r in reps]
    timed = [r["rep"] for r in reps]
    metrics = _end_to_end([r["setup_s"] for r in reps], timed,
                          reps[0]["rss_mb"])
    failed = sum(r["report"].failed + r["warm"].failed for r in reps)
    attempted = sum(r["report"].requests + r["warm"].requests for r in reps)
    problems = [p for r in reps for p in r["problems"]]

    if cfg.trace:
        tracer = SpanTracer(process_name="spine:serve_mixed")
        traced = _mixed_rep(cfg, "traced", speed, tracer)
        write_trace(tracer, cfg, "serve_mixed")
        problems += traced["problems"]
        open_loop, lost = _open_phase(cfg)
        if lost:
            problems.append(f"open loop: {lost} requests failed or "
                            f"were lost")
        attempted += _n(OPEN_REQUESTS, cfg)
        failed += lost
        # counts and ratios: of the first untraced rep, they repeat
        first: LoadReport = reports[0]
        served = first.served
        queries = len(first.query_latencies_ms)
        refreshed = served.get("incremental", 0) \
            + served.get("recompute", 0)
        metrics = {
            **_closed_loop_metrics(timed, failed, attempted),
            **_router_metrics(reps[0]["before"], reps[0]["after"], "query",
                              sum(first.query_latencies_ms) / queries,
                              timed[0].factor),
            **_served_metrics(served),
            **open_loop,
            **_scaled(speed, lambda: _query_probe(cfg)),
            **_scaled(speed, lambda: _dynamic_probe(cfg)),
            "obs.trace_overhead_ratio":
                traced["rep"].elapsed_s / median(r.elapsed_s for r in timed),
            "query.plan_cache_hit_ratio":
                reps[0]["after"]["query"]["plan_cache"]["hit_rate"],
            "query.scatter_share": served.get("scatter", 0) / queries,
            "dynamic.incremental_ratio":
                served.get("incremental", 0) / refreshed
                if refreshed else 0.0,
            "dynamic.response_cache_hit_ratio":
                served.get("cache", 0) / len(first.read_latencies_ms),
            "dynamic.max_version_lag":
                float(max(r["max_lag"] for r in reps)),
        }

    return Outcome(
        metrics=metrics, attempted=attempted, failed=failed,
        problems=problems,
        info={"sizes": {"scale": SCALE, "plan": _n(MIXED_PLAN, cfg),
                        "warm": _n(MIXED_WARM, cfg), "clients": CLIENTS,
                        "shards": SHARDS, "open_rate": OPEN_RATE,
                        "open_requests": _n(OPEN_REQUESTS, cfg)},
              "reps": len(reps), "host_speed": round(speed.speed(), 4),
              "measured_wall_s": round(
                  median(r.elapsed_s for r in reports), 5),
              "rep_wall_s": [round(r.elapsed_s, 4) for r in timed],
              "max_version_lag": max(r["max_lag"] for r in reps)})
