"""Closed-loop load generator: throughput and latency percentiles.

Drives a live service with ``concurrency`` workers, each owning one
connection and issuing its next request only after the previous response
arrives (closed-loop — offered load adapts to service capacity, so the
measured throughput is the service's, not the generator's).  The request
schedule is a deterministic function of the seed: a seeded RNG draws from
the query mix, so a duplicate-heavy mix (few distinct queries, many
requests) exercises the coalescing and cache tiers reproducibly.

Latency percentiles use the nearest-rank definition (shared with the
observability histograms — :func:`repro.obs.metrics.percentile`):
``p(q)`` is the smallest observed latency such that at least ``q``
percent of samples are at or below it — an actual observation, never an
interpolated value.

A worker whose connection dies mid-run (reset, refused, EOF) records the
failure under the ``connection`` kind, reconnects, and keeps draining the
plan — a dropped socket costs one request, never a worker thread and the
plan's remaining share.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Any, Callable, Sequence

from ..core.errors import GraphError
from ..obs.metrics import percentile
from ..obs.tracing import SpanTracer, maybe_span
from .client import ServiceClient
from .protocol import OPS, QUERY_OPS, WRITE_OPS

#: Failure-kind tag for transport-level errors (dropped/refused/reset
#: connections) — distinct from every server-reported taxonomy kind.
CONNECTION_FAILURE_KIND = "connection"


@dataclass(frozen=True)
class Query:
    """One request template in the mix.

    ``tenant`` rides in the request frame when set (see
    :func:`assign_tenants`); ``None`` keeps the frame byte-identical to
    a tenantless request.
    """

    op: str                              # "run" | "characterize"
    params: dict[str, Any] = field(default_factory=dict)
    tenant: str | None = None


def workload_mix(workloads: Sequence[str] = ("BFS", "CComp", "kCore"),
                 datasets: Sequence[str] = ("ldbc",), *,
                 scale: float = 0.05, seeds: int = 1,
                 op: str = "run", machine: str = "scaled") -> list[Query]:
    """The distinct-query pool: every workload x dataset x seed combo.

    A small pool under many requests is the duplicate-heavy regime the
    cache and micro-batching tiers are built for; raise ``seeds`` to
    widen the pool and thin the duplicates.

    ``op="dyn_query"`` targets the mutable graph instead: those requests
    carry no ``machine`` (there is no characterization cell behind them)
    and answer with the snapshot version they read.
    """
    extra = {"machine": machine} if "machine" in OPS[op].params else {}
    return [Query(op=op, params={"workload": w, "dataset": d,
                                 "scale": scale, "seed": s, **extra})
            for w in workloads for d in datasets for s in range(seeds)]


def schedule(mix: Sequence[Query], n_requests: int,
             seed: int = 0, *, dataset_skew: float = 0.0,
             write_mix: float = 0.0,
             write_factory: "Callable[[random.Random], Query] | None"
             = None,
             query_mix: float = 0.0,
             query_factory: "Callable[[random.Random], Query] | None"
             = None) -> list[Query]:
    """Deterministic request sequence: seeded draws from the mix.

    ``dataset_skew <= 0`` draws uniformly (byte-identical to the
    historical stream for a given seed).  ``dataset_skew > 0`` draws the
    *dataset* from a Zipf distribution — weight ``1/(rank+1)^skew``,
    ranked by first appearance in the mix — then uniformly among that
    dataset's queries.  Skewed plans are what make a sharded cluster's
    placement interesting: a hot dataset concentrates load on one
    replica set, the imbalance :func:`plan_imbalance` quantifies.

    ``write_mix`` in (0, 1] interleaves mutation traffic: each slot is a
    write with that probability, drawn from ``write_factory(rng)`` (see
    :func:`churn_write_factory`).  ``query_mix`` interleaves pipeline-DSL
    queries the same way, drawn from ``query_factory(rng)`` (see
    :func:`dsl_query_factory`); both mixes share one slot draw, so they
    must sum to at most 1.  At ``write_mix=query_mix=0`` the RNG draw
    sequence is untouched, so existing plans stay byte-identical.
    """
    if not mix:
        raise ValueError("query mix is empty")
    if not 0 <= write_mix <= 1:
        raise ValueError("write_mix must be in [0, 1]")
    if not 0 <= query_mix <= 1:
        raise ValueError("query_mix must be in [0, 1]")
    if write_mix + query_mix > 1:
        raise ValueError("write_mix + query_mix must be <= 1")
    if write_mix > 0 and write_factory is None:
        raise ValueError("write_mix > 0 requires a write_factory")
    if query_mix > 0 and query_factory is None:
        raise ValueError("query_mix > 0 requires a query_factory")
    rng = random.Random(f"loadgen:{seed}")
    if dataset_skew <= 0:
        def draw_read() -> Query:
            return mix[rng.randrange(len(mix))]
    else:
        groups: dict[str, list[Query]] = {}
        for q in mix:
            groups.setdefault(str(q.params.get("dataset", "ldbc")),
                              []).append(q)
        names = list(groups)
        # cumulative weights precomputed once: ``choices(weights=...)``
        # re-accumulates the weight list on every draw, which is O(k)
        # avoidable work inside the hot sampling loop.  The draw stream
        # is unchanged — choices() consumes the same random() values
        # whether handed raw or cumulative weights.
        cum_weights = list(accumulate(
            1.0 / (rank + 1) ** dataset_skew
            for rank in range(len(names))))

        def draw_read() -> Query:
            dataset = rng.choices(names, cum_weights=cum_weights)[0]
            pool = groups[dataset]
            return pool[rng.randrange(len(pool))]

    if write_mix <= 0 and query_mix <= 0:
        return [draw_read() for _ in range(n_requests)]

    def draw_slot() -> Query:
        r = rng.random()
        if r < write_mix:
            return write_factory(rng)
        if r < write_mix + query_mix:
            return query_factory(rng)
        return draw_read()
    return [draw_slot() for _ in range(n_requests)]


def assign_tenants(plan: Sequence[Query], n_tenants: int, *,
                   skew: float = 0.0, seed: int = 0,
                   prefix: str = "tenant") -> list[Query]:
    """Stamp a tenant identity onto every request in a plan.

    Tenants are drawn from their own RNG stream
    (``Random(f"tenants:{seed}")``), so stamping tenants onto an
    existing plan never perturbs the read/write draw sequence — the
    requests' *content* stays byte-identical, only the ``tenant`` frame
    field appears.  ``skew <= 0`` spreads requests uniformly;
    ``skew > 0`` draws the tenant Zipf-style (weight
    ``1/(rank+1)^skew``), which is the noisy-neighbour regime the QoS
    isolation bench measures: tenant 0 dominates the request stream.
    """
    if n_tenants < 1:
        raise ValueError("n_tenants must be >= 1")
    rng = random.Random(f"tenants:{seed}")
    names = [f"{prefix}-{i}" for i in range(n_tenants)]
    if skew <= 0:
        def draw() -> str:
            return names[rng.randrange(n_tenants)]
    else:
        cum_weights = list(accumulate(
            1.0 / (rank + 1) ** skew for rank in range(n_tenants)))

        def draw() -> str:
            return rng.choices(names, cum_weights=cum_weights)[0]
    return [replace(q, tenant=draw()) for q in plan]


def churn_write_factory(dataset: str, n_vertices: int, *,
                        scale: float = 0.05, seed: int = 0,
                        batch: int = 8
                        ) -> Callable[[random.Random], Query]:
    """A ``write_factory`` for :func:`schedule`: each write is one
    ``mutate`` batch of deterministic edge churn against the mutable
    graph identified by ``(dataset, scale, seed)``."""
    from ..dynamic.ops import churn_ops

    def factory(rng: random.Random) -> Query:
        return Query(op="mutate", params={
            "dataset": dataset, "scale": scale, "seed": seed,
            "ops": churn_ops(rng, n_vertices, batch)})
    return factory


def dsl_query_factory(datasets: Sequence[str], *, scale: float = 0.05,
                      seed: int = 0
                      ) -> Callable[[random.Random], Query]:
    """A ``query_factory`` for :func:`schedule`: each draw is one
    pipeline-DSL ``query`` request sampled uniformly from the
    :func:`~repro.query.templates.query_template_pool` covering
    ``datasets`` — every kernel and aggregate shape, reproducibly."""
    from ..query import query_template_pool
    pool = query_template_pool(datasets, scale=scale, seed=seed)

    def factory(rng: random.Random) -> Query:
        return Query(op="query",
                     params={"q": pool[rng.randrange(len(pool))]})
    return factory


def plan_imbalance(plan: Sequence[Query],
                   owner_of: Callable[[str], str]) -> float:
    """Load imbalance a plan induces across owners (max/mean, 1.0 =
    perfectly balanced — :meth:`repro.parallel.partition.Partition.
    imbalance` applied to request counts).

    ``owner_of`` maps a dataset key to its owner: a shard name via
    ``ring.owner`` for per-shard imbalance, or the identity function for
    per-dataset imbalance.
    """
    import numpy as np

    from ..parallel.partition import Partition
    if not plan:
        return 1.0
    owners = [owner_of(str(q.params.get("dataset", "ldbc")))
              for q in plan]
    index = {name: i for i, name in enumerate(sorted(set(owners)))}
    owner = np.array([index[o] for o in owners], dtype=np.int64)
    return Partition(owner, len(index)).imbalance()


@dataclass
class LoadReport:
    """Outcome of one closed-loop run."""

    requests: int
    ok: int
    failed: int
    failures_by_kind: dict[str, int]
    elapsed_s: float
    latencies_ms: list[float]            # successful requests, sorted
    served: dict[str, int]               # cache / coalesced / executed
    degraded: int = 0                    # ok responses marked degraded
    max_staleness_s: float = 0.0         # worst disclosed staleness age
    # read/write/query split (writes = WRITE_OPS requests, queries =
    # QUERY_OPS requests, reads = the rest; all sorted)
    read_latencies_ms: list[float] = field(default_factory=list)
    write_latencies_ms: list[float] = field(default_factory=list)
    query_latencies_ms: list[float] = field(default_factory=list)
    # worst (max committed write version seen) - (read's answered
    # version) over the run: the measured staleness bound in versions
    max_version_lag: int = 0
    # tenant -> that tenant's successful-request latencies (sorted);
    # populated only when the plan carries tenant identities
    tenant_latencies_ms: dict[str, list[float]] = field(
        default_factory=dict)
    # tenant -> failure-kind -> count (quota rejections land here)
    tenant_failures: dict[str, dict[str, int]] = field(
        default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def availability(self) -> float:
        """Fraction of requests answered (fresh or degraded)."""
        return self.ok / self.requests if self.requests else 0.0

    def latency_ms(self, q: float) -> float:
        return percentile(self.latencies_ms, q)

    @staticmethod
    def _lat_summary(lat: list[float]) -> dict[str, Any]:
        if not lat:
            return {"mean": None, "p50": None, "p95": None, "p99": None,
                    "max": None}
        return {"mean": round(sum(lat) / len(lat), 3),
                "p50": round(percentile(lat, 50), 3),
                "p95": round(percentile(lat, 95), 3),
                "p99": round(percentile(lat, 99), 3),
                "max": round(lat[-1], 3)}

    def summary(self) -> dict[str, Any]:
        lat = self.latencies_ms
        out = {"requests": self.requests, "ok": self.ok,
                "failed": self.failed,
                "degraded": self.degraded,
                "max_staleness_s": round(self.max_staleness_s, 3),
                "availability": round(self.availability, 4),
                "failures_by_kind": dict(self.failures_by_kind),
                "elapsed_s": round(self.elapsed_s, 6),
                "throughput_rps": round(self.throughput_rps, 3),
                "latency_ms": self._lat_summary(lat),
                "served": dict(self.served)}
        if self.write_latencies_ms:
            out["read_latency_ms"] = self._lat_summary(
                self.read_latencies_ms)
            out["write_latency_ms"] = self._lat_summary(
                self.write_latencies_ms)
            out["max_version_lag"] = self.max_version_lag
        if self.query_latencies_ms:
            out["query_latency_ms"] = self._lat_summary(
                self.query_latencies_ms)
        if self.tenant_latencies_ms or self.tenant_failures:
            tenants = sorted(set(self.tenant_latencies_ms)
                             | set(self.tenant_failures))
            out["per_tenant"] = {
                t: {"ok": len(self.tenant_latencies_ms.get(t, [])),
                    "latency_ms": self._lat_summary(
                        self.tenant_latencies_ms.get(t, [])),
                    "failures": dict(self.tenant_failures.get(t, {}))}
                for t in tenants}
        return out

    def format(self) -> str:
        s = self.summary()
        lat = s["latency_ms"]
        lines = [f"requests     {self.requests} "
                 f"({self.ok} ok, {self.failed} failed)",
                 f"elapsed      {s['elapsed_s']:.3f}s",
                 f"throughput   {s['throughput_rps']:.1f} req/s",
                 f"latency ms   p50={lat['p50']} p95={lat['p95']} "
                 f"p99={lat['p99']} max={lat['max']}",
                 f"served       {s['served']}"]
        if "write_latency_ms" in s:
            r, w = s["read_latency_ms"], s["write_latency_ms"]
            lines.append(f"read ms      p50={r['p50']} p95={r['p95']} "
                         f"p99={r['p99']} max={r['max']}")
            lines.append(f"write ms     p50={w['p50']} p95={w['p95']} "
                         f"p99={w['p99']} max={w['max']}")
            lines.append(f"version lag  max {s['max_version_lag']} "
                         f"version(s) behind committed")
        if "query_latency_ms" in s:
            q = s["query_latency_ms"]
            lines.append(f"query ms     p50={q['p50']} p95={q['p95']} "
                         f"p99={q['p99']} max={q['max']}")
        for t, row in s.get("per_tenant", {}).items():
            lat_t = row["latency_ms"]
            extra = (f" failures={row['failures']}"
                     if row["failures"] else "")
            lines.append(f"{t:<12} ok={row['ok']} p50={lat_t['p50']} "
                         f"p99={lat_t['p99']}{extra}")
        if self.degraded:
            lines.append(f"degraded     {self.degraded} "
                         f"(max staleness {s['max_staleness_s']}s)")
        if self.failures_by_kind:
            lines.append(f"failures     {dict(self.failures_by_kind)}")
        return "\n".join(lines)


class LoadGenerator:
    """Closed-loop driver: N workers, one connection each.

    ``client_factory`` is injectable for tests (fault simulation without
    a real socket); ``tracer`` records one span per request
    (``request:<op>``, tagged with how it was served or why it failed).
    """

    def __init__(self, host: str, port: int, *, concurrency: int = 8,
                 timeout_s: float = 300.0,
                 deadline_s: float | None = None,
                 client_factory: Callable[[], ServiceClient] | None = None,
                 tracer: SpanTracer | None = None):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.host = host
        self.port = port
        self.concurrency = concurrency
        self.timeout_s = timeout_s
        self.deadline_s = deadline_s
        self.tracer = tracer
        self._make_client = client_factory or (
            lambda: ServiceClient(self.host, self.port,
                                  timeout_s=self.timeout_s))

    def run(self, plan: Sequence[Query]) -> LoadReport:
        """Issue every request in ``plan`` across the worker pool."""
        lock = threading.Lock()
        cursor = iter(plan)
        latencies: list[float] = []
        read_latencies: list[float] = []
        write_latencies: list[float] = []
        query_latencies: list[float] = []
        failures: dict[str, int] = {}
        served: dict[str, int] = {}
        ok_count = [0]
        fail_count = [0]
        degraded_count = [0]
        max_staleness = [0.0]
        # version-lag tracking: the highest version any write committed
        # vs the version each read's answer discloses
        max_committed = [0]
        max_lag = [0]

        tenant_lat: dict[str, list[float]] = {}
        tenant_fail: dict[str, dict[str, int]] = {}

        def record_failure(kind: str, tenant: str | None) -> None:
            with lock:
                fail_count[0] += 1
                failures[kind] = failures.get(kind, 0) + 1
                if tenant is not None:
                    by_kind = tenant_fail.setdefault(tenant, {})
                    by_kind[kind] = by_kind.get(kind, 0) + 1

        def worker() -> None:
            client = self._make_client()
            try:
                while True:
                    with lock:
                        query = next(cursor, None)
                    if query is None:
                        return
                    if query.tenant is not None:
                        # one connection serves whichever tenant drew
                        # this slot; the identity travels per-frame
                        client.tenant = query.tenant
                    t0 = time.perf_counter()
                    with maybe_span(self.tracer, f"request:{query.op}",
                                    **query.params) as span_args:
                        try:
                            result = client.request(
                                query.op, deadline_s=self.deadline_s,
                                **query.params)
                        except GraphError as e:
                            kind = getattr(e, "kind", "internal")
                            span_args["failed"] = kind
                            record_failure(kind, query.tenant)
                            continue
                        except OSError:
                            # dropped/refused/reset connection: the
                            # request failed, the worker must not — count
                            # it and reconnect for the rest of the plan
                            span_args["failed"] = CONNECTION_FAILURE_KIND
                            record_failure(CONNECTION_FAILURE_KIND,
                                           query.tenant)
                            client.close()
                            client = self._make_client()
                            continue
                        how = (result or {}).get("served") or "unknown"
                        span_args["served"] = how
                        is_degraded = bool((result or {}).get("degraded"))
                        staleness = float(
                            (result or {}).get("staleness_s") or 0.0)
                        if is_degraded:
                            span_args["degraded"] = True
                    dt_ms = (time.perf_counter() - t0) * 1e3
                    is_write = query.op in WRITE_OPS
                    is_query = query.op in QUERY_OPS
                    version = (result or {}).get("version")
                    with lock:
                        ok_count[0] += 1
                        latencies.append(dt_ms)
                        (write_latencies if is_write
                         else query_latencies if is_query
                         else read_latencies).append(dt_ms)
                        if query.tenant is not None:
                            tenant_lat.setdefault(query.tenant,
                                                  []).append(dt_ms)
                        served[how] = served.get(how, 0) + 1
                        if isinstance(version, int):
                            if is_write:
                                if version > max_committed[0]:
                                    max_committed[0] = version
                            else:
                                lag = max_committed[0] - version
                                if lag > max_lag[0]:
                                    max_lag[0] = lag
                        if is_degraded:
                            degraded_count[0] += 1
                            if staleness > max_staleness[0]:
                                max_staleness[0] = staleness
            finally:
                client.close()

        threads = [threading.Thread(target=worker, daemon=True,
                                    name=f"loadgen-{i}")
                   for i in range(self.concurrency)]
        t_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t_start
        latencies.sort()
        read_latencies.sort()
        write_latencies.sort()
        query_latencies.sort()
        for lat in tenant_lat.values():
            lat.sort()
        return LoadReport(requests=len(plan), ok=ok_count[0],
                          failed=fail_count[0],
                          failures_by_kind=failures, elapsed_s=elapsed,
                          latencies_ms=latencies, served=served,
                          degraded=degraded_count[0],
                          max_staleness_s=max_staleness[0],
                          read_latencies_ms=read_latencies,
                          write_latencies_ms=write_latencies,
                          query_latencies_ms=query_latencies,
                          max_version_lag=max_lag[0],
                          tenant_latencies_ms=tenant_lat,
                          tenant_failures=tenant_fail)
