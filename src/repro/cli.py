"""Command-line interface: run, characterize, and report GraphBIG
workloads without writing Python.

Examples::

    python -m repro list --json
    python -m repro run BFS --dataset ldbc --scale 0.25
    python -m repro characterize TC --dataset twitter --scale 0.1
    python -m repro gpu CComp --dataset roadnet --scale 0.25
    python -m repro datasets
    python -m repro matrix --scale 0.05 --timeout 120 --retries 2 \\
        --checkpoint sweep.jsonl --out results/
    python -m repro matrix --scale 0.05 --resume --checkpoint sweep.jsonl
    python -m repro serve --port 7421 --workers 4
    python -m repro query run BFS --dataset ldbc --scale 0.1
    python -m repro query dyn_query BFS --dataset ldbc --scale 0.05
    python -m repro query-lang \\
        "from twitter | bfs root=42 depth<=3 | topk degree 10"
    python -m repro query-lang "from ldbc | cc | count" --explain
    python -m repro mutate --dataset ldbc --add-edge 3,9 --del-edge 0,1
    python -m repro loadgen --requests 200 --concurrency 16
    python -m repro loadgen --requests 200 --op dyn_query \\
        --workloads BFS,CComp --write-mix 0.3
    python -m repro stats --port 7421 --format prom
    python -m repro --log-level info --log-json serve
    python -m repro matrix --scale 0.05 --chaos-rate 0.2 \\
        --trace-out trace.json   # open in about:tracing
    python -m repro cluster serve --shards 4 --replication 2
    python -m repro cluster query run BFS --dataset roadnet --scale 0.05
    python -m repro cluster query-lang "from roadnet | topk degree 10"
    python -m repro cluster loadgen --spawn --shards 4 --requests 200 \\
        --dataset-skew 1.2 --query-mix 0.3
    python -m repro cluster plan --shards 4 --add shard-4 --synthetic 2000
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def _spec(args):
    from .datagen.registry import make
    return make(args.dataset, scale=args.scale, seed=args.seed)


def cmd_list(args) -> int:
    from .service.server import workloads_payload
    if getattr(args, "json", False):
        print(json.dumps(workloads_payload(), indent=2))
        return 0
    from .workloads import table4
    print(f"{'workload':8s} {'category':26s} {'ctype':11s} {'gpu':4s} "
          "algorithm")
    for r in table4():
        print(f"{r.workload:8s} {r.category:26s} "
              f"{r.computation_type:11s} {'yes' if r.gpu else 'no':4s} "
              f"{r.algorithm}")
    return 0


def cmd_datasets(args) -> int:
    from .service.server import datasets_payload
    if getattr(args, "json", False):
        print(json.dumps(datasets_payload(), indent=2))
        return 0
    from .datagen.registry import REGISTRY
    print(f"{'key':10s} {'name':26s} {'source':12s} "
          f"{'paper V/E':>24s} {'default V':>10s}")
    for key, e in REGISTRY.items():
        print(f"{key:10s} {e.name:26s} {e.source.name:12s} "
              f"{e.paper_vertices:>10,}/{e.paper_edges:<12,} "
              f"{e.default_vertices:>9d}")
    return 0


def cmd_run(args) -> int:
    from .harness.runner import run_cpu_workload
    spec = _spec(args)
    print(f"dataset: {spec}")
    result, _ = run_cpu_workload(args.workload, spec,
                                 trace_store=args.trace_cache)
    for key, value in result.outputs.items():
        text = repr(value)
        print(f"  {key}: {text[:100] + '...' if len(text) > 100 else text}")
    return 0


def cmd_characterize(args) -> int:
    from .arch.machine import describe
    from .harness import characterize
    from .harness.runner import SCALED_XEON
    spec = _spec(args)
    print(f"dataset: {spec}")
    print(f"machine: {describe(SCALED_XEON)}")
    row = characterize(args.workload, spec, trace_store=args.trace_cache)
    for key, value in sorted(row.cpu.summary().items()):
        print(f"  {key:22s} {value:12.4f}")
    return 0


def cmd_gpu(args) -> int:
    from .gpu import run_gpu_workload
    spec = _spec(args)
    print(f"dataset: {spec}")
    _, metrics = run_gpu_workload(args.workload, spec)
    for key, value in sorted(metrics.summary().items()):
        print(f"  {key:18s} {value:12.6f}")
    return 0


def cmd_matrix(args) -> int:
    from .harness.export import export_all
    from .harness.report import failure_table, format_table, matrix_table
    from .harness.runner import CPU_WORKLOADS, GPU_WORKLOAD_SET
    from .resilience import (
        ChaosSpec,
        CheckpointStore,
        ExecutorConfig,
        RetryPolicy,
        matrix_cells,
        run_matrix,
    )

    from .datagen.registry import REGISTRY
    from .workloads import WORKLOADS

    workloads = (CPU_WORKLOADS if args.workloads == "all"
                 else tuple(args.workloads.split(",")))
    datasets = tuple(args.datasets.split(","))
    # config errors are deterministic: fail fast instead of burning the
    # per-cell retry budget on a name that can never resolve
    bad_w = sorted(set(workloads) - set(WORKLOADS))
    bad_d = sorted(set(datasets) - set(REGISTRY))
    if bad_w or bad_d:
        if bad_w:
            print(f"error: unknown workload(s) {', '.join(bad_w)}; "
                  f"choose from {', '.join(sorted(WORKLOADS))}",
                  file=sys.stderr)
        if bad_d:
            print(f"error: unknown dataset(s) {', '.join(bad_d)}; "
                  f"choose from {', '.join(sorted(REGISTRY))}",
                  file=sys.stderr)
        return 2
    if args.retries < 0 or args.timeout <= 0:
        print("error: --retries must be >= 0 and --timeout > 0",
              file=sys.stderr)
        return 2
    cells = matrix_cells(workloads, datasets, scale=args.scale,
                         seed=args.seed, machine=args.machine,
                         with_gpu=args.gpu,
                         gpu_workloads=GPU_WORKLOAD_SET,
                         trace_store=args.trace_cache)
    config = ExecutorConfig(
        timeout_s=args.timeout,
        policy=RetryPolicy(max_retries=args.retries, seed=args.seed),
        isolation=args.isolation)
    chaos = (ChaosSpec(p_fault=args.chaos_rate, seed=args.chaos_seed,
                       kinds=("crash", "oom", "hang"))
             if args.chaos_rate > 0 else None)
    checkpoint = CheckpointStore(args.checkpoint) if args.checkpoint else None
    if args.resume and checkpoint is None:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    print(f"matrix: {len(cells)} cells "
          f"({len(workloads)} workloads x {len(datasets)} datasets), "
          f"timeout {args.timeout:g}s, {args.retries} retries"
          + (", resuming" if args.resume else ""))
    from .obs import MetricsRegistry, SpanTracer, counter_total
    from .obs.tracing import set_global_tracer
    registry = MetricsRegistry()
    tracer = SpanTracer() if args.trace_out else None
    if tracer is not None:
        # global install so inline-isolation characterize phases nest
        # under the per-cell spans (subprocess workers cannot report)
        set_global_tracer(tracer)
    try:
        result = run_matrix(cells, config=config, chaos=chaos,
                            checkpoint=checkpoint, resume=args.resume,
                            progress=lambda line: print(f"  {line}"),
                            tracer=tracer, registry=registry)
    finally:
        if tracer is not None:
            set_global_tracer(None)
    print(f"\ncompleted {len(result.rows)}/{result.total_cells} cells "
          f"({result.resumed} resumed, {result.executed} executed, "
          f"{len(result.failures)} failed)")
    snap = registry.snapshot()
    retries = counter_total(snap, "matrix_retries_total")
    if retries or result.failures:
        faults = {s["labels"]["kind"]: int(s["value"])
                  for s in snap.get("matrix_faults_total",
                                    {}).get("samples", [])}
        print(f"retries: {int(retries)}, faults by kind: {faults}")
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out)
        print(f"wrote Chrome trace ({len(tracer)} spans) to "
              f"{args.trace_out} — open in about:tracing")
    print()
    print(matrix_table(result.rows, result.failures, metric=args.metric))
    if result.failures:
        print()
        print(format_table(
            ["workload", "dataset", "failure", "attempts", "detail"],
            failure_table(result.failures), title="failed cells"))
    if args.out:
        written = export_all(result.rows, args.out,
                             failures=result.failures)
        print()
        for path in written:
            print(f"wrote {path}")
    return 0 if result.complete else 1


def _build_service(args):
    """Construct a GraphService from serve/loadgen-style args."""
    from .resilience import ChaosSpec
    from .service import CacheTiers, GraphService, PoolConfig
    caches = (CacheTiers.build(dataset_capacity=0, row_capacity=0)
              if args.no_cache
              else CacheTiers.build(row_capacity=args.cache_size))
    chaos = (ChaosSpec(p_fault=args.chaos_rate, seed=args.chaos_seed,
                       kinds=("crash", "oom"))
             if args.chaos_rate > 0 else None)
    governor = None
    if getattr(args, "qos", False):
        from .tenancy import QosConfig, TenantGovernor, TenantPolicy
        governor = TenantGovernor(QosConfig(
            default_policy=TenantPolicy(rate=args.qos_rate,
                                        burst=args.qos_burst),
            row_capacity=args.cache_size))
    return GraphService(
        pool_config=PoolConfig(size=args.workers,
                               isolation=args.isolation,
                               timeout_s=args.timeout,
                               retries=args.retries),
        max_pending=args.max_pending,
        caches=caches, chaos=chaos, governor=governor)


def cmd_serve(args) -> int:
    import asyncio

    service = _build_service(args)

    async def _serve() -> None:
        port = await service.start(args.host, args.port)
        print(f"repro service listening on {args.host}:{port} "
              f"({args.workers} workers, {args.isolation} isolation, "
              f"cache {'off' if args.no_cache else 'on'})")
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _ask(args, call):
    """Run ``call(client)`` against the server at ``--host/--port``.
    Returns ``(result, 0)``, or ``(None, exit_code)`` after printing
    why: nothing listening (2) or the server's typed error (1)."""
    from .core.errors import ServiceError
    from .service import ServiceClient

    try:
        with ServiceClient(args.host, args.port,
                           timeout_s=args.timeout) as client:
            return call(client), 0
    except ConnectionRefusedError:
        print(f"error: no service at {args.host}:{args.port} "
              "(start one with `python -m repro serve` or "
              "`python -m repro cluster serve`)", file=sys.stderr)
        return None, 2
    except ServiceError as e:
        print(json.dumps({"kind": getattr(e, "kind", "service"),
                          "message": getattr(e, "message", str(e)),
                          "shard": getattr(e, "shard", None)}),
              file=sys.stderr)
        return None, 1


#: The request params `repro query`'s flags can fill; the ops it offers
#: are the routed ones that need nothing else.
_QUERY_FLAGS = frozenset({"workload", "dataset", "scale", "seed", "machine",
                          "gpu", "root"})


def cmd_query(args) -> int:
    from .service.protocol import OPS
    wanted = OPS[args.op].params
    if "workload" in wanted and not args.workload:
        print(f"error: op {args.op!r} requires a workload",
              file=sys.stderr)
        return 2
    params = {name: getattr(args, name) for name in wanted}
    result, rc = _ask(args, lambda c: c.request(args.op, **params))
    if rc == 0:
        print(json.dumps(result, indent=2, sort_keys=True))
    return rc


def cmd_query_lang(args) -> int:
    op = "explain" if args.explain else "query"
    result, rc = _ask(args, lambda c: c.request(op, q=args.query))
    if rc != 0:
        return rc
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    if args.explain:
        from .query.plan import render_plan
        print(render_plan(result["plan"]))
        print(f"digest:  {result['digest']} "
              f"(plan_cached={result['plan_cached']})")
        return 0
    table = result["table"]
    widths = [max(len(str(c)),
                  *(len(str(row[i])) for row in table["rows"]))
              if table["rows"] else len(str(c))
              for i, c in enumerate(table["columns"])]
    print("  ".join(str(c).ljust(w)
                    for c, w in zip(table["columns"], widths)))
    for row in table["rows"]:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    trailer = (f"({result['rows']} rows, plan {result['plan']}, "
               f"served {result.get('served', '?')}")
    if result.get("version") is not None:
        trailer += f", version {result['version']}"
    print(trailer + ")")
    return 0


def _parse_mutate_flags(args) -> list[dict]:
    """Turn the repeatable ``mutate`` flags + optional --ops file into
    wire op dicts (validation happens server-side)."""
    ops: list[dict] = []
    for vid in args.add_vertex:
        ops.append({"op": "add_vertex", "vid": int(vid)})
    for vid in args.del_vertex:
        ops.append({"op": "del_vertex", "vid": int(vid)})
    for kind, pairs in (("add_edge", args.add_edge),
                        ("del_edge", args.del_edge)):
        for pair in pairs:
            src, dst = pair.split(",", 1)
            ops.append({"op": kind, "src": int(src), "dst": int(dst)})
    for triple in args.set_prop:
        vid, name, value = triple.split(",", 2)
        ops.append({"op": "set_prop", "vid": int(vid),
                    "name": name, "value": value})
    if args.ops:
        raw = (sys.stdin.read() if args.ops == "-"
               else pathlib.Path(args.ops).read_text())
        extra = json.loads(raw)
        if not isinstance(extra, list):
            raise ValueError("--ops file must hold a JSON list of ops")
        ops.extend(extra)
    return ops


def cmd_mutate(args) -> int:
    try:
        ops = _parse_mutate_flags(args)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: bad mutation spec: {e}", file=sys.stderr)
        return 2
    if not ops:
        print("error: no ops given (use --add-edge/--del-edge/"
              "--add-vertex/--del-vertex/--set-prop or --ops FILE)",
              file=sys.stderr)
        return 2
    result, rc = _ask(args, lambda c: c.mutate(
        args.dataset, ops, scale=args.scale, seed=args.seed,
        strict=args.strict))
    if rc == 0:
        print(json.dumps(result, indent=2, sort_keys=True))
    return rc


def _write_factory(args):
    """Build the loadgen mutation factory from --write-mix knobs
    (writes churn the first listed dataset's mutable graph)."""
    if args.write_mix <= 0:
        return None
    from .datagen.registry import scaled_vertices
    from .service.loadgen import churn_write_factory
    dataset = args.datasets.split(",")[0]
    return churn_write_factory(
        dataset, scaled_vertices(dataset, args.scale),
        scale=args.scale, seed=0, batch=args.write_batch)


def _query_factory(args):
    """Build the loadgen DSL-query factory from --query-mix knobs
    (queries sample the template pool over the listed datasets)."""
    if args.query_mix <= 0:
        return None
    from .service.loadgen import dsl_query_factory
    return dsl_query_factory(tuple(args.datasets.split(",")),
                             scale=args.scale, seed=0)


def _stamp_tenants(plan, args):
    """Apply --tenants/--tenant-skew: stamp a tenant identity onto every
    request (a separate RNG stream, so the request content is unchanged
    from the tenantless plan)."""
    if args.tenants <= 0:
        return plan
    from .service.loadgen import assign_tenants
    return assign_tenants(plan, args.tenants, skew=args.tenant_skew,
                          seed=args.seed)


def cmd_loadgen(args) -> int:
    """``repro loadgen`` and ``repro cluster loadgen``: one plan, one
    closed loop; the cluster form differs in what ``--spawn`` boots and
    in reporting the plan's per-shard imbalance."""
    from .obs import SpanTracer
    from .service import LoadGenerator, ServiceThread, schedule, workload_mix
    from .service.loadgen import plan_imbalance

    cluster = args.command == "cluster"
    mix = workload_mix(tuple(args.workloads.split(",")),
                       tuple(args.datasets.split(",")),
                       scale=args.scale, seeds=args.seeds, op=args.op)
    skew = args.dataset_skew
    plan = schedule(mix, args.requests, seed=args.seed,
                    dataset_skew=skew,
                    write_mix=args.write_mix,
                    write_factory=_write_factory(args),
                    query_mix=args.query_mix,
                    query_factory=_query_factory(args))
    plan = _stamp_tenants(plan, args)
    tracer = SpanTracer() if args.trace_out else None
    gen_args = dict(concurrency=args.concurrency, timeout_s=args.timeout,
                    deadline_s=args.deadline, tracer=tracer)
    imb_ds = plan_imbalance(plan, lambda d: d)
    if cluster:
        spec = _cluster_spec(args)
        imb_shard = plan_imbalance(plan, spec.ring().owner)
    if not args.json and cluster:
        print(f"cluster loadgen: {args.requests} requests, "
              f"{args.shards} shards, replication {args.replication}, "
              f"dataset skew {skew:g}")
        print(f"plan: imbalance {imb_ds:.2f}x across datasets, "
              f"{imb_shard:.2f}x across shards (max/mean)")
    elif not args.json:
        print(f"loadgen: {args.requests} requests over {len(mix)} "
              f"distinct queries, {args.concurrency} closed-loop workers"
              + (f", dataset skew {skew:g}" if skew > 0 else ""))
        if "," in args.datasets:
            print(f"plan: per-dataset load imbalance {imb_ds:.2f}x "
                  "(max/mean; 1.0 = uniform)")
    stats = None
    if args.spawn and cluster:
        from .cluster import ClusterThread
        with ClusterThread(spec, host=args.host) as booted:
            report = LoadGenerator(args.host, booted.router_port,
                                   **gen_args).run(plan)
    elif args.spawn:
        service = _build_service(args)
        with ServiceThread(service) as st:
            report = LoadGenerator(st.host, st.port, **gen_args).run(plan)
            stats = service.stats()
    else:
        # nothing listening is not an exception here: the generator's
        # workers count refused connections as failed requests
        report = LoadGenerator(args.host, args.port,
                               **gen_args).run(plan)
    if tracer is not None:
        tracer.write_chrome_trace(args.trace_out)
        if not args.json:
            print(f"wrote Chrome trace ({len(tracer)} spans) to "
                  f"{args.trace_out}")
    if args.json:
        payload = report.summary()
        if stats is not None:
            payload["server_stats"] = stats
        if cluster:
            payload["imbalance"] = {"datasets": round(imb_ds, 4),
                                    "shards": round(imb_shard, 4)}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.format())
        if stats is not None:
            print("server       scheduler=" + str({
                s["labels"]["outcome"]: int(s["value"]) for s in
                stats["metrics"]["scheduler_requests_total"]["samples"]}))
    return 0 if report.failed == 0 else 1


def cmd_stats(args) -> int:
    from .obs import counter_total, quantile_from_snapshot, \
        render_prometheus

    stats, rc = _ask(args, lambda c: c.stats())
    if rc != 0:
        return rc
    metrics = stats.get("metrics", {})
    if args.format == "json":
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    if args.format == "prom":
        sys.stdout.write(render_prometheus(metrics))
        return 0

    # human summary: the counters an operator reaches for first, read off
    # whichever families this server has (a router has no scheduler/pool)
    def n(name: str, **labels: str) -> int:
        return int(counter_total(metrics, name, **labels))

    lat_name = next((name for name in sorted(metrics)
                     if name.endswith("_request_latency_ms")), "")
    prefix = lat_name[:-len("_request_latency_ms")]
    lat = metrics.get(lat_name, {}).get("samples", [])
    print(f"server       {stats.get('server')} "
          f"(protocol {stats.get('protocol')}), "
          f"{n(f'{prefix}_connections_total')} connections")
    ops = {s["labels"].get("op"): s["count"] for s in lat}
    print(f"ops          {ops}")
    if "scheduler_requests_total" in metrics:
        print(f"scheduler    pending={n('scheduler_pending')} " + " ".join(
            f"{o}={n('scheduler_requests_total', outcome=o)}"
            for o in ("cache_hits", "coalesced", "executed", "rejected")))
    if "pool_executions_total" in metrics:
        failures = {s["labels"]["kind"]: int(s["value"])
                    for s in metrics["pool_failures_total"]["samples"]}
        print(f"pool         executed={n('pool_executions_total')} "
              f"failed={sum(failures.values())} "
              f"worker_restarts={n('pool_worker_restarts_total')} "
              f"failures={failures}")
    events = metrics.get("cache_events_total", {}).get("samples", [])
    for tier in sorted({s["labels"]["tier"] for s in events}):
        hits = n("cache_events_total", tier=tier, event="hits")
        misses = n("cache_events_total", tier=tier, event="misses")
        rate = round(hits / (hits + misses), 6) if hits else 0.0
        print(f"cache/{tier:9s} hits={hits} misses={misses} "
              f"hit_rate={rate}")
    rel = stats.get("reliability")
    if rel is not None:
        budget = rel.get("retry_budget", {})
        print(f"reliability  retry_budget "
              f"tokens={budget.get('tokens')} "
              f"granted={budget.get('granted')} "
              f"denied={budget.get('denied')}")
        for name, b in sorted(rel.get("breakers", {}).items()):
            print(f"breaker/{name:9s} state={b.get('state')} "
                  f"consecutive_failures="
                  f"{b.get('consecutive_failures')} "
                  f"transitions={b.get('transitions')}")
        hedge = rel.get("hedge", {})
        if hedge.get("quantile") is not None:
            print(f"hedge        p{hedge['quantile']:g} "
                  f"delay_s={hedge.get('delay_s')} "
                  f"samples={hedge.get('samples')}")
        stale = rel.get("stale")
        if stale is not None:
            print(f"stale-cache  entries={stale.get('entries')} "
                  f"stale_serves={stale.get('stale_serves')} "
                  f"cap_s={stale.get('cap_s')}")
    for sample in lat:
        op = sample.get("labels", {}).get("op", "?")
        if not sample.get("count"):
            continue
        p50 = quantile_from_snapshot(sample, 50)
        p95 = quantile_from_snapshot(sample, 95)
        p99 = quantile_from_snapshot(sample, 99)
        print(f"latency/{op:12s} n={sample['count']:<6d} "
              f"p50<={p50:g}ms p95<={p95:g}ms p99<={p99:g}ms")
    return 0


def _cluster_spec(args):
    from .cluster import ClusterSpec
    datasets = (tuple(args.datasets.split(","))
                if getattr(args, "datasets", None) else ())
    return ClusterSpec.of(args.shards, replication=args.replication,
                          vnodes=args.vnodes, datasets=datasets)


def cmd_cluster_serve(args) -> int:
    import time

    from .cluster import ClusterProcesses, ClusterThread
    from .cluster.router import ReliabilityConfig

    spec = _cluster_spec(args)
    harness_cls = ClusterProcesses if args.processes else ClusterThread
    reliability = ReliabilityConfig(hedge_quantile=args.hedge_quantile,
                                    stale_cap_s=args.stale_cap)
    kwargs = dict(host=args.host, port=args.port,
                  router_kwargs={"reliability": reliability})
    if args.processes:
        kwargs["isolation"] = args.isolation
        if args.netchaos:
            print("error: --netchaos requires thread shards "
                  "(drop --processes)", file=sys.stderr)
            return 2
    elif args.netchaos:
        kwargs["netchaos"] = True
        kwargs["netchaos_seed"] = args.netchaos_seed
        if args.chaos_latency_ms > 0:
            from .resilience.netchaos import NetFaultSpec
            kwargs["netchaos_faults"] = NetFaultSpec(
                latency_ms=args.chaos_latency_ms)
    with harness_cls(spec, **kwargs) as cluster:
        print(f"cluster router listening on {args.host}:"
              f"{cluster.router_port} ({args.shards} shards, "
              f"replication {args.replication}, "
              f"{'process' if args.processes else 'thread'} shards"
              f"{', netchaos' if getattr(args, 'netchaos', False) else ''})")
        for name, owned in sorted(cluster.assignment.items()):
            addr = (cluster.addresses[name]
                    if not args.processes
                    else cluster.shards[name].address)
            print(f"  {name:10s} {addr.host}:{addr.port:<6d} "
                  f"owns {', '.join(owned) or '(nothing)'}")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nshutting down cluster")
    return 0


def cmd_cluster_shard(args) -> int:
    import asyncio

    from .cluster import ShardService
    from .service import PoolConfig

    datasets = (frozenset(args.datasets.split(","))
                if args.datasets else None)
    service = ShardService(
        args.name, datasets,
        pool_config=PoolConfig(size=args.workers,
                               isolation=args.isolation))

    async def _serve() -> None:
        port = await service.start(args.host, args.port)
        # the one ready line a parent process harness blocks on
        print(json.dumps({"shard": args.name, "host": args.host,
                          "port": port}), flush=True)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_cluster_plan(args) -> int:
    from .cluster import HashRing, plan_rebalance, synthetic_keys
    from .datagen.registry import REGISTRY

    before_nodes = tuple(f"shard-{i}" for i in range(args.shards))
    after_nodes = tuple(before_nodes) + tuple(
        n for n in (args.add or []) if n not in before_nodes)
    after_nodes = tuple(n for n in after_nodes
                        if n not in set(args.remove or []))
    if not after_nodes:
        print("error: the change removes every shard", file=sys.stderr)
        return 2
    before = HashRing(before_nodes, vnodes=args.vnodes)
    after = HashRing(after_nodes, vnodes=args.vnodes)
    keys = (synthetic_keys(args.synthetic) if args.synthetic
            else sorted(REGISTRY))
    plan = plan_rebalance(before, after, keys)
    if args.json:
        print(json.dumps(plan.summary(), indent=2, sort_keys=True))
        return 0
    s = plan.summary()
    print(f"rebalance: {len(before.nodes)} -> {len(after.nodes)} shards "
          f"over {s['total_keys']} keys")
    print(f"moved: {s['moved']} keys ({100 * s['fraction_moved']:.1f}% "
          f"— a naive hash%N would move ~"
          f"{100 * (1 - 1 / len(after.nodes)):.0f}%)")
    for shard, counts in sorted(s["per_shard"].items()):
        if counts["gained"] or counts["lost"]:
            print(f"  {shard:10s} +{counts['gained']} -{counts['lost']}")
    return 0


def cmd_cluster(args) -> int:
    # the router speaks the service protocol: query, query-lang and
    # loadgen are the single-node handlers
    handler = {"serve": cmd_cluster_serve, "shard": cmd_cluster_shard,
               "query": cmd_query, "query-lang": cmd_query_lang,
               "loadgen": cmd_loadgen, "plan": cmd_cluster_plan}
    return handler[args.cluster_command](args)


def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    from .service.protocol import PROTOCOL_VERSION

    p = argparse.ArgumentParser(
        prog="repro",
        description="GraphBIG reproduction: run and characterize "
                    "graph-computing workloads")
    p.add_argument("--version", action="version",
                   version=f"repro {__version__} "
                           f"(protocol {PROTOCOL_VERSION})")
    p.add_argument("--log-level", default="warning",
                   choices=("debug", "info", "warning", "error"),
                   help="logging threshold for the repro.* loggers "
                        "(default: warning)")
    p.add_argument("--log-json", action="store_true",
                   help="structured JSON-lines log output (one object "
                        "per record, extra fields included)")
    sub = p.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list the 13 workloads (Table 4)")
    lst.add_argument("--json", action="store_true",
                     help="machine-readable output")
    ds = sub.add_parser("datasets",
                        help="list the dataset registry (Table 5)")
    ds.add_argument("--json", action="store_true",
                    help="machine-readable output")

    def add_common(sp):
        sp.add_argument("workload", help="workload name, e.g. BFS")
        sp.add_argument("--trace-cache", default=None, metavar="DIR",
                        help="content-addressed trace store directory: "
                             "run the workload once, replay everywhere")
        sp.add_argument("--dataset", default="ldbc",
                        help="registry dataset key (default: ldbc)")
        sp.add_argument("--scale", type=float, default=0.25,
                        help="dataset scale factor (default: 0.25)")
        sp.add_argument("--seed", type=int, default=0)

    add_common(sub.add_parser("run", help="run a workload, print outputs"))
    add_common(sub.add_parser(
        "characterize", help="run + CPU architectural characterization"))
    add_common(sub.add_parser("gpu", help="run the GPU kernel + metrics"))

    m = sub.add_parser(
        "matrix",
        help="resilient full-matrix sweep: isolation, timeout/retry, "
             "checkpoint-resume")
    m.add_argument("--workloads", default="all",
                   help="comma-separated workload names, or 'all' "
                        "(default: the 13 CPU workloads)")
    m.add_argument("--datasets",
                   default="twitter,knowledge,watson,roadnet,ldbc",
                   help="comma-separated registry dataset keys "
                        "(default: the Table 7 suite)")
    m.add_argument("--scale", type=float, default=0.25,
                   help="dataset scale factor (default: 0.25)")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--machine", default="scaled",
                   choices=("scaled", "test", "paper"),
                   help="named machine configuration (default: scaled)")
    m.add_argument("--gpu", action="store_true",
                   help="also run the GPU model on GPU-capable workloads")
    m.add_argument("--timeout", type=float, default=300.0,
                   help="per-cell wall-clock timeout in seconds "
                        "(default: 300)")
    m.add_argument("--retries", type=int, default=2,
                   help="retries per failing cell, exponential backoff "
                        "(default: 2)")
    m.add_argument("--resume", action="store_true",
                   help="skip cells already completed in --checkpoint")
    m.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="JSON-lines journal of completed cells "
                        "(enables resume)")
    m.add_argument("--out", default=None, metavar="DIR",
                   help="export CSV views (incl. failures.csv) here")
    m.add_argument("--metric", default="ipc",
                   help="metric for the printed grid (default: ipc)")
    m.add_argument("--isolation", default="process",
                   choices=("process", "inline"),
                   help="worker isolation; 'inline' skips subprocesses "
                        "(no real timeouts — debugging only)")
    m.add_argument("--chaos-rate", type=float, default=0.0,
                   help="deterministic fault-injection probability per "
                        "cell attempt (testing the harness itself)")
    m.add_argument("--chaos-seed", type=int, default=0,
                   help="seed for the chaos RNG (default: 0)")
    m.add_argument("--trace-cache", default=None, metavar="DIR",
                   help="content-addressed trace store: each (workload, "
                        "dataset) executes once; machine variants replay "
                        "the stored trace")
    m.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write per-cell spans (with retry children) as "
                        "Chrome Trace Event JSON — open in about:tracing")

    def add_service_knobs(sp):
        sp.add_argument("--workers", type=int, default=4,
                        help="concurrent execution slots (default: 4)")
        sp.add_argument("--isolation", default="process",
                        choices=("process", "inline"),
                        help="worker isolation; 'inline' skips "
                             "subprocesses (default: process)")
        sp.add_argument("--timeout", type=float, default=300.0,
                        help="per-request execution timeout in seconds "
                             "(default: 300)")
        sp.add_argument("--retries", type=int, default=0,
                        help="server-side retries per failing request "
                             "(default: 0 — clients decide)")
        sp.add_argument("--cache-size", type=int, default=1024,
                        help="row-cache capacity (default: 1024)")
        sp.add_argument("--no-cache", action="store_true",
                        help="run both result cache tiers at capacity 0")
        sp.add_argument("--max-pending", type=int, default=64,
                        help="admission limit on queued+running "
                             "executions (default: 64)")
        sp.add_argument("--chaos-rate", type=float, default=0.0,
                        help="deterministic worker fault-injection "
                             "probability (testing)")
        sp.add_argument("--chaos-seed", type=int, default=0)
        sp.add_argument("--qos", action="store_true",
                        help="enable per-tenant QoS: admission quotas, "
                             "weighted-fair scheduling, partitioned "
                             "cache shares")
        sp.add_argument("--qos-rate", type=float, default=200.0,
                        help="per-tenant admission rate in req/s "
                             "(default: 200)")
        sp.add_argument("--qos-burst", type=float, default=50.0,
                        help="per-tenant admission burst (default: 50)")

    sv = sub.add_parser(
        "serve",
        help="long-lived graph-query service: micro-batching, result "
             "caching, isolated workers")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7421,
                    help="TCP port (default: 7421; 0 picks a free one)")
    add_service_knobs(sv)

    from .cluster.router import ROUTER_PORT
    from .service.protocol import OPS
    query_ops = tuple(name for name, op in OPS.items()
                      if op.route is not None and op.params <= _QUERY_FLAGS)
    keyed_reads = tuple(name for name, op in OPS.items()
                        if op.route == "keyed-read")

    # query, query-lang and loadgen exist twice — against a service and
    # against a cluster router — from one flag definition each; only
    # the default port and the defaults named here differ
    def add_query_args(sp, port):
        sp.add_argument("op", choices=query_ops)
        sp.add_argument("workload", nargs="?", default=None,
                        help="workload name (run/characterize/dyn_query "
                             "only)")
        sp.add_argument("--dataset", default="ldbc")
        sp.add_argument("--scale", type=float, default=0.25)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--machine", default="scaled",
                        choices=("scaled", "test", "paper"))
        sp.add_argument("--gpu", action="store_true")
        sp.add_argument("--root", type=int, default=0,
                        help="BFS root vertex (dyn_query only)")
        sp.add_argument("--host", default="127.0.0.1")
        sp.add_argument("--port", type=int, default=port)
        sp.add_argument("--timeout", type=float, default=300.0)

    def add_query_lang_args(sp, port):
        sp.add_argument("query", help="pipeline DSL text: "
                                      "from DATASET | stage | stage ...")
        sp.add_argument("--explain", action="store_true",
                        help="print the physical plan with per-stage "
                             "cost estimates instead of executing")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        sp.add_argument("--host", default="127.0.0.1")
        sp.add_argument("--port", type=int, default=port)
        sp.add_argument("--timeout", type=float, default=300.0)

    def add_loadgen_args(sp, port, spawns, workloads, datasets):
        sp.add_argument("--host", default="127.0.0.1")
        sp.add_argument("--port", type=int, default=port)
        sp.add_argument("--spawn", action="store_true",
                        help=f"boot an in-process {spawns} for the run")
        sp.add_argument("--requests", type=int, default=200,
                        help="total requests to issue (default: 200)")
        sp.add_argument("--concurrency", type=int, default=16,
                        help="closed-loop workers (default: 16)")
        sp.add_argument("--workloads", default=workloads,
                        help="comma-separated workload mix")
        sp.add_argument("--datasets", default=datasets,
                        help="comma-separated dataset mix")
        sp.add_argument("--scale", type=float, default=0.05)
        sp.add_argument("--seeds", type=int, default=1,
                        help="distinct seeds per combo — widens the "
                             "query pool, thins duplicates (default: 1)")
        sp.add_argument("--seed", type=int, default=0,
                        help="schedule RNG seed (default: 0)")
        sp.add_argument("--op", default="run", choices=keyed_reads)
        sp.add_argument("--write-mix", type=float, default=0.0,
                        help="fraction of requests that are mutation "
                             "batches against the first-listed dataset "
                             "(default: 0 — read-only)")
        sp.add_argument("--write-batch", type=int, default=8,
                        help="ops per mutation batch (default: 8)")
        sp.add_argument("--query-mix", type=float, default=0.0,
                        help="fraction of requests that are pipeline-DSL "
                             "queries drawn from the template pool over "
                             "the listed datasets (default: 0)")
        sp.add_argument("--dataset-skew", type=float, default=0.0,
                        help="Zipf exponent over the dataset mix (0 = "
                             "uniform); skews request volume toward the "
                             "first-listed datasets")
        sp.add_argument("--tenants", type=int, default=0, metavar="N",
                        help="stamp each request with one of N tenant "
                             "identities (default: 0 — no tenant field "
                             "on the wire)")
        sp.add_argument("--tenant-skew", type=float, default=0.0,
                        help="Zipf exponent over tenants (0 = uniform); "
                             ">0 makes tenant-0 the noisy neighbour")
        sp.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="end-to-end deadline per request, "
                             "propagated on the wire (default: none)")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable report")

    add_query_args(sub.add_parser(
        "query", help="send one request to a running service, print "
                      "the JSON result (for pipeline-DSL queries use "
                      "`repro query-lang`)"), 7421)

    add_query_lang_args(sub.add_parser(
        "query-lang",
        help="run a pipeline-DSL query against a running service, "
             'e.g. "from twitter | bfs root=42 depth<=3 '
             '| topk degree 10"'), 7421)

    mu = sub.add_parser(
        "mutate",
        help="apply a mutation batch to a service's mutable graph: "
             "add/del vertices and edges, set vertex properties")
    mu.add_argument("--dataset", default="ldbc",
                    help="registry dataset whose mutable copy to edit")
    mu.add_argument("--scale", type=float, default=0.05)
    mu.add_argument("--seed", type=int, default=0)
    mu.add_argument("--add-vertex", action="append", default=[],
                    metavar="VID", help="add vertex VID (repeatable)")
    mu.add_argument("--del-vertex", action="append", default=[],
                    metavar="VID", help="remove vertex VID (repeatable)")
    mu.add_argument("--add-edge", action="append", default=[],
                    metavar="SRC,DST", help="add edge (repeatable)")
    mu.add_argument("--del-edge", action="append", default=[],
                    metavar="SRC,DST", help="remove edge (repeatable)")
    mu.add_argument("--set-prop", action="append", default=[],
                    metavar="VID,NAME,VALUE",
                    help="set vertex property (repeatable)")
    mu.add_argument("--ops", default=None, metavar="FILE",
                    help="JSON file with a list of op objects "
                         "('-' reads stdin); applied after the flag ops")
    mu.add_argument("--strict", action="store_true",
                    help="reject the whole batch if any op is a no-op "
                         "(default: skip and report)")
    mu.add_argument("--host", default="127.0.0.1")
    mu.add_argument("--port", type=int, default=7421)
    mu.add_argument("--timeout", type=float, default=300.0)

    lg = sub.add_parser(
        "loadgen",
        help="closed-loop load generator: throughput + p50/p95/p99 "
             "latency against a live service")
    add_loadgen_args(lg, 7421, "service (uses the serve knobs below)",
                     workloads="BFS,CComp,kCore", datasets="ldbc")
    lg.add_argument("--trace-out", default=None, metavar="FILE",
                    help="write per-request spans as Chrome Trace Event "
                         "JSON — open in about:tracing")
    add_service_knobs(lg)

    st = sub.add_parser(
        "stats",
        help="scrape a running service: ops, latency percentiles, "
             "cache/queue/pool counters")
    st.add_argument("--host", default="127.0.0.1")
    st.add_argument("--port", type=int, default=7421)
    st.add_argument("--timeout", type=float, default=30.0)
    st.add_argument("--format", default="table",
                    choices=("table", "json", "prom"),
                    help="output: human table, full JSON stats, or "
                         "Prometheus text exposition (default: table)")

    cl = sub.add_parser(
        "cluster",
        help="sharded cluster: hash-ring routing, replication with "
             "failover, scatter-gather fan-out")
    clsub = cl.add_subparsers(dest="cluster_command", required=True)

    def add_cluster_shape(sp):
        sp.add_argument("--shards", type=int, default=4,
                        help="shard count (default: 4)")
        sp.add_argument("--replication", type=int, default=1,
                        help="replicas per dataset (default: 1)")
        sp.add_argument("--vnodes", type=int, default=64,
                        help="virtual nodes per shard on the ring "
                             "(default: 64)")

    cs = clsub.add_parser(
        "serve", help="boot a full cluster (shards + router) and serve")
    add_cluster_shape(cs)
    cs.add_argument("--datasets", default=None,
                    help="comma-separated dataset universe (default: "
                         "the full registry)")
    cs.add_argument("--host", default="127.0.0.1")
    cs.add_argument("--port", type=int, default=ROUTER_PORT,
                    help=f"router TCP port (default: {ROUTER_PORT}; "
                         "0 picks a free one)")
    cs.add_argument("--processes", action="store_true",
                    help="run each shard as a child process instead of "
                         "a thread")
    cs.add_argument("--isolation", default="inline",
                    choices=("process", "inline"),
                    help="worker isolation inside each shard "
                         "(default: inline)")
    cs.add_argument("--hedge-quantile", type=float, default=None,
                    metavar="Q",
                    help="hedge idempotent reads at this observed "
                         "latency quantile, e.g. 95 (default: off)")
    cs.add_argument("--stale-cap", type=float, default=60.0,
                    metavar="SECONDS",
                    help="hard staleness cap for degraded responses "
                         "(default: 60)")
    cs.add_argument("--netchaos", action="store_true",
                    help="interpose a deterministic ChaosProxy on every "
                         "router-shard hop (thread shards only)")
    cs.add_argument("--netchaos-seed", type=int, default=0,
                    help="seed for the proxies' fault RNG (default: 0)")
    cs.add_argument("--chaos-latency-ms", type=float, default=0.0,
                    help="inject this much per-chunk latency on every "
                         "proxied hop (requires --netchaos)")

    csh = clsub.add_parser(
        "shard", help="serve one shard (used by `cluster serve "
                      "--processes`; prints a ready JSON line)")
    csh.add_argument("--name", required=True, help="shard id")
    csh.add_argument("--datasets", default=None,
                     help="comma-separated owned dataset keys "
                          "(default: owns everything)")
    csh.add_argument("--host", default="127.0.0.1")
    csh.add_argument("--port", type=int, default=0)
    csh.add_argument("--workers", type=int, default=2)
    csh.add_argument("--isolation", default="inline",
                     choices=("process", "inline"))

    add_query_args(clsub.add_parser(
        "query", help="send one request to a running cluster router"),
        ROUTER_PORT)

    add_query_lang_args(clsub.add_parser(
        "query-lang",
        help="run a pipeline-DSL query through the router: one shard "
             "answers — a dynamic source's owner, or for a static "
             "source the ring owner first and any live shard after "
             "it"), ROUTER_PORT)

    clg = clsub.add_parser(
        "loadgen",
        help="closed-loop load against a cluster router, with "
             "per-shard imbalance reporting")
    add_cluster_shape(clg)
    add_loadgen_args(clg, ROUTER_PORT, "cluster",
                     workloads="BFS,CComp",
                     datasets="twitter,knowledge,watson,roadnet,ldbc")
    # what the single-service form has from the serve knobs, and its
    # --trace-out, which the cluster form does not offer
    clg.add_argument("--timeout", type=float, default=300.0)
    clg.set_defaults(trace_out=None)

    cp = clsub.add_parser(
        "plan",
        help="rebalance plan for a membership change: keys moved, "
             "fraction, per-shard migration sizes")
    cp.add_argument("--shards", type=int, default=4,
                    help="shard count before the change (default: 4)")
    cp.add_argument("--vnodes", type=int, default=64)
    cp.add_argument("--add", action="append", metavar="NAME",
                    help="shard to add (repeatable)")
    cp.add_argument("--remove", action="append", metavar="NAME",
                    help="shard to remove (repeatable)")
    cp.add_argument("--synthetic", type=int, default=0, metavar="N",
                    help="estimate over N synthetic keys instead of "
                         "the dataset registry")
    cp.add_argument("--json", action="store_true")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .obs import setup_logging
    setup_logging(args.log_level, json_mode=args.log_json)
    handler = {"list": cmd_list, "datasets": cmd_datasets, "run": cmd_run,
               "characterize": cmd_characterize, "gpu": cmd_gpu,
               "matrix": cmd_matrix, "serve": cmd_serve,
               "query": cmd_query, "query-lang": cmd_query_lang,
               "mutate": cmd_mutate,
               "loadgen": cmd_loadgen,
               "stats": cmd_stats, "cluster": cmd_cluster}
    try:
        return handler[args.command](args)
    except KeyError as e:   # unknown workload/dataset names
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # output piped into head etc.
        return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
