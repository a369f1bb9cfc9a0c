"""The characterization path: ``char_cold`` (graph build, traced kernel,
CPU/GPU/multicore models, nothing cached) and ``char_sweep`` (stored
traces replayed against a machine sweep; no kernel, no graph build).
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import Any

import repro.arch.cpu as arch_cpu
from repro.arch.cpu import CPUModel
from repro.arch.icache import ICache
from repro.arch.machine import SCALED_XEON, MachineConfig
from repro.core.graph import PropertyGraph
from repro.core.tracestore import TraceStore
from repro.datagen.registry import make as make_dataset
from repro.datagen.spec import GraphSpec
from repro.harness import runner
from repro.harness.runner import (
    characterize,
    clear_cache,
    gpu_speedup,
    run_cpu_workload,
)
from repro.obs import SpanTracer, maybe_span
from repro.parallel.trace_sim import simulate_multicore
from repro.workloads import WORKLOADS, build_bn_graph, validate
from repro.workloads.base import (
    Workload,
    common_edge_schema,
    common_vertex_schema,
)

from .common import (
    Config,
    Outcome,
    digest,
    digest_number,
    end_to_end,
    per_op_medians,
    write_trace,
)
from .measure import (
    HostSpeed,
    instrument,
    median,
    now,
    peak_rss_mb,
    self_times,
    span_totals,
    worst_self_share,
)

#: char_cold: dense-social vs sparse-road (the paper's Fig 9 contrast),
#: all three computation types on the social graph
COLD_CELLS = tuple(
    [(w, "ldbc") for w in ("BFS", "kCore", "TC", "SPath", "DCentr",
                           "Gibbs", "GUp")]
    + [(w, "roadnet") for w in ("BFS", "kCore", "TC", "SPath", "DCentr")])
SWEEP_WORKLOADS = ("BFS", "TC", "CComp", "kCore")
SCALE = 0.25
QUICK_SCALE = 0.03          # every dataset at the 120-vertex floor
MIN_REPS = 3                # a median per op needs three samples of it
DATAGEN_REPEATS = 15        # char_cold's set-up is milliseconds of datagen
FILL_REPEATS = 2            # char_sweep's is seconds of kernels and saves

#: a summary statistic -> the per-layer metric that reports its mean
_SIM_STATS = {"ipc": "arch.ipc", "l1d_mpki": "arch.l1d_mpki",
              "l3_mpki": "arch.l3_mpki", "dtlb_mpki": "arch.dtlb_mpki",
              "branch_miss_rate": "arch.branch_miss_rate"}

#: where a traced run records spans: (owner, attribute, span name)
_LAYER_CALLS = (
    (GraphSpec, "build", "core.graph_build"),
    (runner, "build_bn_graph", "core.graph_build"),
    (PropertyGraph, "state_snapshot", "core.graph_state"),
    (PropertyGraph, "restore_state", "core.graph_state"),
    (runner, "munin_like", "bayes.network_build"),
    (Workload, "run", "workloads.kernel"),
    (CPUModel, "run", "arch.cpu_model"),
    (arch_cpu, "replay", "arch.replay"),
    (arch_cpu, "simulate_branches", "arch.branch"),
    (ICache, "simulate", "arch.icache"),
    (runner, "run_gpu_workload", "gpu.run"),
    (TraceStore, "load", "core.tracestore_load"),
    (TraceStore, "save", "core.tracestore_save"),
)


def sweep_machines() -> list[MachineConfig]:
    """SCALED_XEON plus seven cache-geometry variants: five perturb only
    the L3, two the L2 (the table of ``bench_replay_fastpath``)."""
    base = SCALED_XEON
    variants = [base]
    for tag, l2_num, l2_den, l3_num, l3_den, a2, a3 in (
            ("double-llc", 1, 1, 2, 1, base.l2.assoc, base.l3.assoc),
            ("half-llc", 1, 1, 1, 2, base.l2.assoc, base.l3.assoc),
            ("quarter-llc", 1, 1, 1, 4, base.l2.assoc, base.l3.assoc),
            ("eighth-llc", 1, 1, 1, 8, base.l2.assoc, base.l3.assoc),
            ("llc-low-assoc", 1, 1, 1, 1, base.l2.assoc, 4),
            ("half-l2", 1, 2, 1, 1, base.l2.assoc, base.l3.assoc),
            ("low-assoc", 1, 1, 1, 1, 2, 4)):
        variants.append(dataclasses.replace(
            base, name=f"{base.name}/{tag}",
            l2=dataclasses.replace(base.l2,
                                   size=base.l2.size * l2_num // l2_den,
                                   assoc=a2),
            l3=dataclasses.replace(base.l3,
                                   size=base.l3.size * l3_num // l3_den,
                                   assoc=a3)))
    return variants


#: per-layer metric -> the span whose self time it reports
_SELF_TIME_METRICS = {
    "core.graph_build_s": "core.graph_build",
    "core.graph_state_s": "core.graph_state",
    "bayes.network_build_s": "bayes.network_build",
    "workloads.kernel_s": "workloads.kernel",
    "arch.replay_s": "arch.replay",
    "arch.branch_s": "arch.branch",
    "arch.icache_s": "arch.icache",
    "gpu.run_s": "gpu.run",
    "parallel.multicore_sim_s": "parallel.multicore_sim",
    "core.tracestore_load_s": "core.tracestore_load",
    "core.tracestore_save_s": "core.tracestore_save",
    "harness.overhead_s": "cell",
}


def _layer_metrics(spans, accesses_replayed: int,
                   factor: float) -> dict[str, float]:
    """Per-layer seconds of one traced rep, at the rep's host-speed
    ``factor``.  ``arch.cpu_model_s`` is inclusive of replay, branch and
    icache; every other time is self time, so they add up to the rep."""
    self_s = self_times(spans)
    metrics = {metric: self_s.get(span, 0.0) * factor
               for metric, span in _SELF_TIME_METRICS.items()}
    replay_s = metrics["arch.replay_s"]
    metrics["arch.cpu_model_s"] = \
        span_totals(spans).get("arch.cpu_model", 0.0) * factor
    metrics["arch.replay_maccess_per_s"] = \
        accesses_replayed / replay_s / 1e6 if replay_s else 0.0
    return metrics


def _sim_stat_means(summaries: list[dict[str, float]]) -> dict[str, float]:
    return {metric: sum(s[stat] for s in summaries) / len(summaries)
            for stat, metric in _SIM_STATS.items()}


# -- char_cold ---------------------------------------------------------------

def _fresh_graph(spec: GraphSpec):
    return spec.build(vertex_schema=common_vertex_schema(),
                      edge_schema=common_edge_schema())


def _validate(workload: str, g, result) -> list[str]:
    """Graph 500-style checks of kernel outputs against a fresh build."""
    out, params = result.outputs, result.params
    if workload == "BFS":
        return validate.validate_bfs(g, params["root"], out["levels"],
                                     out["parents"])
    if workload == "SPath":
        return validate.validate_sssp(g, params["root"], out["dists"])
    if workload == "kCore":
        return validate.validate_kcore(g, out["core"])
    if workload == "TC":
        return validate.validate_triangles(g, out["triangles"],
                                           out["per_vertex"])
    return []


def _cold_cell(workload: str, spec: GraphSpec, check_graph,
               tracer) -> dict[str, Any]:
    """One cold cell, as a user of the harness runs it.  Only what later
    steps need outlives the cell: a retained trace is memory the next
    cell would have to do without."""
    t0 = now()
    with maybe_span(tracer, "cell", workload=workload, dataset=spec.name):
        row = characterize(workload, spec, with_gpu=True, memo=False)
        speedup = gpu_speedup(row) if row.gpu is not None else None
        with maybe_span(tracer, "parallel.multicore_sim"):
            multicore = simulate_multicore(row.result.trace, SCALED_XEON,
                                           p=SCALED_XEON.n_cores)
        summary = row.cpu.summary()
    seconds = now() - t0
    gpu = row.gpu.summary() if row.gpu is not None else None
    return {"seconds": seconds, "summary": summary, "gpu": gpu,
            "params": row.result.params,
            "events": len(row.result.trace.addrs),
            "instrs": row.result.trace.n_instrs,
            "errors": _validate(workload, check_graph, row.result),
            "digest": digest({
                "cpu": summary, "gpu": gpu, "gpu_speedup": speedup,
                "multicore": dataclasses.asdict(multicore),
                "outputs": row.result.outputs})}


def _cold_rep(specs: dict[str, GraphSpec], check_graphs, host: HostSpeed,
              tracer=None):
    """All cells from cold caches, each bracketed by the host-speed
    reference: ``ref_seconds`` is the cell in reference-host seconds."""
    clear_cache()
    cells = []
    for w, d in COLD_CELLS:
        cell, _, factor = host.timed(
            lambda: _cold_cell(w, specs[d], check_graphs[d], tracer))
        cells.append(dict(cell, ref_seconds=cell["seconds"] * factor))
    return cells


def _rep_factor(cells) -> float:
    """Reference-host seconds per measured second over one whole rep."""
    return sum(c["ref_seconds"] for c in cells) \
        / sum(c["seconds"] for c in cells)


def _untraced_kernel_seconds(specs: dict[str, GraphSpec], cells,
                             host: HostSpeed) -> float:
    """Each cell's kernel again with ``tracer=None``, on a fresh graph
    built off the clock; traced minus this is the trace-emit cost."""
    total = 0.0
    for (workload, dataset), cell in zip(COLD_CELLS, cells):
        g = build_bn_graph(cell["params"]["bn"]) if workload == "Gibbs" \
            else _fresh_graph(specs[dataset])
        _, seconds, factor = host.timed(
            lambda: WORKLOADS[workload]().run(g, tracer=None,
                                              **cell["params"]))
        total += seconds * factor
    return total


def char_cold(cfg: Config) -> Outcome:
    scale = QUICK_SCALE if cfg.quick else SCALE
    host = HostSpeed()

    def make_specs_repeatedly():
        seconds = []
        for _ in range(DATAGEN_REPEATS):
            t0 = now()
            specs = {name: make_dataset(name, scale=scale, seed=cfg.seed)
                     for name in ("ldbc", "roadnet")}
            seconds.append(now() - t0)
        return specs, seconds

    (specs, seconds), _, factor = host.timed(make_specs_repeatedly)
    setups = [s * factor for s in seconds]
    check_graphs = {name: _fresh_graph(spec)
                    for name, spec in specs.items()}

    reps, rss_mb = [], 0.0
    start = now()
    while len(reps) < (1 if cfg.trace else MIN_REPS) \
            or (not cfg.trace and now() - start < cfg.seconds):
        reps.append(_cold_rep(specs, check_graphs, host))
        rss_mb = rss_mb or peak_rss_mb()    # of one rep, however many run
    op_s = per_op_medians([[c["ref_seconds"] for c in cells]
                           for cells in reps])
    metrics = end_to_end(setup_s=setups, wall_s=sum(op_s),
                         peak_rss_mb=rss_mb)

    unattributed = 0.0
    if cfg.trace:
        tracer = SpanTracer(process_name="spine:char_cold")
        with instrument(tracer, _LAYER_CALLS):
            cells = _cold_rep(specs, check_graphs, host, tracer)
        reps.append(cells)
        write_trace(tracer, cfg, "char_cold")
        events = sum(c["events"] for c in cells)
        metrics = _layer_metrics(tracer.spans, events, _rep_factor(cells))
        unattributed = worst_self_share(tracer.spans, "cell")
        untraced_s = _untraced_kernel_seconds(specs, cells, host)
        edges = sum(specs[d].m for w, d in COLD_CELLS if w != "Gibbs")
        build_s = metrics["core.graph_build_s"]
        gpus = [c["gpu"] for c in cells if c["gpu"] is not None]
        metrics.update({
            "datagen.make_s": median(setups),
            "core.graph_build_edges_per_s":
                edges / build_s if build_s else 0.0,
            "workloads.kernel_untraced_s": untraced_s,
            "core.trace_emit_s":
                metrics["workloads.kernel_s"] - untraced_s,
            "core.trace_events": float(events),
            "core.trace_instrs": float(sum(c["instrs"] for c in cells)),
            "gpu.bdr": sum(g["bdr"] for g in gpus) / len(gpus),
            "gpu.mdr": sum(g["mdr"] for g in gpus) / len(gpus),
            "obs.trace_overhead_ratio":
                sum(c["ref_seconds"] for c in cells) / sum(op_s),
            **_sim_stat_means([c["summary"] for c in cells]),
        })

    names = [f"{w}/{d}" for w, d in COLD_CELLS]
    cell_digests = {n: c["digest"] for n, c in zip(names, reps[0])}
    problems = []
    for cells in reps:
        for name, cell in zip(names, cells):
            problems += [f"{name}: {e}" for e in cell["errors"][:3]]
            if cell["digest"] != cell_digests[name]:
                problems.append(f"{name}: digest differs between reps")
    digests = dict(cell_digests, all=digest(cell_digests))
    if cfg.trace:
        metrics["arch.sim_digest"] = digest_number(digests["all"])
    return Outcome(
        metrics=metrics, attempted=len(COLD_CELLS) * len(reps),
        problems=problems, digests=digests,
        info={"sizes": {"scale": scale, "cells": len(COLD_CELLS),
                        "graphs": {n: [s.n, s.m]
                                   for n, s in specs.items()}},
              "reps": len(reps), "host_speed": round(host.speed(), 4),
              "measured_rep_s": [round(sum(c["seconds"] for c in cells), 3)
                                 for cells in reps],
              "cell_s": {n: [round(cells[i]["ref_seconds"], 4)
                             for cells in reps]
                         for i, n in enumerate(names)},
              "worst_cell_unattributed_share": round(unattributed, 4)})


# -- char_sweep --------------------------------------------------------------

def _sweep_rep(spec: GraphSpec, store_dir: Path, machines, host: HostSpeed,
               tracer=None):
    """Every stored trace against every machine, from a store object and
    harness caches as cold as a new process has them.  An op is one
    workload's trace against all machines; its time is in reference-host
    seconds.  -> (summaries, seconds per op, measured seconds, store
    counters)"""
    store = TraceStore(store_dir)
    clear_cache()
    summaries, seconds, measured = {}, [], 0.0

    def against_all_machines(workload: str) -> None:
        for machine in machines:
            with maybe_span(tracer, "cell", workload=workload,
                            machine=machine.name):
                _, cpu = run_cpu_workload(workload, spec, machine=machine,
                                          trace_store=store)
                summaries[f"{workload}@{machine.name}"] = cpu.summary()

    for workload in SWEEP_WORKLOADS:
        _, raw, factor = host.timed(lambda: against_all_machines(workload))
        seconds.append(raw * factor)
        measured += raw
    return summaries, seconds, measured, store.stats


def _fill_store(store_dir: Path, scale: float, seed: int, host: HostSpeed):
    """Set-up of a sweep: the dataset, then every sweep workload's kernel
    run once from cold caches, its frozen trace saved to a new store.
    Times are in reference-host seconds."""
    tracer = SpanTracer()

    def fill():
        t0 = now()
        spec = make_dataset("ldbc", scale=scale, seed=seed)
        datagen_s = now() - t0
        clear_cache()
        store = TraceStore(store_dir)
        events = 0
        with instrument(tracer, _LAYER_CALLS[-1:]):
            for workload in SWEEP_WORKLOADS:
                result, _ = run_cpu_workload(workload, spec,
                                             trace_store=store)
                events += len(result.trace.addrs)
        return spec, events, datagen_s

    (spec, events, datagen_s), seconds, factor = host.timed(fill)
    save_s = self_times(tracer.spans)["core.tracestore_save"]
    return {"spec": spec, "events": events, "setup_s": seconds * factor,
            "datagen_s": datagen_s * factor, "save_s": save_s * factor}


def char_sweep(cfg: Config) -> Outcome:
    scale = QUICK_SCALE if cfg.quick else SCALE
    machines = sweep_machines()
    host = HostSpeed()
    with tempfile.TemporaryDirectory(dir=cfg.out_dir,
                                     prefix="tracestore-") as tmp:
        fills = [_fill_store(Path(tmp) / str(i), scale, cfg.seed, host)
                 for i in range(FILL_REPEATS)]
        store_dir = Path(tmp) / str(FILL_REPEATS - 1)
        spec, events = fills[-1]["spec"], fills[-1]["events"]

        # the first rep after a fill is a third slower (files not yet
        # read, allocator not yet grown): run, check and drop it
        warm_up = _sweep_rep(spec, store_dir, machines, host)
        reps, times, measured, rss_mb = [], [], [], 0.0
        start = now()
        while len(reps) < MIN_REPS or (not cfg.trace
                                       and now() - start < cfg.seconds):
            summaries, seconds, raw, stats = _sweep_rep(spec, store_dir,
                                                        machines, host)
            reps.append((summaries, stats))
            times.append(seconds)
            measured.append(raw)
            rss_mb = rss_mb or peak_rss_mb()
        op_s = per_op_medians(times)
        metrics = end_to_end(setup_s=[f["setup_s"] for f in fills],
                             wall_s=sum(op_s), peak_rss_mb=rss_mb)

        if cfg.trace:
            tracer = SpanTracer(process_name="spine:char_sweep")
            with instrument(tracer, _LAYER_CALLS):
                summaries, seconds, raw, stats = _sweep_rep(
                    spec, store_dir, machines, host, tracer)
            reps.append((summaries, stats))
            write_trace(tracer, cfg, "char_sweep")
            metrics = _layer_metrics(tracer.spans, events * len(machines),
                                     sum(seconds) / raw)
            metrics.update({
                "datagen.make_s": median(f["datagen_s"] for f in fills),
                "core.tracestore_save_s":
                    median(f["save_s"] for f in fills),
                "core.tracestore_bytes": float(sum(
                    f.stat().st_size for f in store_dir.iterdir())),
                "core.trace_events": float(events),
                "obs.trace_overhead_ratio": sum(seconds) / sum(op_s),
                **_sim_stat_means(list(summaries.values())),
            })

    cells = len(SWEEP_WORKLOADS) * len(machines)
    first = reps[0][0]
    problems = []
    for summaries, stats in [(warm_up[0], warm_up[3])] + reps:
        if summaries != first:
            problems.append("sweep summaries differ between reps")
        if stats.hits != cells or stats.misses:
            problems.append(f"sweep executed kernels: store {stats}")
    digests = {"all": digest(first)}
    if cfg.trace:
        metrics["arch.sim_digest"] = digest_number(digests["all"])
    return Outcome(
        metrics=metrics, attempted=cells * (1 + len(reps)),
        problems=problems, digests=digests,
        info={"sizes": {"scale": scale, "cells": cells,
                        "graph": [spec.n, spec.m], "trace_events": events},
              "reps": len(reps), "host_speed": round(host.speed(), 4),
              "measured_rep_s": [round(raw, 3) for raw in measured],
              "rep_wall_s": [round(sum(t), 3) for t in times]})
