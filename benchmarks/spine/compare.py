"""``compare A.json B.json``: did B regress against A?

One row per workload x end-to-end metric with both medians and the bound
BENCHMARK.json fixes, and one per workload x bounded layer metric (the
serving rate and latencies by class, the open loop's share within its
limit; their bounds are ``BOUNDED_LAYER_METRICS``), then every layer
metric's medians.  Verdicts: **regressed** (B's median worse than A's by
more than the bound), **improved** (better by more than A's own
run-to-run spread), **unchanged**, and **unresolved** — the spread of
either side is wider than the bound, so the runs cannot tell; that is
reported as such, never as unchanged, unless every run of one side beats
every run of the other.  Spread is the interquartile distance as a share
of the median.  Digests of simulated statistics and served answers must
be identical.  Exit status is non-zero on any regression or changed
digest, and the files must describe the same experiment.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

_SAME_HOST = ("nproc", "python", "numpy", "machine")

#: layer metrics that get a verdict like an end-to-end metric, and the
#: bound of each: what the serving path's users see.  BENCHMARK.json
#: cannot list them as end-to-end (its driver wants every end-to-end
#: metric from every workload, never 0, and only serve_* have these).
#: All are measured with tracing off, inside the per-layer run.
BOUNDED_LAYER_METRICS = {
    "loadgen.closed_rps": 0.25, "loadgen.p50_ms": 0.25,
    "loadgen.p95_ms": 0.25, "loadgen.read_p50_ms": 0.25,
    "loadgen.write_p50_ms": 0.25, "loadgen.query_p50_ms": 0.25,
    "loadgen.slo_share": 0.05,
}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def _mismatch(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    reasons = []
    for name, result in (("A", a), ("B", b)):
        if result.get("quick"):
            reasons.append(f"{name} is a --quick run (sizes / 10)")
    for key in ("schema", "seed"):
        if a.get(key) != b.get(key):
            reasons.append(f"{key}: {a.get(key)!r} vs {b.get(key)!r}")
    for key in _SAME_HOST:
        if a["host"].get(key) != b["host"].get(key):
            reasons.append(f"host {key}: {a['host'].get(key)!r} vs "
                           f"{b['host'].get(key)!r}")
    sizes_b = _sizes(b)
    for workload, sizes in _sizes(a).items():
        other = sizes_b.get(workload)
        if other is not None and other != sizes:
            reasons.append(f"{workload} sizes: {sorted(sizes)} vs "
                           f"{sorted(other)}")
    return reasons


def _sizes(result: dict[str, Any]) -> dict[str, set[str]]:
    """workload -> the distinct sizes its runs were made at."""
    out: dict[str, set[str]] = {}
    for r in result["runs"]:
        out.setdefault(r["workload"], set()).add(
            json.dumps(r["info"].get("sizes"), sort_keys=True))
    return out


def _values(result: dict[str, Any], workload: str, trace: int,
            metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in result["runs"]
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """-> (verdict, B's median change as a share of A's; > 0 is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a)
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    b_always_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        if b_always_better:
            return "improved", worse
        if b_always_worse and worse > bound:
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > spread(a) and worse < 0:
        return "improved", worse
    return "unchanged", worse


def _digests(result: dict[str, Any], workload: str) -> set[str]:
    return {json.dumps(r["digests"], sort_keys=True)
            for r in result["runs"]
            if r["workload"] == workload and r["digests"]}


def compare_files(path_a: Path, path_b: Path, decl: dict[str, Any]) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    reasons = _mismatch(a, b)
    if reasons:
        print("refusing to compare:")
        for reason in reasons:
            print(f"  {reason}")
        return 2
    print(f"A {path_a}  git {a['git_sha'][:12]}\n"
          f"B {path_b}  git {b['git_sha'][:12]}")
    bounded = [(m, 0, m["bound"]) for m in decl["end_to_end"]] + [
        (m, 1, BOUNDED_LAYER_METRICS[m["name"]]) for m in decl["per_layer"]
        if m["name"] in BOUNDED_LAYER_METRICS]
    failed = False
    print(f"{'workload':<12} {'metric':<22} {'A median':>12} "
          f"{'B median':>12} {'unit':<5} {'change':>8} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for w in (w["name"] for w in decl["workloads"]):
        for m, trace, bound in bounded:
            va = _values(a, w, trace, m["name"])
            vb = _values(b, w, trace, m["name"])
            if not (va and vb and any(va) and any(vb)):
                continue                # a layer this workload never enters
            what, worse = verdict(va, vb, m["better"], bound)
            failed |= what == "regressed"
            change = worse if m["better"] == "lower" else -worse
            print(f"{w:<12} {m['name']:<22} "
                  f"{statistics.median(va):>12.5g} "
                  f"{statistics.median(vb):>12.5g} {m['unit']:<5} "
                  f"{change:>+8.1%} {max(spread(va), spread(vb)):>7.1%} "
                  f"{bound:>6.0%}  {what}  (n={len(va)},{len(vb)})")
        da, db = _digests(a, w), _digests(b, w)
        if da and db:
            same = len(da | db) == 1
            failed |= not same
            print(f"{w:<12} {'digests':<22} "
                  f"{'identical' if same else 'DIFFERENT'}")
    print(f"\n{'workload':<12} {'layer metric':<34} {'A median':>12} "
          f"{'B median':>12} unit")
    for w in (w["name"] for w in decl["workloads"]):
        for m in decl["per_layer"]:
            va = _values(a, w, 1, m["name"])
            vb = _values(b, w, 1, m["name"])
            if va and vb and (any(va) or any(vb)):
                print(f"{w:<12} {m['name']:<34} "
                      f"{statistics.median(va):>12.5g} "
                      f"{statistics.median(vb):>12.5g} {m['unit']}")
    return 1 if failed else 0
