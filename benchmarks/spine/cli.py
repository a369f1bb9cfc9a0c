"""``run`` and ``compare``: one command that prints every metric by name
with its unit, checks outputs, and writes one result file in one schema.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from .common import Config
from .measure import host_fingerprint, warn_if_loaded

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
SCHEMA = 2
QUICK_SECONDS = 1


def declaration() -> dict[str, Any]:
    """BENCHMARK.json: the one place workload and metric names, units,
    directions and bounds are declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload_functions():
    from . import char, serve
    return {"char_cold": char.char_cold, "char_sweep": char.char_sweep,
            "serve_hot": serve.serve_hot, "serve_mixed": serve.serve_mixed}


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _pin_to_one_cpu() -> None:
    """Client, router and shards share one interpreter lock, so a second
    CPU adds no parallelism, only wake-ups across CPUs; in the reference
    microVM those cost a trip through the hypervisor each and are as
    noisy as the host is busy (serve_hot: 1 900 req/s and +-25 % on two
    CPUs, 4 100 req/s and +-3 % on one).  One CPU, the last one allowed,
    for every workload: then CPU saved in any layer is time saved."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _run_one(args, decl: dict[str, Any]) -> dict[str, Any]:
    """Run one workload in this process -> its run record."""
    OUT_DIR.mkdir(exist_ok=True)
    cfg = Config(seed=args.seed,
                 seconds=QUICK_SECONDS if args.quick else decl["run_seconds"],
                 trace=bool(args.trace), quick=args.quick, out_dir=OUT_DIR)
    outcome = _workload_functions()[args.workload](cfg)
    declared = decl["per_layer"] if cfg.trace else decl["end_to_end"]
    names = {m["name"] for m in declared}
    undeclared = sorted(set(outcome.metrics) - names)
    if undeclared:
        raise SystemExit(f"{args.workload} reported metrics that "
                         f"BENCHMARK.json does not declare: {undeclared}")
    if not cfg.trace and names - set(outcome.metrics):
        raise SystemExit(f"{args.workload} did not report "
                         f"{sorted(names - set(outcome.metrics))}")
    # a layer this workload never enters reports 0: idle, by measurement
    metrics = {m["name"]: {"value": float(outcome.metrics.get(m["name"],
                                                              0.0)),
                           "unit": m["unit"]} for m in declared}
    problems = outcome.problems + _golden_mismatches(args, outcome.digests)
    return {"workload": args.workload, "trace": int(cfg.trace),
            "correct": not problems,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "problems": problems, "metrics": metrics,
            "digests": outcome.digests, "info": outcome.info}


def _golden_mismatches(args, digests: dict[str, str]) -> list[str]:
    """Seed 0 at full size has committed digests; other seeds only print
    theirs, so that two result files can be compared."""
    if args.seed != 0 or args.quick:
        return []
    golden = json.loads((HERE / "golden.json").read_text())
    return [f"digest {name} is {digests.get(name)}, golden.json has {want}"
            for name, want in golden.get(args.workload, {}).items()
            if digests.get(name) != want]


def _print_run(run: dict[str, Any]) -> None:
    print(f"== {run['workload']}  trace={run['trace']}  "
          f"attempted={run['attempted']} failed={run['failed']}  "
          f"{run['info']}")
    for name, m in run["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, value in run["digests"].items():
        print(f"  digest {name:<27} {value}")
    for problem in run["problems"]:
        print(f"  INCORRECT: {problem}")


def _result(args, host: dict[str, Any], runs: list[dict[str, Any]]
            ) -> dict[str, Any]:
    return {"schema": SCHEMA, "git_sha": _git_sha(), "seed": args.seed,
            "quick": args.quick, "host": host, "runs": runs}


def _contract_line(run: dict[str, Any]) -> str:
    return json.dumps({k: run[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def cmd_run(args) -> int:
    decl = declaration()
    if args.seconds not in (None, decl["run_seconds"]):
        raise SystemExit(f"the timed region is BENCHMARK.json's run_seconds "
                         f"({decl['run_seconds']}), not {args.seconds:g}")
    names = [w["name"] for w in decl["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(names)}")
    _pin_to_one_cpu()
    host = host_fingerprint()
    warn_if_loaded(host)
    out = Path(args.out) if args.out else \
        OUT_DIR / (f"result-{args.workload or 'all'}-seed{args.seed}"
                   f"-trace{args.trace}.json")

    if args.workload is not None and args.runs == 1:
        run = _run_one(args, decl)
        _print_run(run)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(_result(args, host, [run]), indent=1))
        print(f"wrote {out}")
        print(_contract_line(run))
        return 0 if run["correct"] else 1

    # module caches and peak RSS must not leak between workloads: each
    # run gets a fresh interpreter
    runs = []
    for _ in range(args.runs):
        for workload in ([args.workload] if args.workload else names):
            for trace in range(args.trace + 1):   # --trace: then traced too
                runs.append(_run_child(args, workload, trace))
                _print_run(runs[-1])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(_result(args, host, runs), indent=1))
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in runs) else 1


def _run_child(args, workload: str, trace: int) -> dict[str, Any]:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="child-") as tmp:
        child_out = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "__main__.py"), "run",
               "--workload", workload, "--seed", str(args.seed),
               "--trace", str(trace), "--out", str(child_out)]
        if args.quick:
            cmd.append("--quick")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if not child_out.exists():
            raise SystemExit(f"{workload} produced no result "
                             f"(exit {done.returncode}):\n{done.stderr}")
        return json.loads(child_out.read_text())["runs"][0]


def cmd_compare(args) -> int:
    from .compare import compare_files
    return compare_files(Path(args.a), Path(args.b), declaration())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.spine")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads, print and record "
                                     "every metric, check outputs")
    run.add_argument("--workload", help="one workload (default: all four, "
                                        "each in a fresh process)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float,
                     help="not a setting: the driver of BENCHMARK.json "
                          "passes run_seconds, any other value is refused")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                     const=1, default=0,
                     help="per-layer run with spans on (with --workload "
                          "and one run: instead of the end-to-end run; "
                          "otherwise: after each end-to-end run)")
    run.add_argument("--quick", action="store_true",
                     help="sizes / 10 for self-tests; compare refuses it")
    run.add_argument("--runs", type=int, default=1,
                     help="repeat each workload this many times")
    run.add_argument("--out", help="result file (default: out/result-*)")
    run.set_defaults(func=cmd_run)
    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)
