"""The metric families a fixed script leaves on a service's registry.

``record()`` drives one governed service through a script that touches
every serving counter once — an execution with a coalesced rider, an
admission reject, a cache hit, a ``crash`` fault and a tenant over its
rate quota — and returns its
``stats`` registry snapshot reduced to what a scraper compares: per
family its type and each sample's value under its ``name=value,...``
label set (a histogram's value is its count; bucket sums are timings).
``tests/data/metric_families.json`` holds what the parent of the change
that moved the report-only counters onto the registry produced, so that
move cannot rename, relabel, drop, add or recount a family.

The order is forced rather than raced: a blocker holds the pool's one
thread, so the first request is still queued when the rider and the
rejected request arrive.  Every connection stays open until the scrape,
so the byte counters (flushed at close) read zero and no timing enters.

Re-record (only when a family is *meant* to change) with::

    PYTHONPATH=src python -m tests.metric_families > tests/data/metric_families.json

The script uses only constructors, sockets and the registry snapshot,
which predate that change, so it runs unchanged against an older checkout.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.obs import counter_total
from repro.resilience import Cell, ChaosSpec, Fault
from repro.service import GraphService, PoolConfig, ServiceThread, \
    encode_request
from repro.tenancy import QosConfig, TenantGovernor, TenantPolicy

SCALE = 0.02
#: no other test runs a cell at this seed, so the harness memo never
#: answers in the pool's place
SEED = 2817


def _run(workload: str) -> dict:
    return {"workload": workload, "dataset": "ldbc", "scale": SCALE,
            "seed": SEED, "machine": "test"}


def _wait(cond, what: str) -> None:
    deadline = time.monotonic() + 30
    while not cond():
        if time.monotonic() > deadline:
            raise TimeoutError(f"metric-family script: {what}")
        time.sleep(0.001)


def _families(metrics: dict) -> dict:
    out = {}
    for name, fam in metrics.items():
        key = "count" if fam["type"] == "histogram" else "value"
        out[name] = {"type": fam["type"], "samples": {
            ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items())):
                s[key] for s in fam["samples"]}}
    return out


def record() -> dict:
    doomed = Cell(workload="kCore", dataset="ldbc", scale=SCALE, seed=SEED,
                  machine="test")
    service = GraphService(
        pool_config=PoolConfig(size=1, isolation="inline"), max_pending=1,
        chaos=ChaosSpec(faults={doomed.cell_id: Fault("crash")}),
        governor=TenantGovernor(QosConfig(
            policies={"acme": TenantPolicy(rate=0.001, burst=2.0)})))
    gate = threading.Event()
    with ServiceThread(service) as st:
        conns = [socket.create_connection((st.host, st.port), timeout=60)
                 for _ in range(3)]
        readers = [c.makefile("rb") for c in conns]
        seq = iter(range(100))

        def send(i: int, op: str, params: dict) -> None:
            conns[i].sendall(encode_request(op, f"m-{next(seq)}", params,
                                            tenant="acme" if i else None))

        def reply(i: int) -> dict:
            return json.loads(readers[i].readline())

        try:
            service.pool._tpe.submit(gate.wait)
            send(0, "run", _run("BFS"))
            _wait(lambda: service.scheduler.pending == 1, "no execution")
            send(1, "run", _run("BFS"))
            _wait(lambda: counter_total(
                service.registry.snapshot(), "scheduler_requests_total",
                outcome="coalesced") == 1, "no coalesced rider")
            send(2, "run", _run("CComp"))
            rejected = reply(2)
            gate.set()
            executed, rider = reply(0), reply(1)
            send(0, "run", _run("BFS"))
            hit = reply(0)
            send(0, "run", _run("kCore"))
            crashed = reply(0)
            send(1, "run", _run("BFS"))
            throttled = reply(1)
            send(0, "stats", {})
            stats = reply(0)["result"]
        finally:
            gate.set()
            for r, c in zip(readers, conns):
                r.close()
                c.close()
    served = [executed["result"]["served"], rider["result"]["served"],
              rejected["error"]["kind"], hit["result"]["served"],
              crashed["error"]["kind"], throttled["error"]["kind"]]
    assert served == ["executed", "coalesced", "admission-rejected",
                      "cache", "retries-exhausted", "quota-exceeded"], served
    return _families(stats["metrics"])


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
