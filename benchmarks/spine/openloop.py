"""Open-loop load driver: requests are *due* on a seeded Poisson schedule
whether or not earlier ones have been answered.

The repo's own ``LoadGenerator`` is a closed loop — a slow server is
offered less load, so a stall costs it one slow sample.  Here each
request is timed **from its due time**: when every connection is busy,
the requests that come due meanwhile wait, and that wait is charged to
them.  How late the generator itself sent (due time already past when a
connection became free) is reported beside the latencies, and a failed
request counts as a missed limit, never as a fast answer.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.errors import GraphError
from repro.service.loadgen import Query


@dataclass(frozen=True)
class Sample:
    op: str
    ok: bool
    latency_ms: float       # answered - due
    late_ms: float          # sent - due: the generator's own lateness


def poisson_schedule(rate_per_s: float, n_requests: int,
                     seed: object) -> list[float]:
    """Due times in seconds from the start: exponential gaps, seeded."""
    rng = random.Random(f"openloop:{seed}")
    due, t = [], 0.0
    for _ in range(n_requests):
        t += rng.expovariate(rate_per_s)
        due.append(t)
    return due


def run_open_loop(plan: Sequence[Query], due_s: Sequence[float],
                  client_factory: Callable[[], object], *,
                  connections: int = 2,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep
                  ) -> list[Sample]:
    """Issue ``plan[i]`` at ``due_s[i]`` over ``connections`` blocking
    clients (anything with ``request(op, **params)`` and ``close()``)."""
    if len(plan) != len(due_s):
        raise ValueError("one due time per request")
    samples: list[Sample | None] = [None] * len(plan)
    lock = threading.Lock()
    cursor = iter(range(len(plan)))
    start = clock() + 0.05          # let every worker reach its first wait

    def worker() -> None:
        client = client_factory()
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = start + due_s[i]
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                sent = clock()
                try:
                    client.request(plan[i].op, **plan[i].params)
                    ok = True
                except (GraphError, OSError):
                    ok = False
                    client.close()
                samples[i] = Sample(plan[i].op, ok,
                                    (clock() - due) * 1e3,
                                    (sent - due) * 1e3)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, name=f"openloop-{k}")
               for k in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [s for s in samples if s is not None]
