"""Request scheduling: admission control, micro-batching, result caching.

The scheduler is the front door between the connection handlers and the
worker pool.  Three mechanisms turn one-shot batch machinery into a
traffic-serving system:

* **Admission control** — at most ``max_pending`` distinct executions may
  be queued-or-running; beyond that, new work is rejected with
  :class:`~repro.core.errors.AdmissionRejected` (backpressure, not an
  unbounded queue).  Coalesced waiters do not count: joining an in-flight
  execution consumes no new capacity.
* **Micro-batching** — requests for an identical cell (same
  ``(workload, dataset, scale, seed, machine, gpu)`` identity) that
  arrive while one is queued or executing are *coalesced*: one execution
  runs, every waiter gets the result.
* **Row caching** — completed records land in the
  :class:`~repro.service.cache.CacheTiers` row tier; an identical later
  request is answered without touching the pool.  A capacity-0 tier is
  "cache off": every lookup misses and nothing is stored.

A failed execution is an error to every waiter: a present row is served
before any execution starts, so there is no older one to fall back on.
Only the router's last-good cache answers ``degraded``.

Everything runs on the server's event loop; the only await point is the
pool handoff, so the bookkeeping needs no locks.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from ..core.errors import AdmissionRejected, DeadlineExceeded
from ..obs.logs import get_logger
from ..resilience.cell import Cell
from .cache import CacheTiers
from .pool import WorkerPool

log = get_logger("service.scheduler")


@dataclass
class SchedulerStats:
    """Traffic counters: how requests were satisfied."""

    submitted: int = 0
    cache_hits: int = 0              # answered from the row tier
    coalesced: int = 0               # joined an in-flight execution
    executed: int = 0                # dispatched to the pool
    rejected: int = 0                # shed by admission control
    failed: int = 0                  # executions that raised
    shed_expired: int = 0            # deadline lapsed before execution

    def as_dict(self) -> dict[str, int]:
        return {"submitted": self.submitted, "cache_hits": self.cache_hits,
                "coalesced": self.coalesced, "executed": self.executed,
                "rejected": self.rejected, "failed": self.failed,
                "shed_expired": self.shed_expired}


class _Batch:
    """One in-flight execution and everyone waiting on it.

    ``deadline`` is the *latest* absolute deadline among waiters: the
    execution is still worth running while any requester would accept
    the result, and sheddable once every one of them has given up.
    """

    def __init__(self, cell: Cell):
        self.cell = cell
        self.waiters: list[asyncio.Future] = []
        self.deadline: float | None = None
        self._unbounded = False          # a waiter with no deadline joined

    def join(self, deadline: float | None = None) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self.waiters.append(fut)
        if deadline is None:
            self._unbounded = True
            self.deadline = None
        elif not self._unbounded:
            self.deadline = deadline if self.deadline is None \
                else max(self.deadline, deadline)
        return fut

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def resolve(self, record: dict) -> None:
        for fut in self.waiters:
            if not fut.done():
                # each waiter gets its own shallow copy: the connection
                # handlers annotate the record (cache/coalesce tags)
                fut.set_result(dict(record))

    def fail(self, exc: BaseException) -> None:
        for fut in self.waiters:
            if not fut.done():
                fut.set_exception(exc)


class Scheduler:
    """Admission-controlled, coalescing dispatcher over a worker pool."""

    def __init__(self, pool: WorkerPool, caches: CacheTiers, *,
                 max_pending: int = 64, governor=None):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.pool = pool
        self.caches = caches
        #: distinct executions queued or running before admission refuses
        self.max_pending = max_pending
        self.stats = SchedulerStats()
        #: optional :class:`~repro.tenancy.qos.TenantGovernor`; when
        #: absent, submit() follows the single-tenant path unchanged
        self.governor = governor
        self._inflight: dict[str, _Batch] = {}
        self._pending = 0
        self._tasks: set[asyncio.Task] = set()

    @property
    def pending(self) -> int:
        """Distinct executions currently queued or running."""
        return self._pending

    # -- observability -------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Expose queue depth and traffic counters on a registry.

        The queue-depth gauge is a callback (read at scrape time); the
        counters are a collector over :class:`SchedulerStats` — the
        dispatch hot path gains no new writes.
        """
        registry.gauge(
            "scheduler_pending",
            "distinct executions queued or running (queue depth)",
            callback=lambda: float(self._pending))
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> dict:
        return {
            "scheduler_requests_total": {
                "type": "counter",
                "help": "scheduler outcomes (cache_hits/coalesced/"
                        "executed/rejected/failed/submitted)",
                "samples": [{"labels": {"outcome": k}, "value": float(v)}
                            for k, v in self.stats.as_dict().items()]},
        }

    def _shed(self, key: str, deadline: float, now: float) -> None:
        """Count and raise a scheduler-stage deadline shed."""
        self.stats.shed_expired += 1
        overshoot = now - deadline
        log.warning("shed expired request %s (%.1fms past deadline)",
                    key, overshoot * 1e3,
                    extra={"cell": key, "overshoot_s": overshoot})
        raise DeadlineExceeded("scheduler", overshoot, 0.0)

    async def submit(self, cell: Cell,
                     deadline: float | None = None,
                     tenant: str | None = None) -> dict:
        """Resolve one request: cache tier, coalesce, or execute.

        Returns the flat row record (annotated with ``served``:
        ``cache`` / ``coalesced`` / ``executed``); raises the
        typed execution error if the cell's execution failed,
        :class:`AdmissionRejected` when the server is saturated, or
        :class:`DeadlineExceeded` when ``deadline`` (absolute epoch
        seconds) lapsed before the work could be served — expired work
        is *shed*, never executed.

        With a governor configured, ``tenant`` is charged the admission
        token, reads and fills go through the tenant's cache partition
        (when it has one), and the execution holds a weighted-fair slot
        for its duration — :class:`~repro.core.errors.QuotaExceeded`
        surfaces when the tenant is over its rate or queue quota.
        Coalescing stays global: joining another tenant's in-flight
        execution is free capacity, not a leak, because the result is
        identical by construction.
        """
        self.stats.submitted += 1
        key = cell.cell_id
        if deadline is not None and time.time() >= deadline:
            self._shed(key, deadline, time.time())
        gov = self.governor
        rows = self.caches.rows
        tname = None
        if gov is not None:
            tname = gov.resolve(tenant)
            gov.admit(tname)
            part = gov.cache_for(tname)
            if part is not None:
                rows = part
        record = rows.get(key)
        if record is not None:
            self.stats.cache_hits += 1
            return dict(record, served="cache")
        if key in self._inflight:
            self.stats.coalesced += 1
            record = await self._inflight[key].join(deadline)
            record["served"] = "coalesced"
            return record
        if self._pending >= self.max_pending:
            self.stats.rejected += 1
            log.warning("admission rejected %s (%d/%d pending)",
                        key, self._pending, self.max_pending,
                        extra={"cell": key, "pending": self._pending})
            raise AdmissionRejected(self._pending, self.max_pending)
        if gov is not None:
            await gov.acquire_slot(tname)
            if deadline is not None and time.time() >= deadline:
                gov.release_slot()
                self._shed(key, deadline, time.time())
        batch = _Batch(cell)
        self._inflight[key] = batch
        self._pending += 1
        fut = batch.join(deadline)
        task = asyncio.get_running_loop().create_task(
            self._execute(key, batch, rows))
        if gov is not None:
            # the slot covers the whole execution, released exactly once
            # when the task settles
            task.add_done_callback(lambda _t: gov.release_slot())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        record = await fut
        record["served"] = "executed"
        return record

    async def _execute(self, key: str, batch: _Batch, fill) -> None:
        now = time.time()
        if batch.expired(now):
            # every waiter's deadline lapsed while queued: shed the work
            # instead of burning a pool slot on a dead request
            self._inflight.pop(key, None)
            self._pending -= 1
            self.stats.shed_expired += 1
            overshoot = now - (batch.deadline or now)
            log.warning("shed expired batch %s (%.1fms past deadline)",
                        key, overshoot * 1e3,
                        extra={"cell": key, "overshoot_s": overshoot})
            batch.fail(DeadlineExceeded("scheduler", overshoot, 0.0))
            return
        try:
            record = await self.pool.run_record(batch.cell)
        except BaseException as e:  # noqa: BLE001 — fan out, don't lose it
            self.stats.failed += 1
            self._inflight.pop(key, None)
            self._pending -= 1
            log.warning("execution failed for %s: %s", key, e,
                        extra={"cell": key,
                               "kind": getattr(e, "kind", "internal")})
            batch.fail(e)
            if not isinstance(e, Exception):
                raise          # CancelledError etc.: propagate after fanning
            return
        self.stats.executed += 1
        # drop from the coalescing map *before* resolving waiters so a
        # request racing in after completion re-executes (or hits the
        # cache) instead of joining a finished batch
        self._inflight.pop(key, None)
        self._pending -= 1
        fill.put(key, dict(record))
        batch.resolve(record)

    async def drain(self) -> None:
        """Wait for every in-flight execution to settle (shutdown path)."""
        if self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
