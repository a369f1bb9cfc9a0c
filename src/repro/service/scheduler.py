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
pool handoff, so the bookkeeping needs no locks.  How each request was
satisfied is counted on the ``registry`` the scheduler is built with —
``scheduler_requests_total{outcome}``, and with a governor the
tenant's admission outcome in ``tenant_requests_total{tenant,outcome}``.
"""

from __future__ import annotations

import asyncio
import time

from ..core.errors import AdmissionRejected, DeadlineExceeded, QuotaExceeded
from ..obs.logs import get_logger
from ..obs.metrics import MetricsRegistry
from ..resilience.cell import Cell
from .cache import CacheTiers
from .pool import WorkerPool

log = get_logger("service.scheduler")

#: The ``outcome`` label values of ``scheduler_requests_total``.
OUTCOMES = ("submitted", "cache_hits", "coalesced", "executed", "rejected",
            "failed", "shed_expired")


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
                 max_pending: int = 64, governor=None,
                 registry: MetricsRegistry | None = None):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.pool = pool
        self.caches = caches
        #: distinct executions queued or running before admission refuses
        self.max_pending = max_pending
        #: optional :class:`~repro.tenancy.qos.TenantGovernor`; when
        #: absent, submit() follows the single-tenant path unchanged
        self.governor = governor
        self._inflight: dict[str, _Batch] = {}
        self._pending = 0
        self._tasks: set[asyncio.Task] = set()
        self.registry = reg = registry if registry is not None \
            else MetricsRegistry()
        reg.gauge("scheduler_pending",
                  "distinct executions queued or running (queue depth)",
                  callback=lambda: float(self._pending))
        requests = reg.counter(
            "scheduler_requests_total",
            "scheduler outcomes (cache_hits/coalesced/executed/rejected/"
            "failed/submitted)", labels=("outcome",))
        (self._m_submitted, self._m_hits, self._m_coalesced,
         self._m_executed, self._m_rejected, self._m_failed,
         self._m_shed) = (requests.labels(outcome=o) for o in OUTCOMES)
        if governor is not None:
            reg.gauge("tenant_gate_queued",
                      "waiters queued at the weighted-fair gate",
                      callback=lambda: float(governor.gate.queue_depth()))
            self._m_tenant = reg.counter(
                "tenant_requests_total", "per-tenant admission outcomes "
                "(admitted/rejected_rate/rejected_queue)",
                labels=("tenant", "outcome"))

    @property
    def pending(self) -> int:
        """Distinct executions currently queued or running."""
        return self._pending

    def _shed(self, key: str, deadline: float, now: float) -> None:
        """Count and raise a scheduler-stage deadline shed."""
        self._m_shed.inc()
        overshoot = now - deadline
        log.warning("shed expired request %s (%.1fms past deadline)",
                    key, overshoot * 1e3,
                    extra={"cell": key, "overshoot_s": overshoot})
        raise DeadlineExceeded("scheduler", overshoot, 0.0)

    def _admit(self, gov, tenant: str) -> None:
        """Charge ``tenant`` its admission token, counting the outcome."""
        try:
            gov.admit(tenant)
        except QuotaExceeded as e:
            self._m_tenant.labels(tenant=tenant,
                                  outcome=f"rejected_{e.reason}").inc()
            raise
        self._m_tenant.labels(tenant=tenant, outcome="admitted").inc()

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
        self._m_submitted.inc()
        key = cell.cell_id
        if deadline is not None and time.time() >= deadline:
            self._shed(key, deadline, time.time())
        gov = self.governor
        rows = self.caches.rows
        tname = None
        if gov is not None:
            tname = gov.resolve(tenant)
            self._admit(gov, tname)
            part = gov.cache_for(tname)
            if part is not None:
                rows = part
        record = rows.get(key)
        if record is not None:
            self._m_hits.inc()
            return dict(record, served="cache")
        if key in self._inflight:
            self._m_coalesced.inc()
            record = await self._inflight[key].join(deadline)
            record["served"] = "coalesced"
            return record
        if self._pending >= self.max_pending:
            self._m_rejected.inc()
            log.warning("admission rejected %s (%d/%d pending)",
                        key, self._pending, self.max_pending,
                        extra={"cell": key, "pending": self._pending})
            raise AdmissionRejected(self._pending, self.max_pending)
        if gov is not None:
            try:
                await gov.acquire_slot(tname)
            except QuotaExceeded as e:
                self._m_tenant.labels(tenant=tname,
                                      outcome=f"rejected_{e.reason}").inc()
                raise
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
            self._m_shed.inc()
            overshoot = now - (batch.deadline or now)
            log.warning("shed expired batch %s (%.1fms past deadline)",
                        key, overshoot * 1e3,
                        extra={"cell": key, "overshoot_s": overshoot})
            batch.fail(DeadlineExceeded("scheduler", overshoot, 0.0))
            return
        try:
            record = await self.pool.run_record(batch.cell)
        except BaseException as e:  # noqa: BLE001 — fan out, don't lose it
            self._m_failed.inc()
            self._inflight.pop(key, None)
            self._pending -= 1
            log.warning("execution failed for %s: %s", key, e,
                        extra={"cell": key,
                               "kind": getattr(e, "kind", "internal")})
            batch.fail(e)
            if not isinstance(e, Exception):
                raise          # CancelledError etc.: propagate after fanning
            return
        self._m_executed.inc()
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
