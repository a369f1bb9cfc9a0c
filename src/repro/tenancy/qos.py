"""Per-tenant QoS primitives: quotas, fair scheduling, cache shares.

Three mechanisms, composed by :class:`TenantGovernor` and consulted by
the service scheduler only when a governor is configured (no governor →
the scheduler's hot path is bit-for-bit the single-tenant one):

* :class:`TokenBucket` — admission *rate* quota.  Each metered tenant
  refills at its provisioned requests/second up to a burst depth; an
  empty bucket rejects with :class:`~repro.core.errors.QuotaExceeded`
  carrying the refill-based retry hint.  This caps how fast a tenant can
  *ask*.
* :class:`FairGate` — weighted start-time fair queueing over a bounded
  number of execution slots.  This caps how much a tenant can *hold*:
  when the slots are contended, waiters drain in virtual-time order, so
  a tenant flooding the queue gets its weight's share and no more, while
  an uncontended gate grants immediately (zero added latency when the
  server is idle).  Per-tenant wait queues are bounded; overflow rejects
  rather than queueing without bound.
* **Cache partitions** — each metered tenant's rows land in its own
  bounded :class:`~repro.service.cache.LRUCache` sized as a share of the
  row tier, so a scan-heavy tenant evicts *its own* rows, never a
  latency-sensitive neighbour's.

Requests without a tenant map onto :data:`DEFAULT_TENANT`, governed by
the config's default policy.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core.errors import QuotaExceeded
from ..service.cache import LRUCache

#: The tenant identity applied to requests that carry none.
DEFAULT_TENANT = "default"


class TokenBucket:
    """Thread-safe token bucket: ``rate`` tokens/second up to ``burst``.

    Starts full.  :meth:`try_spend` withdraws atomically and returns
    ``0.0`` on success or the seconds until the bucket could cover the
    cost — the retry hint shipped to the client.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_spend(self) -> float:
        """Withdraw one token; 0.0 on success, else seconds until the
        refill would cover it."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


class FairGate:
    """Weighted start-time fair queueing over ``capacity`` slots.

    Runs on one event loop (the server's), so the bookkeeping needs no
    locks — the same discipline as the scheduler it gates.  While slots
    are free and nobody queues, :meth:`acquire` grants synchronously.
    Under contention each waiter gets a virtual *finish tag*
    ``max(vtime, tenant's last tag) + 1/weight`` and waiters drain in
    tag order: a weight-2 tenant's tags advance half as fast, so it
    drains twice as often — proportional share without timestamps or
    preemption (start-time fair queueing, as in WFQ/SFQ schedulers).

    A tenant may hold at most ``max_queue`` queued waiters; beyond that
    :meth:`acquire` raises :class:`QuotaExceeded` (reason ``"queue"``) —
    the flooding tenant is the one that gets rejected, because only its
    own queue is deep.
    """

    def __init__(self, capacity: int, *, max_queue: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.capacity = capacity
        self.max_queue = max_queue
        self._active = 0
        self._vtime = 0.0
        self._last_tag: dict[str, float] = {}
        self._heap: list[tuple[float, int, str, asyncio.Future]] = []
        self._queued: dict[str, int] = {}
        self._seq = itertools.count()

    @property
    def active(self) -> int:
        return self._active

    def queue_depth(self) -> int:
        """Waiters queued across every tenant."""
        return sum(self._queued.values())

    async def acquire(self, tenant: str, weight: float = 1.0) -> None:
        if self._active < self.capacity and not self._heap:
            self._active += 1
            return
        depth = self._queued.get(tenant, 0)
        if depth >= self.max_queue:
            raise QuotaExceeded(tenant, "queue")
        tag = max(self._vtime, self._last_tag.get(tenant, 0.0)) \
            + 1.0 / max(weight, 1e-9)
        self._last_tag[tenant] = tag
        fut = asyncio.get_running_loop().create_future()
        heapq.heappush(self._heap, (tag, next(self._seq), tenant, fut))
        self._queued[tenant] = depth + 1
        await fut

    def release(self) -> None:
        self._active -= 1
        while self._heap and self._active < self.capacity:
            tag, _, tenant, fut = heapq.heappop(self._heap)
            remaining = self._queued.get(tenant, 1) - 1
            if remaining > 0:
                self._queued[tenant] = remaining
            else:
                self._queued.pop(tenant, None)
            if fut.done():          # waiter was cancelled while queued
                continue
            self._vtime = max(self._vtime, tag)
            self._active += 1
            fut.set_result(None)


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's provisioned QoS envelope.

    ``rate=None`` leaves the tenant unmetered (no token bucket);
    ``cache_share=None`` leaves it on the shared row tier.  ``weight``
    always participates in fair queueing.
    """

    rate: float | None = None        # admission tokens/second
    burst: float | None = None       # bucket depth (default: max(rate, 1))
    weight: float = 1.0              # fair-share weight under contention
    cache_share: float | None = None  # fraction of the row tier

    def __post_init__(self):
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive (or None)")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.cache_share is not None \
                and not 0.0 < self.cache_share <= 1.0:
            raise ValueError("cache_share must be in (0, 1]")


@dataclass(frozen=True)
class QosConfig:
    """Governor-wide knobs plus the per-tenant policy table."""

    policies: Mapping[str, TenantPolicy] = field(default_factory=dict)
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    fair_slots: int = 4              # concurrently held execution slots
    max_queue: int = 64              # per-tenant fair-queue depth bound
    row_capacity: int = 1024         # base the cache shares are cut from

    def __post_init__(self):
        if self.fair_slots < 1:
            raise ValueError("fair_slots must be >= 1")
        if self.row_capacity < 1:
            raise ValueError("row_capacity must be >= 1")


class TenantGovernor:
    """One object the scheduler consults per request: quota, slot, cache.

    Construction is cheap; buckets and cache partitions materialize
    lazily on a tenant's first request.  The governor counts nothing:
    :meth:`admit` and :meth:`acquire_slot` raise :class:`QuotaExceeded`
    with a ``reason``, and the scheduler built over the governor counts
    each outcome on its registry.
    """

    def __init__(self, config: QosConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or QosConfig()
        self._clock = clock
        self.gate = FairGate(self.config.fair_slots,
                             max_queue=self.config.max_queue)
        self._buckets: dict[str, TokenBucket] = {}
        self._partitions: dict[str, LRUCache] = {}

    # -- policy resolution ---------------------------------------------------

    def resolve(self, tenant: str | None) -> str:
        return tenant if tenant else DEFAULT_TENANT

    def policy(self, tenant: str) -> TenantPolicy:
        return self.config.policies.get(tenant, self.config.default_policy)

    # -- admission (rate quota) ----------------------------------------------

    def admit(self, tenant: str) -> None:
        """Spend one admission token; raise :class:`QuotaExceeded` with
        a retry hint when the tenant's bucket is dry."""
        pol = self.policy(tenant)
        if pol.rate is None:
            return
        bucket = self._buckets.get(tenant)
        if bucket is None:
            burst = pol.burst if pol.burst is not None else max(pol.rate, 1.0)
            bucket = TokenBucket(pol.rate, burst, self._clock)
            self._buckets[tenant] = bucket
        retry_after = bucket.try_spend()
        if retry_after > 0.0:
            raise QuotaExceeded(tenant, "rate", round(retry_after, 4))

    # -- fair execution slots ------------------------------------------------

    async def acquire_slot(self, tenant: str) -> None:
        await self.gate.acquire(tenant, self.policy(tenant).weight)

    def release_slot(self) -> None:
        self.gate.release()

    # -- cache partitions ----------------------------------------------------

    def cache_for(self, tenant: str) -> LRUCache | None:
        """The tenant's bounded row partition, or ``None`` for tenants
        left on the shared tier."""
        share = self.policy(tenant).cache_share
        if share is None:
            return None
        part = self._partitions.get(tenant)
        if part is None:
            part = LRUCache(max(1, int(share * self.config.row_capacity)))
            self._partitions[tenant] = part
        return part

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "gate": {"active": self.gate.active,
                     "queued": self.gate.queue_depth()},
            "partitions": {t: {"entries": len(c), **c.stats.as_dict()}
                           for t, c in sorted(self._partitions.items())},
        }
