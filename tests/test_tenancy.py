"""Tests for the multi-tenant QoS layer: token buckets, weighted-fair
queueing, the governor's admission/cache/slot composition, scheduler
integration, tenant identity on the wire, and the loadgen tenant
stamping."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.errors import QuotaExceeded
from repro.obs import MetricsRegistry, counter_total
from repro.resilience import Cell
from repro.service import (
    CacheTiers,
    GraphService,
    PoolConfig,
    Scheduler,
    ServiceClient,
    ServiceThread,
    decode_frame,
    encode_request,
    error_to_payload,
    parse_request,
    payload_to_error,
)
from repro.tenancy import (
    DEFAULT_TENANT,
    FairGate,
    QosConfig,
    TenantGovernor,
    TenantPolicy,
    TokenBucket,
)


class _Clock:
    """Manual monotonic clock for deterministic refill tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- token bucket ------------------------------------------------------------

class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = _Clock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_spend() for _ in range(3)] == [0.0, 0.0, 0.0]
        retry = bucket.try_spend()
        assert retry == pytest.approx(0.1)      # 1 token at 10/s

    def test_refills_at_rate_up_to_burst(self):
        clock = _Clock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            bucket.try_spend()
        clock.advance(1.0)                      # +2 tokens, then 1 at 2/s
        assert [bucket.try_spend() for _ in range(3)] == [
            0.0, 0.0, pytest.approx(0.5)]
        clock.advance(100.0)                    # clamped at burst
        assert [bucket.try_spend() for _ in range(5)] == [
            0.0] * 4 + [pytest.approx(0.5)]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


# -- weighted-fair gate ------------------------------------------------------

class TestFairGate:
    def test_uncontended_grants_synchronously(self):
        async def main():
            gate = FairGate(2)
            await gate.acquire("a")
            await gate.acquire("b")
            assert gate.active == 2
            assert gate.queue_depth() == 0
            gate.release()
            gate.release()
            assert gate.active == 0

        asyncio.run(main())

    def test_weighted_drain_favours_heavy_tenant(self):
        """With weights 2:1, the heavy tenant drains ~2 of every 3
        grants under sustained contention."""

        async def main():
            gate = FairGate(1)
            order: list[str] = []
            await gate.acquire("holder")        # force contention

            async def waiter(tenant: str, weight: float):
                await gate.acquire(tenant, weight)
                order.append(tenant)
                gate.release()

            tasks = []
            for i in range(6):
                tasks.append(asyncio.ensure_future(
                    waiter("heavy", 2.0)))
                await asyncio.sleep(0)          # enqueue in arrival order
            for i in range(3):
                tasks.append(asyncio.ensure_future(
                    waiter("light", 1.0)))
                await asyncio.sleep(0)
            gate.release()                      # start the drain
            await asyncio.gather(*tasks)
            return order

        order = asyncio.run(main())
        assert len(order) == 9
        # tag spacing: heavy advances by 1/2 per grant, light by 1/1 —
        # the first three grants cannot all be the heavy tenant's
        assert "light" in order[:3]
        # and the heavy tenant still gets the majority overall
        assert order.count("heavy") == 6

    def test_queue_bound_rejects_the_flooder_only(self):
        async def main():
            gate = FairGate(1, max_queue=2)
            await gate.acquire("hold")
            flood = [asyncio.ensure_future(gate.acquire("noisy"))
                     for _ in range(2)]
            await asyncio.sleep(0)
            with pytest.raises(QuotaExceeded) as exc:
                await gate.acquire("noisy")
            assert exc.value.reason == "queue"
            # a different tenant still queues fine
            quiet = asyncio.ensure_future(gate.acquire("quiet"))
            await asyncio.sleep(0)
            assert gate.queue_depth() == 3    # the flooder's two, quiet's one
            # drain order is tag order: the quiet tenant's first request
            # (tag 1.0) jumps ahead of the flooder's second (tag 2.0)
            gate.release()
            await flood[0]
            gate.release()
            await quiet
            gate.release()
            await flood[1]
            gate.release()

        asyncio.run(main())


# -- governor ----------------------------------------------------------------

class TestTenantGovernor:
    def _gov(self, clock=None, **policies):
        cfg = QosConfig(policies=dict(policies),
                        default_policy=TenantPolicy(),
                        row_capacity=100)
        return TenantGovernor(cfg, clock=clock or time.monotonic)

    def test_unmetered_default_always_admits(self):
        gov = self._gov()
        assert gov.resolve(None) == DEFAULT_TENANT
        for _ in range(1000):
            gov.admit(gov.resolve(None))        # never raises

    def test_metered_tenant_hits_rate_quota_with_retry_hint(self):
        clock = _Clock()
        gov = self._gov(clock=clock,
                        noisy=TenantPolicy(rate=10.0, burst=2.0))
        gov.admit("noisy")
        gov.admit("noisy")
        with pytest.raises(QuotaExceeded) as exc:
            gov.admit("noisy")
        assert exc.value.reason == "rate"
        assert exc.value.retry_after_s == pytest.approx(0.1)
        clock.advance(0.2)                      # bucket refills
        gov.admit("noisy")

    def test_cache_partition_sized_from_share(self):
        gov = self._gov(small=TenantPolicy(cache_share=0.1))
        part = gov.cache_for("small")
        assert part is not None and part.capacity == 10
        assert gov.cache_for("small") is part   # memoized
        assert gov.cache_for(DEFAULT_TENANT) is None  # shared tier

    def test_metrics_collector_shape(self):
        # the governor counts nothing; the scheduler built over it counts
        # each admission outcome on its registry
        gov = self._gov(clock=_Clock(),
                        noisy=TenantPolicy(rate=10.0, burst=1.0))
        reg = MetricsRegistry()

        async def main():
            sched = Scheduler(_FakePool(), _cache_off(), governor=gov,
                              registry=reg)
            await sched.submit(_cell(seed=0))
            await sched.submit(_cell(seed=1), tenant="noisy")
            with pytest.raises(QuotaExceeded):
                await sched.submit(_cell(seed=2), tenant="noisy")
            await sched.drain()

        asyncio.run(main())
        snap = reg.snapshot()
        counts = {(s["labels"]["tenant"], s["labels"]["outcome"]):
                  s["value"]
                  for s in snap["tenant_requests_total"]["samples"]}
        assert counts == {(DEFAULT_TENANT, "admitted"): 1.0,
                          ("noisy", "admitted"): 1.0,
                          ("noisy", "rejected_rate"): 1.0}
        assert snap["tenant_gate_queued"]["samples"][0]["value"] == 0.0

    def test_scheduler_counts_a_fair_queue_rejection(self):
        gov = TenantGovernor(QosConfig(fair_slots=1, max_queue=1))
        reg = MetricsRegistry()

        async def main():
            sched = Scheduler(_FakePool(), _cache_off(), governor=gov,
                              registry=reg)
            # one holds the slot, one queues, the third overflows
            results = await asyncio.gather(
                *[sched.submit(_cell(seed=i), tenant="t")
                  for i in range(3)], return_exceptions=True)
            await sched.drain()
            return results

        results = asyncio.run(main())
        assert [r["served"] for r in results[:2]] == ["executed"] * 2
        assert isinstance(results[2], QuotaExceeded)
        assert counter_total(reg.snapshot(), "tenant_requests_total",
                             tenant="t", outcome="rejected_queue") == 1


# -- scheduler integration ---------------------------------------------------

class _FakePool:
    def __init__(self):
        self.calls = []

    async def run_record(self, cell):
        self.calls.append(cell.cell_id)
        await asyncio.sleep(0)
        return {"kind": "row", "cell": cell.cell_id,
                "workload": cell.workload, "dataset": cell.dataset,
                "ctype": "CompStruct", "outputs": {}}


def _cell(workload="BFS", dataset="ldbc", seed=0):
    return Cell(workload=workload, dataset=dataset, scale=0.05,
                seed=seed, machine="test")


def _cache_off():
    return CacheTiers.build(dataset_capacity=0, row_capacity=0)


class TestSchedulerWithGovernor:
    def test_rate_quota_surfaces_from_submit(self):
        clock = _Clock()
        gov = TenantGovernor(QosConfig(
            policies={"noisy": TenantPolicy(rate=5.0, burst=1.0)}),
            clock=clock)

        async def main():
            sched = Scheduler(_FakePool(),
                              CacheTiers.build(dataset_capacity=0,
                                               row_capacity=0),
                              governor=gov)
            await sched.submit(_cell(seed=0), tenant="noisy")
            with pytest.raises(QuotaExceeded):
                await sched.submit(_cell(seed=1), tenant="noisy")
            # the quiet (unmetered) tenant is unaffected
            await sched.submit(_cell(seed=2), tenant="quiet")
            await sched.drain()

        asyncio.run(main())

    def test_tenant_cache_partition_isolates_fills(self):
        gov = TenantGovernor(QosConfig(
            policies={"vip": TenantPolicy(cache_share=0.5)},
            row_capacity=64))

        async def main():
            pool = _FakePool()
            sched = Scheduler(pool, CacheTiers.build(), governor=gov)
            first = await sched.submit(_cell(), tenant="vip")
            second = await sched.submit(_cell(), tenant="vip")
            # a shared-tier tenant missed the vip partition: re-executes
            third = await sched.submit(_cell(), tenant="other")
            await sched.drain()
            return pool.calls, first, second, third

        calls, first, second, third = asyncio.run(main())
        assert first["served"] == "executed"
        assert second["served"] == "cache"
        assert third["served"] == "executed"
        assert len(calls) == 2
        assert len(gov.cache_for("vip")) == 1

    def test_slots_released_after_execution(self):
        gov = TenantGovernor(QosConfig(fair_slots=2))

        async def main():
            sched = Scheduler(_FakePool(),
                              CacheTiers.build(dataset_capacity=0,
                                               row_capacity=0),
                              governor=gov)
            await asyncio.gather(*[
                sched.submit(_cell(seed=i), tenant=f"t{i % 3}")
                for i in range(8)])
            await sched.drain()
            # gather returned, so every submit's future resolved; the
            # release callbacks run on task completion
            for _ in range(3):
                await asyncio.sleep(0)
            return gov.gate.active

        assert asyncio.run(main()) == 0


# -- wire protocol -----------------------------------------------------------

class TestTenantOnTheWire:
    def test_tenant_round_trips(self):
        wire = encode_request("run", "r1", {"workload": "BFS"},
                              tenant="acme")
        req = parse_request(decode_frame(wire))
        assert req.tenant == "acme"

    def test_tenantless_frame_is_byte_identical_to_legacy(self):
        wire = encode_request("run", "r1", {"workload": "BFS"})
        assert b"tenant" not in wire
        assert parse_request(decode_frame(wire)).tenant is None

    def test_invalid_tenant_rejected(self):
        from repro.core.errors import ProtocolError
        frame = decode_frame(encode_request("ping", "r1", {}))
        frame["tenant"] = 7
        with pytest.raises(ProtocolError):
            parse_request(frame)

    def test_quota_exceeded_rehydrates_with_retry_hint(self):
        payload = error_to_payload(QuotaExceeded("acme", "rate", 0.25))
        err = payload_to_error(payload)
        assert isinstance(err, QuotaExceeded)
        assert err.kind == "quota-exceeded"
        assert err.retry_after_s == 0.25
        assert "acme" in str(err)


# -- end to end --------------------------------------------------------------

class TestLiveQosService:
    def test_metered_tenant_rejected_while_quiet_tenant_serves(self):
        gov = TenantGovernor(QosConfig(
            policies={"noisy": TenantPolicy(rate=0.001, burst=1.0)}))
        service = GraphService(
            pool_config=PoolConfig(size=2, isolation="inline"),
            governor=gov)
        with ServiceThread(service) as st:
            with ServiceClient(st.host, st.port,
                               tenant="noisy") as noisy:
                noisy.request("run", workload="BFS", dataset="ldbc",
                              scale=0.02, seed=0, machine="test", gpu=False)
                with pytest.raises(QuotaExceeded) as exc:
                    noisy.request("run", workload="CComp", dataset="ldbc",
                                  scale=0.02, seed=0, machine="test",
                                  gpu=False)
                assert exc.value.retry_after_s > 0
            with ServiceClient(st.host, st.port,
                               tenant="quiet") as quiet:
                out = quiet.request("run", workload="CComp", dataset="ldbc",
                                    scale=0.02, seed=0, machine="test",
                                    gpu=False)
                assert out["outputs"]
                stats = quiet.stats()
        m = stats["metrics"]
        assert counter_total(m, "tenant_requests_total", tenant="noisy",
                             outcome="rejected_rate") == 1
        assert counter_total(m, "tenant_requests_total", tenant="quiet",
                             outcome="admitted") >= 1
        assert set(stats["tenancy"]) == {"gate", "partitions"}

    def test_no_governor_stats_carry_no_tenancy_block(self):
        service = GraphService(
            pool_config=PoolConfig(size=1, isolation="inline"))
        with ServiceThread(service) as st:
            with ServiceClient(st.host, st.port) as client:
                assert "tenancy" not in client.stats()


# -- loadgen tenant stamping -------------------------------------------------

class TestAssignTenants:
    def test_content_unchanged_and_deterministic(self):
        from repro.service.loadgen import (
            assign_tenants,
            schedule,
            workload_mix,
        )
        mix = workload_mix(("BFS",), ("ldbc", "twitter"))
        plan = schedule(mix, 60, seed=5, dataset_skew=1.0)
        stamped = assign_tenants(plan, 3, skew=1.2, seed=5)
        assert [(q.op, q.params) for q in stamped] \
            == [(q.op, q.params) for q in plan]
        assert all(q.tenant is None for q in plan)
        again = assign_tenants(plan, 3, skew=1.2, seed=5)
        assert [q.tenant for q in again] \
            == [q.tenant for q in stamped]

    def test_skew_concentrates_on_first_tenant(self):
        from repro.service.loadgen import (
            assign_tenants,
            schedule,
            workload_mix,
        )
        plan = schedule(workload_mix(("BFS",)), 300, seed=0)
        stamped = assign_tenants(plan, 4, skew=1.5, seed=0)
        counts = {}
        for q in stamped:
            counts[q.tenant] = counts.get(q.tenant, 0) + 1
        assert counts["tenant-0"] == max(counts.values())
        assert counts["tenant-0"] > len(plan) / 4
        with pytest.raises(ValueError):
            assign_tenants(plan, 0)
