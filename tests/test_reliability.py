"""Tests for the end-to-end request-reliability layer: circuit breaker
state machine (injected clock, no sleeps), retry-budget token math,
deadline propagation on the wire and shedding at the scheduler and the
router, degraded stale serving with the hard staleness cap, and the
stats/metrics observability surface."""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.cluster import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ClusterSpec,
    ClusterThread,
    ReliabilityConfig,
    RetryBudget,
    Router,
    ShardAddress,
)
from repro.core.errors import (
    CellCrash,
    CircuitOpen,
    DeadlineExceeded,
    ProtocolError,
    RetryBudgetExhausted,
)
from repro.resilience import Cell
from repro.service import (
    CacheTiers,
    LRUCache,
    Scheduler,
    SchedulerConfig,
    ServiceClient,
    decode_frame,
    encode_error,
    encode_request,
    parse_request,
    payload_to_error,
)
from repro.service.protocol import Request


class _Clock:
    """Deterministic monotonic clock for breaker tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- circuit breaker ---------------------------------------------------------

class TestCircuitBreaker:
    def test_threshold_opens_the_circuit(self):
        clock = _Clock()
        b = CircuitBreaker("s0", failure_threshold=3, clock=clock)
        assert b.state == BREAKER_CLOSED
        for _ in range(2):
            b.record_failure()
        assert b.state == BREAKER_CLOSED          # under threshold
        assert b.allow()
        b.record_failure()
        assert b.state == BREAKER_OPEN
        assert not b.allow()                      # refused instantly

    def test_success_resets_the_failure_streak(self):
        b = CircuitBreaker("s0", failure_threshold=2, clock=_Clock())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == BREAKER_CLOSED          # streak broken

    def test_half_open_admits_exactly_one_probe(self):
        clock = _Clock()
        b = CircuitBreaker("s0", failure_threshold=1,
                           reset_timeout_s=1.0, clock=clock)
        b.record_failure()
        assert not b.allow()
        clock.advance(1.0)                        # reset timeout lapsed
        assert b.allow()                          # the probe
        assert b.state == BREAKER_HALF_OPEN
        assert not b.allow()                      # one trial at a time
        b.record_success()
        assert b.state == BREAKER_CLOSED
        assert b.allow()

    def test_failed_probe_backs_off_exponentially(self):
        clock = _Clock()
        b = CircuitBreaker("s0", failure_threshold=1,
                           reset_timeout_s=1.0, backoff_factor=2.0,
                           max_reset_timeout_s=3.0, clock=clock)
        b.record_failure()
        clock.advance(1.0)
        assert b.allow()
        b.record_failure()                        # probe failed: re-open
        assert b.state == BREAKER_OPEN
        clock.advance(1.0)
        assert not b.allow()                      # backed off to 2s
        clock.advance(1.0)
        assert b.allow()
        b.record_failure()
        assert b.snapshot()["reset_timeout_s"] == 3.0   # capped

    def test_abandoned_probe_releases_the_slot_without_judging(self):
        clock = _Clock()
        b = CircuitBreaker("s0", failure_threshold=1,
                           reset_timeout_s=1.0, clock=clock)
        b.record_failure()
        clock.advance(1.0)
        assert b.allow()
        assert not b.allow()
        b.record_abandoned()                      # probe cancelled
        assert b.state == BREAKER_HALF_OPEN       # no verdict either way
        assert b.allow()                          # slot free again

    def test_transitions_observed_and_counted(self):
        clock = _Clock()
        seen: list[tuple[str, str, str]] = []
        b = CircuitBreaker("s0", failure_threshold=1,
                           reset_timeout_s=1.0, clock=clock,
                           on_transition=lambda *a: seen.append(a))
        b.record_failure()
        clock.advance(1.0)
        b.allow()
        b.record_success()
        assert seen == [("s0", BREAKER_CLOSED, BREAKER_OPEN),
                        ("s0", BREAKER_OPEN, BREAKER_HALF_OPEN),
                        ("s0", BREAKER_HALF_OPEN, BREAKER_CLOSED)]
        snap = b.snapshot()
        assert snap["transitions"] == {BREAKER_OPEN: 1,
                                       BREAKER_HALF_OPEN: 1,
                                       BREAKER_CLOSED: 1}

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker("s0", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("s0", reset_timeout_s=0)
        with pytest.raises(ValueError):
            CircuitBreaker("s0", backoff_factor=0.5)


# -- retry budget ------------------------------------------------------------

class TestRetryBudget:
    def test_bucket_starts_full_and_drains(self):
        budget = RetryBudget(ratio=0.1, max_tokens=2.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()             # spent
        snap = budget.snapshot()
        assert snap["granted"] == 2 and snap["denied"] == 1

    def test_requests_deposit_the_ratio(self):
        budget = RetryBudget(ratio=0.5, max_tokens=10.0)
        while budget.try_spend():
            pass
        budget.on_request()
        budget.on_request()                       # 2 * 0.5 = 1 token
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_sustained_amplification_is_bounded(self):
        # the storm-prevention contract: over N first attempts, at most
        # max_tokens + N*ratio retries can ever be granted
        budget = RetryBudget(ratio=0.1, max_tokens=5.0)
        n, granted = 200, 0
        for _ in range(n):
            budget.on_request()
            while budget.try_spend():             # adversarial: spend all
                granted += 1
        assert granted <= 5.0 + n * 0.1

    def test_deposits_cap_at_max_tokens(self):
        budget = RetryBudget(ratio=1.0, max_tokens=3.0)
        for _ in range(10):
            budget.on_request()
        assert budget.tokens == 3.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ValueError):
            RetryBudget(max_tokens=0.5)


# -- deadline on the wire ----------------------------------------------------

class TestDeadlineProtocol:
    def test_deadline_rides_the_frame(self):
        deadline = time.time() + 5.0
        wire = encode_request("run", "r1", {"workload": "BFS"},
                              deadline=deadline)
        req = parse_request(decode_frame(wire))
        assert req.deadline == pytest.approx(deadline)
        assert 0 < req.remaining() <= 5.0

    def test_no_deadline_means_unbounded(self):
        req = parse_request(decode_frame(encode_request("ping", "r1")))
        assert req.deadline is None
        assert req.remaining() is None

    @pytest.mark.parametrize("bad", ['"soon"', "true", "[1]"])
    def test_malformed_deadline_rejected(self, bad):
        frame = (b'{"v": 1, "op": "ping", "id": "x", "deadline": '
                 + bad.encode() + b"}\n")
        with pytest.raises(ProtocolError):
            parse_request(decode_frame(frame))

    def test_remaining_against_explicit_now(self):
        req = Request(op="ping", id="r", params={}, deadline=100.0)
        assert req.remaining(now=97.5) == pytest.approx(2.5)
        assert req.remaining(now=101.0) == pytest.approx(-1.0)

    def test_reliability_errors_round_trip_the_wire(self):
        cases = [DeadlineExceeded("router", 1.5, 1.0),
                 CircuitOpen("ldbc", ("s0", "s1")),
                 RetryBudgetExhausted("ldbc", ("s0",))]
        for err in cases:
            frame = decode_frame(encode_error("r", err))
            back = payload_to_error(frame["error"])
            assert type(back) is type(err)
            assert back.kind == err.kind


# -- scheduler: shedding + degraded serving ----------------------------------

class _FailingPool:
    """Pool stand-in that can be flipped into always-crash mode."""

    def __init__(self):
        self.calls = 0
        self.failing = False

    async def run_record(self, cell):
        self.calls += 1
        await asyncio.sleep(0)
        if self.failing:
            raise CellCrash(cell.cell_id, "induced worker death")
        return {"kind": "row", "cell": cell.cell_id,
                "workload": cell.workload, "dataset": cell.dataset,
                "ctype": "CompStruct", "outputs": {}}


def _cell(seed=0):
    return Cell(workload="BFS", dataset="ldbc", scale=0.05, seed=seed,
                machine="test")


class TestSchedulerReliability:
    def test_expired_deadline_is_shed_before_execution(self):
        async def main():
            pool = _FailingPool()
            sched = Scheduler(pool,
                              CacheTiers.build(dataset_capacity=0,
                                               row_capacity=0))
            with pytest.raises(DeadlineExceeded) as exc:
                await sched.submit(_cell(), deadline=time.time() - 1.0)
            return pool.calls, sched.stats, exc.value

        calls, stats, err = asyncio.run(main())
        assert calls == 0                         # shed, never executed
        assert stats.shed_expired == 1
        assert err.kind == "deadline-exceeded"

    def test_execution_failure_serves_stale_with_disclosed_age(self):
        async def main():
            pool = _FailingPool()
            sched = Scheduler(pool, CacheTiers.build())
            fresh = await sched.submit(_cell())
            # make the cached row *expired* so only the stale path has it
            sched.caches.rows.ttl_s = 1e-9
            for entry in sched.caches.rows._data.values():
                entry.deadline = 0.0
            pool.failing = True
            degraded = await sched.submit(_cell())
            return fresh, degraded, sched.stats

        fresh, degraded, stats = asyncio.run(main())
        assert fresh["served"] == "executed"
        assert degraded["degraded"] is True
        assert degraded["served"] == "stale"
        assert degraded["staleness_s"] >= 0.0
        assert stats.degraded == 1

    def test_stale_beyond_the_cap_is_as_good_as_absent(self):
        async def main():
            pool = _FailingPool()
            sched = Scheduler(pool, CacheTiers.build(),
                              SchedulerConfig(stale_cap_s=1e-9))
            await sched.submit(_cell())
            for entry in sched.caches.rows._data.values():
                entry.deadline = 0.0
            pool.failing = True
            await asyncio.sleep(0.01)             # age past the cap
            with pytest.raises(CellCrash):
                await sched.submit(_cell())
            return sched.stats

        stats = asyncio.run(main())
        assert stats.degraded == 0                # cap held: error, not lie

    def test_shed_never_serves_stale(self):
        # degraded serving is for execution failures only — an expired
        # deadline is the *caller's* verdict and must stay an error
        async def main():
            pool = _FailingPool()
            sched = Scheduler(pool, CacheTiers.build())
            await sched.submit(_cell())
            with pytest.raises(DeadlineExceeded):
                await sched.submit(_cell(), deadline=time.time() - 1.0)

        asyncio.run(main())


class TestLRUCacheStaleReads:
    def test_get_stale_reads_expired_entries_with_age(self):
        clock = _Clock(100.0)
        cache = LRUCache(capacity=4, ttl_s=1.0, clock=clock)
        cache.put("k", {"x": 1})
        clock.advance(5.0)
        assert cache.get("k") is None             # fresh path: expired
        value, age = cache.get_stale("k")
        assert value == {"x": 1}
        assert age == pytest.approx(5.0)
        assert cache.stats.stale_serves == 1

    def test_get_stale_honours_the_hard_cap(self):
        clock = _Clock(0.0)
        cache = LRUCache(capacity=4, ttl_s=1.0, clock=clock)
        cache.put("k", "v")
        clock.advance(10.0)
        assert cache.get_stale("k", max_age_s=5.0) is None
        assert cache.get_stale("k", max_age_s=60.0) is not None


# -- reliability config ------------------------------------------------------

class TestReliabilityConfig:
    def test_defaults_are_enabled_with_stale_serving(self):
        rel = ReliabilityConfig()
        assert rel.stale_cap_s > 0                # stale serving is on
        assert rel.hedge_quantile is None         # hedging is opt-in

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(hedge_quantile=0.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(hedge_quantile=101.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(stale_cap_s=0.0)

    def test_snapshot_shape_without_serving(self):
        # a router's reliability surface is inspectable before any
        # traffic: construct over unreachable addresses, never dial
        router = Router([ShardAddress("s0", "127.0.0.1", 1),
                         ShardAddress("s1", "127.0.0.1", 2)],
                        replication=2,
                        reliability=ReliabilityConfig(hedge_quantile=95.0))
        snap = router.reliability_snapshot()
        assert set(snap["breakers"]) == {"s0", "s1"}
        assert all(b["state"] == BREAKER_CLOSED
                   for b in snap["breakers"].values())
        assert snap["retry_budget"]["granted"] == 0
        assert snap["hedge"]["quantile"] == 95.0
        assert snap["hedge"]["delay_s"] is None   # no samples yet
        assert snap["stale"]["entries"] == 0


# -- end to end: router reliability over a live cluster ----------------------

DATASETS = ("twitter", "ldbc")


def _reliability(**kw) -> ReliabilityConfig:
    defaults = dict(breaker_failure_threshold=2,
                    breaker_reset_timeout_s=0.2)
    defaults.update(kw)
    return ReliabilityConfig(**defaults)


def _boot(**router_extra) -> ClusterThread:
    spec = ClusterSpec.of(2, replication=2, datasets=DATASETS)
    kwargs = dict(reliability=_reliability(), attempt_timeout_s=5.0,
                  eject_after=2)
    kwargs.update(router_extra)
    return ClusterThread(spec, router_kwargs=kwargs)


class TestRouterReliabilityLive:
    def test_degraded_serving_when_every_replica_is_dark(self):
        with _boot() as cluster:
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                fresh = client.run("BFS", "ldbc", scale=0.02,
                                   machine="test", deadline_s=20.0)
                assert fresh["served"] == "executed"
                for name in list(cluster.shard_threads):
                    cluster.kill_shard(name)      # total failure
                out = client.run("BFS", "ldbc", scale=0.02,
                                 machine="test", deadline_s=20.0)
                assert out["degraded"] is True
                assert out["served"] == "stale"
                assert out["staleness_s"] >= 0.0
                # the answer is the warm run's, staleness disclosed
                assert out["outputs"] == fresh["outputs"]
            snap = cluster.router.registry.snapshot()
            degraded = snap["cluster_degraded_total"]["samples"]
            assert sum(s["value"] for s in degraded) >= 1

    def test_breaker_opens_after_repeated_transport_failures(self):
        with _boot() as cluster:
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                client.run("BFS", "ldbc", scale=0.02, machine="test")
                for name in list(cluster.shard_threads):
                    cluster.kill_shard(name)
                for _ in range(3):                # feed the breakers
                    client.run("BFS", "ldbc", scale=0.02,
                               machine="test", deadline_s=20.0)
            snap = cluster.router.reliability_snapshot()
            states = {b["state"] for b in snap["breakers"].values()}
            assert BREAKER_CLOSED not in states   # both circuits tripped
            transitions = cluster.router.registry.snapshot()[
                "cluster_breaker_transitions_total"]["samples"]
            assert sum(s["value"] for s in transitions
                       if s["labels"]["state"] == BREAKER_OPEN) >= 2

    def test_router_sheds_a_request_whose_deadline_already_lapsed(self):
        with _boot() as cluster:
            with socket.create_connection(
                    (cluster.router_thread.host, cluster.router_port),
                    timeout=10.0) as sock:
                sock.sendall(encode_request(
                    "run", "r1",
                    {"workload": "BFS", "dataset": "ldbc",
                     "scale": 0.02, "machine": "test"},
                    deadline=time.time() - 1.0))
                frame = json.loads(sock.makefile("rb").readline())
            assert frame["ok"] is False
            assert frame["error"]["kind"] == "deadline-exceeded"
            snap = cluster.router.registry.snapshot()
            shed = snap["cluster_deadline_shed_total"]["samples"]
            assert sum(s["value"] for s in shed) >= 1

    def test_stats_op_exposes_the_reliability_section(self):
        with _boot() as cluster:
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                stats = client.stats()
        rel = stats["reliability"]
        assert set(rel["breakers"]) == {"shard-0", "shard-1"}
        assert "retry_budget" in rel and "hedge" in rel
