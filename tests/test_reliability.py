"""Tests for the end-to-end request-reliability layer: the per-shard
health machine (injected clock, no sleeps; seven cases plus a hypothesis
state machine against a model), retry-budget token math,
deadline propagation on the wire and shedding at the scheduler and the
router, degraded stale serving with the hard staleness cap, and the
stats/metrics observability surface."""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import socket
import threading
import time

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    ClusterSpec,
    ClusterThread,
    HashRing,
    ReliabilityConfig,
    RetryBudget,
    Router,
    ShardAddress,
    ShardHealth,
)
from repro.cluster.replica import BACKOFF_FACTOR
from repro.core.errors import (
    CircuitOpen,
    DeadlineExceeded,
    ProtocolError,
    RetryBudgetExhausted,
    ShardUnavailable,
)
from repro.obs import counter_total
from repro.resilience import Cell
from repro.resilience.netchaos import NetFaultSpec
from repro.service import (
    CacheTiers,
    LRUCache,
    Scheduler,
    ServiceClient,
    ServiceThread,
    decode_frame,
    encode_error,
    encode_request,
    encode_response,
    parse_request,
    payload_to_error,
)
from repro.service.protocol import Body, Request
from repro.service.server import FrameServer


class _Clock:
    """Deterministic monotonic clock for breaker tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- the shard health machine (a three-state circuit breaker) ----------------

class TestCircuitBreaker:
    def test_threshold_opens_the_circuit(self):
        clock = _Clock()
        b = ShardHealth("s0", failure_threshold=3, reset_timeout_s=1.0,
                        clock=clock)
        assert b.state == BREAKER_CLOSED
        for _ in range(2):
            b.record_failure()
        assert b.state == BREAKER_CLOSED          # under threshold
        assert b.allow()
        b.record_failure()
        assert b.state == BREAKER_OPEN
        assert not b.allow()                      # refused instantly

    def test_success_resets_the_failure_streak(self):
        b = ShardHealth("s0", failure_threshold=2, reset_timeout_s=1.0,
                        clock=_Clock())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == BREAKER_CLOSED          # streak broken

    def test_half_open_admits_exactly_one_probe(self):
        clock = _Clock()
        b = ShardHealth("s0", failure_threshold=1,
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
        b = ShardHealth("s0", failure_threshold=1, reset_timeout_s=1.0,
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
        assert b.breaker_dict()["reset_timeout_s"] == 3.0   # capped

    def test_abandoned_probe_releases_the_slot_without_judging(self):
        clock = _Clock()
        b = ShardHealth("s0", failure_threshold=1,
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
        seen: list[tuple[str, str, str, str]] = []
        b = ShardHealth("s0", failure_threshold=1,
                           reset_timeout_s=1.0, clock=clock,
                           on_transition=lambda *a: seen.append(a))
        b.record_failure("refused")
        clock.advance(1.0)
        b.allow()
        b.record_success()
        assert seen == [
            ("s0", BREAKER_CLOSED, BREAKER_OPEN, "refused"),
            ("s0", BREAKER_OPEN, BREAKER_HALF_OPEN, "traffic"),
            ("s0", BREAKER_HALF_OPEN, BREAKER_CLOSED, "traffic")]
        assert b.breaker_dict()["transitions"] == {BREAKER_OPEN: 1,
                                                   BREAKER_HALF_OPEN: 1,
                                                   BREAKER_CLOSED: 1}
        # the membership view of the same machine
        assert b.as_dict() == {
            "healthy": True, "consecutive_failures": 0, "failures": 1,
            "successes": 1, "ejections": 1, "readmissions": 1,
            "probes": 0}

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ShardHealth("s0", failure_threshold=0, reset_timeout_s=1.0)
        with pytest.raises(ValueError):
            ShardHealth("s0", failure_threshold=3, reset_timeout_s=0)


class _HealthModel:
    """What :class:`ShardHealth` is specified to do, in one screen."""

    def __init__(self, threshold, base, factor, cap):
        self.threshold, self.base, self.factor, self.cap = \
            threshold, base, factor, cap
        self.state, self.streak, self.trial = BREAKER_CLOSED, 0, False
        self.opened_at, self.timeout = 0.0, base

    def admit(self, now, timeout):
        if self.state == BREAKER_OPEN:
            if now - self.opened_at < timeout:
                return False
            self.state = BREAKER_HALF_OPEN
        elif self.state == BREAKER_HALF_OPEN and self.trial:
            return False
        self.trial = self.state != BREAKER_CLOSED
        return True

    def success(self):
        self.state, self.streak, self.trial = BREAKER_CLOSED, 0, False
        self.timeout = self.base

    def failure(self, now):
        self.streak += 1
        if self.state == BREAKER_HALF_OPEN:
            self.timeout = min(self.timeout * self.factor, self.cap)
        elif self.state == BREAKER_OPEN or self.streak < self.threshold:
            return
        self.state, self.trial, self.opened_at = BREAKER_OPEN, False, now


class ShardHealthMachine(RuleBasedStateMachine):
    """The tree's first state machine: random interleavings of traffic,
    probes, abandoned attempts and time against :class:`_HealthModel`."""

    THRESHOLD, BASE, FACTOR, CAP = 3, 1.0, BACKOFF_FACTOR, 8.0

    def __init__(self):
        super().__init__()
        self.clock = _Clock()
        self.flips: list[tuple[str, str]] = []
        self.trials_out = 0              # admitted, no outcome yet
        self.health = ShardHealth(
            "s0", failure_threshold=self.THRESHOLD,
            reset_timeout_s=self.BASE, max_reset_timeout_s=self.CAP,
            clock=self.clock,
            on_transition=lambda _, old, new, __:
                self.flips.append((old, new)))
        self.model = _HealthModel(self.THRESHOLD, self.BASE, self.FACTOR,
                                  self.CAP)

    def _admitted(self, got: bool, timeout: float) -> None:
        was_open = self.model.state == BREAKER_OPEN
        too_soon = self.clock.t - self.model.opened_at < timeout
        assert got == self.model.admit(self.clock.t, timeout)
        if was_open and too_soon:
            assert not got               # open never admits early
        if got and self.model.state != BREAKER_CLOSED:
            self.trials_out += 1

    @rule()
    def allow(self):
        self._admitted(self.health.allow(), self.model.timeout)

    @precondition(lambda self: self.model.state != BREAKER_CLOSED)
    @rule()
    def probe(self):
        before = self.health.probes
        got = self.health.allow_probe()
        self._admitted(got, self.BASE)
        assert self.health.probes == before + got

    @precondition(lambda self: self.model.state == BREAKER_CLOSED)
    @rule()
    def probe_of_a_closed_shard_is_never_due(self):
        assert not self.health.allow_probe()

    @rule(reason=st.sampled_from(["traffic", "probe"]))
    def success(self, reason):
        self.health.record_success(reason)
        self.model.success()
        self.trials_out = 0

    @rule(reason=st.sampled_from(["refused", "timeout", "reset"]))
    def failure(self, reason):
        self.health.record_failure(reason)
        self.model.failure(self.clock.t)
        if self.model.state == BREAKER_OPEN:
            self.trials_out = 0

    @rule()
    def abandon(self):
        self.health.record_abandoned()
        self.model.trial = False
        self.trials_out = 0

    @rule(dt=st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0]))
    def advance(self, dt):
        self.clock.advance(dt)

    @invariant()
    def machine_matches_model(self):
        view = self.health.breaker_dict()
        assert view["state"] == self.health.state == self.model.state
        assert view["consecutive_failures"] == self.model.streak
        assert view["reset_timeout_s"] == self.model.timeout
        assert self.BASE <= self.model.timeout <= self.CAP
        if self.model.state == BREAKER_CLOSED:
            assert self.model.timeout == self.BASE    # success restores

    @invariant()
    def healthy_iff_closed(self):
        assert self.health.healthy == (self.health.state == BREAKER_CLOSED)
        assert self.health.as_dict()["healthy"] == self.health.healthy

    @invariant()
    def at_most_one_trial_in_flight(self):
        assert self.trials_out <= 1

    @invariant()
    def counters_are_the_counted_flips(self):
        view = self.health.as_dict()
        assert view["ejections"] == sum(
            1 for old, new in self.flips
            if (old, new) == (BREAKER_CLOSED, BREAKER_OPEN))
        assert view["readmissions"] == sum(
            1 for _, new in self.flips if new == BREAKER_CLOSED)
        assert all(old != new for old, new in self.flips)
        for state, n in self.health.transitions.items():
            assert n == sum(1 for _, new in self.flips if new == state)


TestShardHealthMachine = ShardHealthMachine.TestCase


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
            RetryBudget(ratio=-0.1, max_tokens=10.0)
        with pytest.raises(ValueError):
            RetryBudget(ratio=0.1, max_tokens=0.5)


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


# -- scheduler: shedding ------------------------------------------------------

class _CountingPool:
    """Pool stand-in that counts executions."""

    def __init__(self):
        self.calls = 0

    async def run_record(self, cell):
        self.calls += 1
        await asyncio.sleep(0)
        return {"kind": "row", "cell": cell.cell_id,
                "workload": cell.workload, "dataset": cell.dataset,
                "ctype": "CompStruct", "outputs": {}}


def _cell(seed=0):
    return Cell(workload="BFS", dataset="ldbc", scale=0.05, seed=seed,
                machine="test")


class TestSchedulerReliability:
    def test_expired_deadline_is_shed_before_execution(self):
        async def main():
            pool = _CountingPool()
            sched = Scheduler(pool,
                              CacheTiers.build(dataset_capacity=0,
                                               row_capacity=0))
            with pytest.raises(DeadlineExceeded) as exc:
                await sched.submit(_cell(), deadline=time.time() - 1.0)
            return pool.calls, sched.registry.snapshot(), exc.value

        calls, snap, err = asyncio.run(main())
        assert calls == 0                         # shed, never executed
        assert counter_total(snap, "scheduler_requests_total",
                             outcome="shed_expired") == 1
        assert err.kind == "deadline-exceeded"

    def test_shed_never_serves_stale(self):
        # an expired deadline is the *caller's* verdict and stays an
        # error, warm row or not
        async def main():
            pool = _CountingPool()
            sched = Scheduler(pool, CacheTiers.build())
            await sched.submit(_cell())
            with pytest.raises(DeadlineExceeded):
                await sched.submit(_cell(), deadline=time.time() - 1.0)

        asyncio.run(main())


class TestLRUCacheStaleReads:
    def test_get_stale_discloses_the_age_since_insertion(self):
        clock = _Clock(100.0)
        cache = LRUCache(capacity=4, clock=clock)
        cache.put("k", {"x": 1}, version=1)
        clock.advance(5.0)
        assert cache.get("k") == {"x": 1}         # nothing expires
        assert cache.get("k", version=2) is None  # ... but versions move
        clock.advance(2.0)
        value, age = cache.get_stale("k")         # a hit does not re-age
        assert value == {"x": 1}
        assert age == pytest.approx(7.0)
        assert cache.stats.stale_serves == 1
        cache.put("k", {"x": 2}, version=2)       # a fresh put does
        assert cache.get_stale("k") == ({"x": 2}, 0.0)

    def test_get_stale_honours_the_hard_cap(self):
        clock = _Clock(0.0)
        cache = LRUCache(capacity=4, clock=clock)
        cache.put("k", "v")
        clock.advance(10.0)
        assert cache.get_stale("k", max_age_s=5.0) is None
        assert cache.get_stale("k", max_age_s=10.0) == ("v", 10.0)
        assert cache.get_stale("k", max_age_s=60.0) is not None
        assert cache.stats.stale_serves == 2      # a refusal is not a serve


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
    kwargs = dict(reliability=_reliability(), attempt_timeout_s=5.0)
    kwargs.update(router_extra)
    return ClusterThread(spec, router_kwargs=kwargs)


class TestRouterReliabilityLive:
    def test_degraded_serving_when_every_replica_is_dark(self):
        with _boot() as cluster:
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                fresh = client.request("run", workload="BFS", dataset="ldbc",
                                       scale=0.02, seed=0, machine="test",
                                       gpu=False, deadline_s=20.0)
                assert fresh["served"] == "executed"
                for name in list(cluster.shard_threads):
                    cluster.kill_shard(name)      # total failure
                out = client.request("run", workload="BFS", dataset="ldbc",
                                     scale=0.02, seed=0, machine="test",
                                     gpu=False, deadline_s=20.0)
                assert out["degraded"] is True
                assert out["served"] == "stale"
                assert out["staleness_s"] >= 0.0
                # the answer is the warm run's, staleness disclosed
                assert out["outputs"] == fresh["outputs"]
            snap = cluster.router.registry.snapshot()
            degraded = snap["cluster_degraded_total"]["samples"]
            assert sum(s["value"] for s in degraded) >= 1

    def test_repro_stats_counts_the_routers_degraded_answer(self, capsys):
        # the router's last-good cache only puts and reads stale, so a
        # degraded serve is a ``stale_serves``, never a ``hits``
        from repro.cli import main
        with _boot() as cluster:
            with ServiceClient(port=cluster.router_port,
                               timeout_s=30.0) as client:
                client.request("run", workload="BFS", dataset="ldbc",
                               scale=0.02, seed=0, machine="test", gpu=False)
                for name in list(cluster.shard_threads):
                    cluster.kill_shard(name)
                out = client.request("run", workload="BFS", dataset="ldbc",
                                     scale=0.02, seed=0, machine="test",
                                     gpu=False, deadline_s=20.0)
                assert out["degraded"] is True
            assert main(["stats", "--port", str(cluster.router_port)]) == 0
        assert "stale-cache  entries=1 stale_serves=1 cap_s=60.0" \
            in capsys.readouterr().out

    def test_breaker_opens_after_repeated_transport_failures(self):
        with _boot() as cluster:
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                client.request("run", workload="BFS", dataset="ldbc",
                               scale=0.02, seed=0, machine="test", gpu=False)
                for name in list(cluster.shard_threads):
                    cluster.kill_shard(name)
                for _ in range(3):                # feed the breakers
                    client.request("run", workload="BFS", dataset="ldbc",
                                   scale=0.02, seed=0, machine="test",
                                   gpu=False, deadline_s=20.0)
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


# -- the write path and the hedge window, over recording shards --------------

class _Recorder(FrameServer):
    """A shard that answers every op with the same bytes and keeps the
    ops it was sent."""

    def __init__(self, body: bytes):
        super().__init__("recorder", None)
        self.body = Body(body)
        self.ops: list[str] = []

    async def _dispatch(self, req: Request):
        self.ops.append(req.op)
        return self.body


WRITE = {"dataset": "ldbc", "ops": [{"op": "add_vertex", "vid": 9001}]}
_ANSWER = b'{"shard": "s0",  "version":7}'    # spacing json.dumps never writes


@contextlib.contextmanager
def _recorded_router(replication: int, *, dead_primary: bool = False,
                     **router_kw):
    """A router over shards ``s0`` and ``s1`` hosted on its own thread;
    yields ``(router thread, ldbc's primary, live recorders by name)``.
    A dead primary's address refuses every dial."""
    primary = HashRing(["s0", "s1"]).owner("ldbc")
    recorders = {name: _Recorder(_ANSWER) for name in ("s0", "s1")
                 if not (dead_primary and name == primary)}
    with contextlib.ExitStack() as stack:
        hosts = {name: stack.enter_context(ServiceThread(r))
                 for name, r in recorders.items()}
        addrs = [ShardAddress(name, "127.0.0.1",
                              hosts[name].port if name in hosts else 1)
                 for name in ("s0", "s1")]
        router = Router(addrs, replication=replication,
                        probe_interval_s=60.0, **router_kw)
        yield stack.enter_context(ServiceThread(router)), primary, recorders


def _route(front, op: str, params: dict, deadline: float | None = None):
    """Dispatch one request on the router's own loop: the raised error
    is the router's object, not its wire form."""
    req = Request(op=op, id="w-1", params=params, deadline=deadline)
    return asyncio.run_coroutine_threadsafe(
        front.service._dispatch(req), front._loop).result(timeout=30)


class TestWritePath:
    def test_a_lone_primary_answer_is_relayed_byte_for_byte(self):
        with _recorded_router(1) as (front, primary, shards):
            with socket.create_connection((front.host, front.port),
                                          timeout=10.0) as sock:
                sock.sendall(encode_request("mutate", "w-1", WRITE))
                line = sock.makefile("rb").readline()
        assert line == encode_response("w-1", Body(_ANSWER))
        assert {n: s.ops for n, s in shards.items()} == {
            n: ["mutate"] if n == primary else [] for n in shards}

    def test_an_open_primary_circuit_names_only_the_primary(self):
        with _recorded_router(2) as (front, primary, shards):
            router = front.service
            for _ in range(router.reliability.breaker_failure_threshold):
                router.tracker[primary].record_failure()
            with pytest.raises(CircuitOpen) as exc:
                _route(front, "mutate", WRITE)
            assert _count(router, "cluster_route_total", shard=primary,
                          outcome="skipped") == 1
        assert exc.value.shards == (primary,)
        assert all(s.ops == [] for s in shards.values())

    def test_a_dead_primary_is_unavailable_and_the_replica_never_dialed(
            self):
        with _recorded_router(2, dead_primary=True) as (front, primary,
                                                         shards):
            with pytest.raises(ShardUnavailable) as exc:
                _route(front, "mutate", WRITE)
        assert exc.value.tried == (primary,)
        assert primary not in shards
        assert all(s.ops == [] for s in shards.values())

    def test_a_spent_deadline_is_shed_at_the_router(self):
        with _recorded_router(1) as (front, primary, shards):
            with pytest.raises(DeadlineExceeded) as exc:
                _route(front, "mutate", WRITE, deadline=time.time() - 1.0)
            assert _count(front.service, "cluster_deadline_shed_total",
                          stage="router") == 1
        assert exc.value.stage == "router"
        assert all(s.ops == [] for s in shards.values())


def test_only_hedgeable_attempts_feed_the_hedge_window():
    """The window sets the delay only a hedgeable read waits: a slow
    DSL query, a versioned read or a write must not stretch it."""
    rel = ReliabilityConfig(hedge_quantile=95.0)
    with _recorded_router(2, reliability=rel) as (front, _, _):
        router = front.service
        _route(front, "dyn_query", {"workload": "BFS", "dataset": "ldbc"})
        _route(front, "workloads", {})
        _route(front, "query", {"q": "from ldbc | cc | count"})
        _route(front, "explain", {"q": "from ldbc | cc | count"})
        _route(front, "mutate", WRITE)
        assert router.reliability_snapshot()["hedge"]["samples"] == 0
        _route(front, "run", {"workload": "BFS", "dataset": "ldbc"})
        assert router.reliability_snapshot()["hedge"]["samples"] == 1


# -- hedged reads over a live two-replica cluster ----------------------------

HEDGE_KEY = "ldbc"


def _hedge_boot() -> ClusterThread:
    """Two replicas behind chaos proxies, hedging on, the background
    prober parked (a 60 s tick) so only client traffic moves health."""
    spec = ClusterSpec.of(2, replication=2, datasets=DATASETS)
    kwargs = dict(reliability=_reliability(hedge_quantile=50.0),
                  attempt_timeout_s=5.0, probe_interval_s=60.0)
    return ClusterThread(spec, router_kwargs=kwargs, netchaos=True)


def _hedged_run(client) -> dict:
    return client.request("run", workload="BFS", dataset=HEDGE_KEY, scale=0.02,
                          seed=0, machine="test", gpu=False)


def _arm_hedging(cluster, client) -> None:
    """Warm every replica's cache directly, pool one router connection
    to the primary, and seed the latency window so ``hedge_delay()`` is
    its 10 ms floor."""
    for addr in cluster.shard_addresses.values():
        with ServiceClient(addr.host, addr.port, timeout_s=30.0) as direct:
            _hedged_run(direct)
    assert "degraded" not in _hedged_run(client)
    cluster.router._lat_samples.extend([0.001] * 32)
    assert cluster.router.hedge_delay() == pytest.approx(0.01)


def _count(router, family: str, **labels) -> float:
    samples = router.registry.snapshot().get(family, {}).get("samples", [])
    return sum(s["value"] for s in samples
               if all(s["labels"].get(k) == v for k, v in labels.items()))


class _TaskLog:
    """Every task the router's loop creates from here on, and every
    shard exchange it makes, in whichever task that runs."""

    def __init__(self, cluster):
        self.tasks: list[asyncio.Task] = []
        self.calls: list[asyncio.Future] = []
        router = cluster.router
        loop = cluster.router_thread._loop
        real = router._exchange
        installed = threading.Event()

        def factory(loop, coro, **kw):
            task = asyncio.Task(coro, loop=loop, **kw)
            self.tasks.append(task)
            return task

        async def exchange(*args, **kwargs):
            # settled: cancelled when the exchange was abandoned
            settled = asyncio.get_running_loop().create_future()
            self.calls.append(settled)
            try:
                return await real(*args, **kwargs)
            except asyncio.CancelledError:
                settled.cancel()
                raise
            finally:
                if not settled.done():
                    settled.set_result(None)

        def install():
            loop.set_task_factory(factory)
            router._exchange = exchange
            installed.set()

        loop.call_soon_threadsafe(install)
        assert installed.wait(5.0)

    def exchanges(self) -> list[asyncio.Future]:
        """The shard exchanges, once they have all settled."""
        deadline = time.monotonic() + 5.0
        while not all(c.done() for c in self.calls) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        return list(self.calls)


class TestHedgedReadsLive:
    def test_slow_primary_is_hedged_and_the_backup_wins(self):
        with _hedge_boot() as cluster:
            router = cluster.router
            primary, backup = router.ring.owners(HEDGE_KEY, 2)
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                _arm_hedging(cluster, client)
                assert len(router._links[primary]._idle) == 1
                before = router.tracker.snapshot()[primary]
                granted = router.retry_budget.snapshot()["granted"]
                log = _TaskLog(cluster)
                cluster.proxies[primary].set_faults(
                    NetFaultSpec(latency_ms=400.0))
                out = _hedged_run(client)
            assert out["shard"] == backup
            assert "degraded" not in out
            assert _count(router, "cluster_hedges_total",
                          outcome="launched") == 1
            assert _count(router, "cluster_hedges_total",
                          outcome="won") == 1
            assert _count(router, "cluster_hedges_total",
                          outcome="lost") == 0
            # the hedge exchange is counted once, under the backup
            assert _count(router, "cluster_route_total",
                          outcome="hedge") == 1
            assert _count(router, "cluster_route_total",
                          outcome="hedge", shard=backup) == 1
            # exactly one retry-budget token paid for it
            assert router.retry_budget.snapshot()["granted"] == granted + 1
            # the loser was cancelled, not awaited: no verdict on the
            # primary either way, and its connection (the pooled one it
            # checked out) was closed, never returned to the pool
            exchanges = log.exchanges()
            assert sorted(t.cancelled() for t in exchanges) == [False, True]
            after = router.tracker.snapshot()[primary]
            assert after["successes"] == before["successes"]
            assert after["failures"] == before["failures"]
            assert after["healthy"] is True
            assert router._links[primary]._idle == []

    def test_drained_budget_rides_out_the_first_attempt(self):
        with _hedge_boot() as cluster:
            router = cluster.router
            primary, _ = router.ring.owners(HEDGE_KEY, 2)
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                _arm_hedging(cluster, client)
                while router.retry_budget.try_spend():
                    pass                          # no token left to hedge
                denied = router.retry_budget.snapshot()["denied"]
                log = _TaskLog(cluster)
                cluster.proxies[primary].set_faults(
                    NetFaultSpec(latency_ms=60.0))
                out = _hedged_run(client)
            assert out["shard"] == primary        # rode out the slow one
            assert _count(router, "cluster_hedges_total") == 0
            assert _count(router, "cluster_route_total",
                          outcome="hedge") == 0
            assert router.retry_budget.snapshot()["denied"] == denied + 1
            assert [t.cancelled() for t in log.exchanges()] == [False]

    def test_primary_that_answers_first_counts_the_hedge_lost(self):
        with _hedge_boot() as cluster:
            router = cluster.router
            primary, backup = router.ring.owners(HEDGE_KEY, 2)
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                _arm_hedging(cluster, client)
                log = _TaskLog(cluster)
                # past the 10 ms hedge delay, well ahead of the backup
                cluster.proxies[primary].set_faults(
                    NetFaultSpec(latency_ms=40.0))
                cluster.proxies[backup].set_faults(
                    NetFaultSpec(latency_ms=600.0))
                out = _hedged_run(client)
            assert out["shard"] == primary
            assert _count(router, "cluster_hedges_total",
                          outcome="launched") == 1
            assert _count(router, "cluster_hedges_total",
                          outcome="lost") == 1
            assert _count(router, "cluster_hedges_total",
                          outcome="won") == 0
            assert _count(router, "cluster_route_total",
                          outcome="hedge") == 0   # the hedge never answered
            assert sorted(t.cancelled()
                          for t in log.exchanges()) == [False, True]
            assert router._links[backup]._idle == []

    def test_cancelled_loser_releases_its_half_open_trial(self):
        """Both circuits tripped and past their reset timeout: the slow
        primary takes its half-open trial, the hedge takes the backup's
        and wins.  The cancelled loser must hand its trial slot back —
        the next failover onto the primary is admitted, not skipped."""
        with _hedge_boot() as cluster:
            router = cluster.router
            primary, backup = router.ring.owners(HEDGE_KEY, 2)
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                _arm_hedging(cluster, client)
                for name in (primary, backup):
                    cluster.kill_shard(name)
                for _ in range(2):                # threshold 2: both trip
                    assert _hedged_run(client)["degraded"] is True
                states = router.reliability_snapshot()["breakers"]
                assert {b["state"] for b in states.values()} \
                    == {BREAKER_OPEN}
                for name in (primary, backup):
                    cluster.restart_shard(name)
                time.sleep(0.25)                  # reset timeout is 0.2 s
                cluster.proxies[primary].set_faults(
                    NetFaultSpec(latency_ms=400.0))
                out = _hedged_run(client)
                assert out["shard"] == backup
                assert _count(router, "cluster_hedges_total",
                              outcome="won") == 1
                states = router.reliability_snapshot()["breakers"]
                assert states[backup]["state"] == BREAKER_CLOSED
                assert states[primary]["state"] == BREAKER_HALF_OPEN
                # the backup dies; the walk fails over onto the primary,
                # whose trial slot the cancelled loser released
                cluster.proxies[primary].set_faults(NetFaultSpec())
                cluster.kill_shard(backup)
                out = _hedged_run(client)
            assert out["shard"] == primary
            assert "degraded" not in out
            assert _count(router, "cluster_route_total",
                          outcome="skipped", shard=primary) == 0
            states = router.reliability_snapshot()["breakers"]
            assert states[primary]["state"] == BREAKER_CLOSED


# -- no task unhedged, one charge per timeout, one prober that waits on nobody

def _wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestOneWaitPerAttempt:
    def test_unhedged_keyed_read_creates_no_task(self):
        with _boot() as cluster:
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                _hedged_run(client)               # connection handler up
                log = _TaskLog(cluster)
                for _ in range(3):
                    _hedged_run(client)
                    assert log.tasks == []        # dialed in the caller
            assert len(log.exchanges()) == 3

    def test_hedged_attempt_creates_one_task_the_backup(self):
        with _hedge_boot() as cluster:
            primary, backup = cluster.router.ring.owners(HEDGE_KEY, 2)
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                _arm_hedging(cluster, client)
                log = _TaskLog(cluster)
                cluster.proxies[primary].set_faults(
                    NetFaultSpec(latency_ms=400.0))
                assert _hedged_run(client)["shard"] == backup
            assert len(log.exchanges()) == 2
            (task,) = log.tasks
            assert task.done() and not task.cancelled()   # the winner

    def test_timed_out_attempt_is_charged_exactly_once(self):
        spec = ClusterSpec.of(2, replication=2, datasets=DATASETS)
        kwargs = dict(reliability=_reliability(), attempt_timeout_s=0.3,
                      probe_interval_s=60.0)
        with ClusterThread(spec, router_kwargs=kwargs,
                           netchaos=True) as cluster:
            router = cluster.router
            primary, backup = router.ring.owners(HEDGE_KEY, 2)
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                for addr in cluster.shard_addresses.values():
                    with ServiceClient(addr.host, addr.port,
                                       timeout_s=30.0) as direct:
                        _hedged_run(direct)       # both caches warm
                before = router.tracker.snapshot()[primary]
                cluster.proxies[primary].set_faults(
                    NetFaultSpec(blackhole=True))
                # a handler of our own: whether ``repro`` records reach
                # the root logger depends on which tests ran before
                records: list[logging.LogRecord] = []
                tap = logging.Handler(logging.WARNING)
                tap.emit = records.append
                router_log = logging.getLogger("repro.cluster.router")
                router_log.addHandler(tap)
                log = _TaskLog(cluster)
                try:
                    out = _hedged_run(client)
                finally:
                    router_log.removeHandler(tap)
            assert out["shard"] == backup
            assert log.tasks == []                # timer failed a future
            assert _count(router, "cluster_route_total", shard=primary,
                          outcome="unreachable") == 1
            assert _count(router, "cluster_route_total", shard=backup,
                          outcome="failover") == 1
            after = router.tracker.snapshot()[primary]
            assert after["failures"] == before["failures"] + 1
            assert after["consecutive_failures"] == 1
            assert after["successes"] == before["successes"]
            assert after["healthy"] is True       # one strike of two
            assert [r.reason for r in records
                    if getattr(r, "shard", None) == primary] == ["timeout"]
            assert router._links[primary]._idle == []   # never pooled


class TestProberLive:
    def test_dead_shard_does_not_delay_a_neighbours_readmission(self):
        """Two shards down, the dead one probed first, the other
        restarted just as a probe round begins: it is readmitted on its
        own next due probe (the 0.2 s base timeout, one 0.1 s tick, a
        ping) — not after the dead neighbour's back-off."""
        spec = ClusterSpec.of(3, datasets=DATASETS)
        kwargs = dict(reliability=_reliability(), attempt_timeout_s=5.0,
                      fanout_timeout_s=5.0, probe_interval_s=0.1)
        with ClusterThread(spec, router_kwargs=kwargs) as cluster:
            tracker = cluster.router.tracker
            dead, live = "shard-0", "shard-1"
            with ServiceClient(cluster.router_thread.host,
                               cluster.router_port,
                               timeout_s=30.0) as client:
                for name in (dead, live):
                    cluster.kill_shard(name)
                for _ in range(2):                # two failed fans eject
                    assert client.stats()["partial"] is True
            assert tracker.down_shards() == (dead, live)

            def probes() -> int:
                return tracker.snapshot()[dead]["probes"]

            _wait_until(lambda: probes() >= 4)    # its back-off has grown
            seen = probes()
            _wait_until(lambda: probes() > seen)  # a round just began
            t0 = time.monotonic()
            cluster.restart_shard(live)
            _wait_until(lambda: live in tracker.healthy_shards())
            elapsed = time.monotonic() - t0
            assert elapsed < 0.7
            assert tracker.down_shards() == (dead,)
