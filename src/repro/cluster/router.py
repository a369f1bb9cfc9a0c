"""The cluster front door: one socket, N shards behind it.

The router speaks the exact JSON-lines protocol the single-node service
does — a :class:`~repro.service.client.ServiceClient` pointed at a
router cannot tell it is talking to a cluster — and translates each op
into shard traffic by the ``route`` of its row in
:data:`~repro.service.protocol.OPS`:

* **keyed-read** hashes the dataset key onto the ring, walks the replica
  chain healthy-first, and fails over to the next replica on any
  *transport* failure (refused/reset/EOF/timeout/garbage).  Typed errors
  a shard answers with are forwarded, never retried — a bad request is
  bad on every replica.  **any-shard** is the same walk over every
  shard; **write** dials the key's primary only; **query** is a keyed
  read of the DSL source's dataset — over its owner chain for a dynamic
  source, over every shard in ring order for a static one (only mutable
  state is owned; any shard generates a static graph).  Wherever one
  shard's answer is forwarded untouched it is *relayed*: the body is
  peeled off the shard's ok frame and spliced into the client's as the
  bytes that arrived (:func:`~repro.service.protocol.peel_response`),
  never parsed here; where the router composes an answer it decodes.
* **scatter** fans out to every healthy shard concurrently under a
  per-shard timeout and aggregates what arrives; a missing shard makes
  the result *partial*, not an error.
* **local** answers from the router's own state — health is the
  tracker's live shard map.

The failover walk is the request-reliability layer
(:class:`ReliabilityConfig` tunes it; there is no walk without it):

* **deadline propagation** — a request's absolute wire deadline derives
  every per-attempt timeout (the remaining budget split across the
  replicas still untried), is copied onto downstream shard frames, and
  sheds the request with a typed
  :class:`~repro.core.errors.DeadlineExceeded` the moment the budget is
  spent;
* **one health machine per shard**
  (:class:`~repro.cluster.replica.ShardHealth`, a three-state circuit
  breaker with half-open probing) refuses to dial a shard whose recent
  transport history says the dial would only burn the deadline — keyed
  reads, writes, hedges and scatters all ask the same machine;
* **budgeted retries** — a token-bucket
  :class:`~repro.cluster.replica.RetryBudget` caps cluster-wide retry
  amplification (failover and hedges both spend from it), so a brownout
  cannot snowball into a retry storm;
* **hedged requests** — for idempotent single-dataset reads, once the
  first attempt has been in flight past the observed latency quantile
  (``hedge_quantile``), a second attempt fires at the next replica and
  the first answer wins;
* **degraded serving** — when every replica is unreachable, breaker-
  blocked, budget-blocked, or the deadline is spent, the router's
  last-good response cache serves the most recent answer for the same
  request, marked ``degraded: true`` with its staleness age, under a
  hard staleness cap.

A shard is ejected (its circuit opens) after
``breaker_failure_threshold`` consecutive transport failures and
readmitted by the first exchange that answers — live traffic's half-open
trial, or the background prober, which takes the same trial on its own
per-shard cadence.

Observability: ``cluster_route_total{shard,outcome}`` counts every
shard exchange (ok / failover / hedge / error / unreachable / skipped),
``cluster_breaker_transitions_total{shard,state}`` and
``cluster_membership_transitions_total{shard,event,reason}`` count
health-machine flips,
``cluster_hedges_total{outcome}`` counts hedge launches and wins,
``cluster_deadline_shed_total{stage}`` counts router-side sheds,
``cluster_degraded_total{reason}`` counts stale serves by trigger kind,
``cluster_fanout_latency_ms{op}`` times scatter-gather fans,
``router_request_latency_ms{op}`` times the front door, and each request
runs under a ``route:<op>`` span when a tracer is attached.

The listening socket and the frame loop are the
:class:`~repro.service.server.FrameServer` a single service listens on;
the router supplies only :meth:`Router._dispatch`, so the same
:class:`~repro.service.server.ServiceThread` hosts either.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from .. import __version__
from ..core.errors import (
    BadRequest,
    CircuitOpen,
    DeadlineExceeded,
    ProtocolError,
    RetryBudgetExhausted,
    ShardUnavailable,
)
from ..obs.logs import get_logger
from ..obs.metrics import MetricsRegistry, percentile
from ..obs.tracing import SpanTracer, maybe_span
from ..query import parse as parse_query, source_info, unparse
from ..query.engine import plan_digest
from ..query.plan import plan_pipeline
from ..resilience.retry import RetryPolicy
from ..service.cache import LRUCache
from ..service.protocol import (
    CELL_OPS,
    OPS,
    PROTOCOL_VERSION,
    Body,
    Request,
    decode_body,
    decode_frame,
    encode_request,
    error_to_payload,
    payload_to_error,
    peel_response,
    routing_key,
)
from ..service.server import FrameProtocol, FrameServer
from .replica import BREAKER_OPEN, ReplicaTracker, RetryBudget
from .ring import DEFAULT_VNODES, HashRing

log = get_logger("cluster.router")

#: Default TCP port for the cluster router (the single-node service
#: listens on 7421; keeping them distinct lets both run side by side).
ROUTER_PORT = 7430

#: Hard cap on one ``batch`` op's entry list.
MAX_BATCH_ENTRIES = 128

#: Floor on any deadline-derived attempt timeout: below this a dial
#: cannot realistically complete, so the budget math never starves an
#: attempt into instant failure.
MIN_ATTEMPT_TIMEOUT_S = 0.05

#: Slice of the remaining budget the router keeps for itself when
#: splitting it across attempts.  Without it, a walk that exhausts every
#: replica spends the *entire* deadline dialing and the degraded (stale)
#: answer loses the race with the client's own timer — the headroom is
#: what makes "serve stale at deadline" observable rather than
#: theoretical.
DEADLINE_HEADROOM_S = 0.05

#: Hedging floor: never hedge sooner than this, and not before this many
#: successful attempts have fed the latency quantile.
HEDGE_MIN_DELAY_S = 0.01
HEDGE_MIN_SAMPLES = 20

#: Entries in the router's last-good response cache (degraded serving).
STALE_CAPACITY = 512

#: Idle connections kept per shard.
POOL_PER_SHARD = 8

#: Backoff between replica attempts: tiny, deterministic — a failover
#: should be fast, but two routers hammering the same wounded shard
#: should not do it in lockstep.
FAILOVER_BACKOFF = RetryPolicy(max_retries=0, base_delay=0.01, factor=2.0,
                               max_delay=0.25)

#: Transport-level failures that trigger replica failover.  Typed error
#: *frames* a shard answers with are not in this set — they forwarded,
#: not retried.
_TRANSPORT_ERRORS = (OSError, asyncio.TimeoutError, ProtocolError)


def _failure_reason(exc: BaseException) -> str:
    """Stable label for a transport failure (metrics/log cardinality:
    a handful of values, never the exception text)."""
    if isinstance(exc, asyncio.TimeoutError):
        return "timeout"
    if isinstance(exc, ConnectionRefusedError):
        return "refused"
    if isinstance(exc, ConnectionResetError):
        return "reset"
    if isinstance(exc, ProtocolError):
        return "protocol"
    return "transport"


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs for the router's request-reliability layer."""

    # per-shard health machine: consecutive transport failures that
    # eject a shard (open its circuit), and the base wait before a trial
    breaker_failure_threshold: int = 3
    breaker_reset_timeout_s: float = 1.0
    # retry budget (failover + hedges)
    retry_budget_ratio: float = 0.1
    retry_budget_max_tokens: float = 10.0
    # hedging: fire a second replica attempt once the first has been in
    # flight past this observed-latency quantile (None disables)
    hedge_quantile: float | None = None
    # degraded serving: hard staleness cap on a last-good response
    stale_cap_s: float = 60.0

    def __post_init__(self):
        if self.hedge_quantile is not None \
                and not 0 < self.hedge_quantile <= 100:
            raise ValueError("hedge_quantile must be in (0, 100]")
        if self.stale_cap_s <= 0:
            raise ValueError("stale_cap_s must be positive")


@dataclass(frozen=True)
class ShardAddress:
    """Where one shard listens."""

    name: str
    host: str
    port: int


class _ShardLink:
    """A small pool of persistent connections to one shard.

    Checkout pops an idle connection or dials a fresh one; check-in
    returns it unless the pool is full.  Any failure closes the
    connection — a poisoned one never goes back in the pool.
    """

    def __init__(self, addr: ShardAddress):
        self.addr = addr
        self._idle: list[FrameProtocol] = []
        self._seq = 0

    async def _checkout(self) -> FrameProtocol:
        while self._idle:
            conn = self._idle.pop()
            if not conn.transport.is_closing():
                return conn
            conn.transport.close()
        _, conn = await asyncio.get_running_loop().create_connection(
            FrameProtocol, self.addr.host, self.addr.port)
        return conn

    def _checkin(self, conn: FrameProtocol) -> None:
        if len(self._idle) < POOL_PER_SHARD \
                and not conn.transport.is_closing():
            self._idle.append(conn)
        else:
            conn.transport.close()

    async def call(self, op: str, params: dict[str, Any],
                   timeout_s: float, deadline: float | None = None,
                   tenant: str | None = None, relay: bool = False,
                   stop: asyncio.Future | None = None) -> dict:
        """One request/response exchange under one timer; returns the
        decoded frame.  For a caller that will ``relay`` the answer
        untouched, an ok frame is not parsed: its ``result`` is the
        :class:`Body` peeled off the line (any other line, and an ok
        frame that is not byte for byte this encoder's, is decoded all
        the same).

        The wire deadline and tenant (if any) propagate onto the
        downstream frame so the shard's scheduler can shed expired work
        and charge the right quota.  Raises ``OSError``/
        ``ProtocolError``/``asyncio.TimeoutError`` on transport trouble
        — the router's failover boundary.  Once ``stop`` (if given) is
        done, an answer still awaited is abandoned: the wait ends in
        ``CancelledError``.

        The exchange is one pending future, the connection's
        :meth:`~FrameProtocol.frame`, and the timer fails it with the
        timeout.  While a fresh connection is still being dialled there
        is no future yet, so a timer firing then cancels the dial and
        the cancellation becomes the timeout.
        """
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        answer: asyncio.Future | None = None
        dial_expired = False

        def expire() -> None:
            nonlocal dial_expired
            if answer is None:
                dial_expired = True
                task.cancel()
            elif not answer.done():
                answer.set_exception(asyncio.TimeoutError())

        timer = loop.call_later(timeout_s, expire)
        conn = None
        try:
            conn = await self._checkout()
            self._seq += 1
            req_id = f"{self.addr.name}-{self._seq}"
            conn.transport.write(encode_request(
                op, req_id, params, deadline=deadline, tenant=tenant))
            answer = conn.frame()
            if stop is not None:
                stop.add_done_callback(lambda _: answer.cancel())
            line = await answer
            if not line:
                raise ProtocolError(
                    f"shard {self.addr.name} closed the connection")
            body = peel_response(line, req_id) if relay else None
            frame = decode_frame(line) if body is None \
                else {"ok": True, "result": body}
        except BaseException as e:
            if conn is not None:
                conn.transport.close()
            if dial_expired and isinstance(e, asyncio.CancelledError):
                raise asyncio.TimeoutError from None
            raise
        finally:
            timer.cancel()
        self._checkin(conn)
        return frame

    def close(self) -> None:
        for conn in self._idle:
            conn.transport.close()
        self._idle.clear()


class _Answer(NamedTuple):
    """One classified shard exchange.  ``outcome`` is the
    ``cluster_route_total`` label it was counted under: ``ok`` /
    ``failover`` / ``hedge`` for an ok answer (``result`` set),
    ``error`` for a typed shard error and ``unreachable`` for a
    transport failure (``error`` holds the shard-stamped payload)."""

    shard: str
    outcome: str
    result: Any = None
    error: dict | None = None


class Router(FrameServer):
    """Hash-ring router over a static shard topology, behind the same
    :class:`~repro.service.server.FrameServer` front door a single
    service listens on."""

    def __init__(self, shards: Sequence[ShardAddress], *,
                 replication: int = 1, vnodes: int = DEFAULT_VNODES,
                 attempt_timeout_s: float = 60.0,
                 fanout_timeout_s: float = 30.0,
                 probe_interval_s: float = 0.5,
                 reliability: ReliabilityConfig | None = None,
                 registry: MetricsRegistry | None = None,
                 tracer: SpanTracer | None = None):
        if not shards:
            raise ValueError("router needs at least one shard")
        names = [s.name for s in shards]
        if len(set(names)) != len(names):
            raise ValueError("shard names must be unique")
        self.shards = {s.name: s for s in shards}
        self.ring = HashRing(names, vnodes=vnodes)
        self.replication = min(max(replication, 1), len(names))
        self.attempt_timeout_s = attempt_timeout_s
        self.fanout_timeout_s = fanout_timeout_s
        self.probe_interval_s = probe_interval_s
        self.reliability = reliability if reliability is not None \
            else ReliabilityConfig()
        rel = self.reliability
        self.tracker = ReplicaTracker(
            names, failure_threshold=rel.breaker_failure_threshold,
            reset_timeout_s=rel.breaker_reset_timeout_s)
        self.tracer = tracer
        self._links = {name: _ShardLink(self.shards[name])
                       for name in names}
        self._probe_task: asyncio.Task | None = None
        self._probes: set[asyncio.Task] = set()     # pings in flight

        super().__init__("router", registry)
        reg = self.registry
        self._m_route = reg.counter(
            "cluster_route_total",
            "shard exchanges by outcome (ok/failover/hedge/error/"
            "unreachable/skipped)",
            labels=("shard", "outcome"))
        self._m_fan = reg.histogram(
            "cluster_fanout_latency_ms",
            "scatter-gather fan-out wall time (ms), by op",
            labels=("op",))
        reg.gauge("cluster_shards_healthy",
                  "shards the tracker currently considers up",
                  callback=lambda: float(len(self.tracker.healthy_shards())))
        reg.gauge("cluster_shards_total", "shards in the topology",
                  callback=lambda: float(len(self.shards)))
        self.tracker.bind_metrics(reg)

        # -- reliability layer ------------------------------------------------
        self._m_hedge = reg.counter(
            "cluster_hedges_total",
            "hedged second attempts (launched/won/lost)",
            labels=("outcome",))
        self._m_shed = reg.counter(
            "cluster_deadline_shed_total",
            "requests shed for a spent deadline, by stage",
            labels=("stage",))
        self._m_degraded = reg.counter(
            "cluster_degraded_total",
            "degraded (stale) responses served, by triggering kind",
            labels=("reason",))
        self.retry_budget = RetryBudget(
            ratio=rel.retry_budget_ratio,
            max_tokens=rel.retry_budget_max_tokens)
        reg.gauge(
            "cluster_breakers_open",
            "shards currently behind an open circuit breaker",
            callback=lambda: float(sum(
                1 for name in self.tracker.down_shards()
                if self.tracker[name].state == BREAKER_OPEN)))
        reg.gauge(
            "cluster_retry_budget_tokens",
            "retry-budget tokens currently available",
            callback=lambda: float(self.retry_budget.tokens))
        self._stale = LRUCache(STALE_CAPACITY)
        # router-side plan cache for static-source DSL queries, planned
        # here so a bad pipeline fails typed before any shard traffic
        # (version 0 — a generated graph never changes under a fixed
        # seed); a dynamic source is planned by its owner's engine,
        # against the store head
        self._plan_cache = LRUCache(128)
        # rolling successful-attempt latencies (seconds) feeding the
        # hedge-delay quantile
        self._lat_samples: list[float] = []
        self._lat_cursor = 0
        # op name -> handler: a keyed mode serves every op routed that
        # way, a local or scatter op has its own answer, and an op the
        # table does not route is refused, typed
        by_route = {"keyed-read": self._keyed_read,
                    "write": self._route_write,
                    "any-shard": self._any_shard}
        own = {"ping": self._ping, "health": self._health,
               "datasets": self._gather_datasets,
               "shard_info": self._gather_shard_info,
               "stats": self._gather_stats, "batch": self._gather_batch,
               "query": self._route_dsl, "explain": self._route_dsl}
        self._handlers = {op.name: by_route.get(op.route) or own[op.name]
                          for op in OPS.values() if op.route is not None}

    # -- hedge-delay window --------------------------------------------------

    def _note_latency(self, elapsed_s: float) -> None:
        """Feed the hedge-delay reservoir (bounded ring, newest wins)."""
        if len(self._lat_samples) < 512:
            self._lat_samples.append(elapsed_s)
        else:
            self._lat_samples[self._lat_cursor] = elapsed_s
            self._lat_cursor = (self._lat_cursor + 1) % 512

    def hedge_delay(self) -> float | None:
        """Seconds to wait before hedging, from the observed latency
        quantile; None until enough samples exist (or hedging is off)."""
        rel = self.reliability
        if rel.hedge_quantile is None:
            return None
        if len(self._lat_samples) < HEDGE_MIN_SAMPLES:
            return None
        delay = percentile(sorted(self._lat_samples), rel.hedge_quantile)
        return max(HEDGE_MIN_DELAY_S, delay)

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        port = await super().start(host, port)
        self._probe_task = asyncio.get_running_loop().create_task(
            self._probe_loop())
        return port

    async def stop(self) -> None:
        await super().stop()
        doomed = [t for t in (self._probe_task, *self._probes)
                  if t is not None]
        for task in doomed:
            task.cancel()
        await asyncio.gather(*doomed, return_exceptions=True)
        for link in self._links.values():
            link.close()

    # -- background health probing -------------------------------------------

    async def _probe_loop(self) -> None:
        """Readmission path: every tick, ping each non-closed shard
        whose next probe is due (its health machine keeps the time).

        Closed shards are validated by live traffic; only ejected ones
        cost probes.  Each ping is an ordinary :meth:`_exchange` holding
        the shard's half-open trial, sent as its own task — a dead or
        silent shard delays nobody else's readmission.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.probe_interval_s)
            for name in self.tracker.down_shards():
                if self.tracker[name].allow_probe():
                    ping = loop.create_task(self._exchange(
                        name, "health", {}, self.fanout_timeout_s,
                        "_probe", credit="probe"))
                    self._probes.add(ping)
                    ping.add_done_callback(self._probes.discard)

    # -- the one shard exchange ------------------------------------------------

    async def _exchange(self, shard: str, op: str,
                        params: dict[str, Any], timeout_s: float,
                        key: str, *, outcome: str = "ok",
                        credit: str = "traffic",
                        deadline: float | None = None,
                        tenant: str | None = None,
                        relay: bool = False,
                        stop: asyncio.Future | None = None) -> _Answer:
        """Call ``shard`` under ``timeout_s`` and classify what came
        back — the only place that does.  With ``relay`` an ok answer's
        ``result`` is the shard's own bytes (a :class:`Body`), for a
        caller that forwards it untouched; once ``stop`` is done, the
        exchange is abandoned (``CancelledError``, no verdict).

        A transport failure (a timeout included) is charged to the
        shard's health and counted ``unreachable``; any answer credits
        it (a readmission is labeled ``credit``), and is counted
        ``outcome`` when ok or ``error`` when it is a typed shard error.
        Every error payload names its shard (one that already stamped
        itself — e.g. WrongShard — wins).
        """
        try:
            frame = await self._links[shard].call(
                op, params, timeout_s, deadline=deadline, tenant=tenant,
                relay=relay, stop=stop)
        except _TRANSPORT_ERRORS as e:
            reason = _failure_reason(e)
            self.tracker[shard].record_failure(reason)
            self._m_route.labels(shard=shard, outcome="unreachable").inc()
            log.warning("shard %s unreachable for %s: %s", shard, key,
                        str(e) or reason,
                        extra={"shard": shard, "key": key,
                               "reason": reason})
            return _Answer(shard, "unreachable", error={
                "kind": "unavailable", "type": type(e).__name__,
                "message": str(e) or reason, "shard": shard})
        self.tracker[shard].record_success(credit)
        if frame.get("ok"):
            self._m_route.labels(shard=shard, outcome=outcome).inc()
            return _Answer(shard, outcome, result=frame.get("result"))
        self._m_route.labels(shard=shard, outcome="error").inc()
        error = frame.get("error")
        if not isinstance(error, dict):
            error = {"kind": "internal", "type": "ProtocolError",
                     "message": f"malformed failure frame from {shard}"}
        return _Answer(shard, "error", error={"shard": shard, **error})

    @staticmethod
    def _unwrap(answer: _Answer, span_args: dict) -> Any:
        """A keyed answer onto the wire: the result as the shard sent it
        (which stamped its own name on it), or the shard's typed error
        re-raised."""
        span_args["shard"] = answer.shard
        span_args["outcome"] = answer.outcome
        if answer.error is not None:
            raise payload_to_error(answer.error)
        return answer.result

    # -- single-key routing with the reliability walk ------------------------

    def _attempt_timeout(self, remaining: float | None,
                         candidates_left: int) -> float:
        """Per-attempt timeout: the remaining deadline budget (minus the
        router's response headroom) split across the replicas still
        untried, never above the configured ceiling and never below the
        dial floor."""
        if remaining is None:
            return self.attempt_timeout_s
        share = max(0.0, remaining - DEADLINE_HEADROOM_S) \
            / max(1, candidates_left)
        return max(MIN_ATTEMPT_TIMEOUT_S,
                   min(self.attempt_timeout_s, share))

    def _shed(self, key: str, span_args: dict,
              overshoot: float) -> None:
        self._m_shed.labels(stage="router").inc()
        span_args["outcome"] = "deadline"
        log.warning("shed %s at router (%.1fms past deadline)", key,
                    overshoot * 1e3, extra={"key": key})
        raise DeadlineExceeded("router", overshoot, 0.0)

    async def _route_single(self, req: Request, key: str,
                            replicas: Sequence[str],
                            span_args: dict) -> Any:
        """Walk a replica chain for one request; the winning shard's
        answer is relayed, not parsed — the result is its :class:`Body`.

        Transport failures fail over (budgeted), typed shard errors
        forward, shards whose health refuses the dial skip, a spent
        deadline sheds, and an idle-past-the-quantile first attempt
        hedges.
        """
        order = self.tracker.order(replicas)
        span_args["replicas"] = list(order)
        self.retry_budget.on_request()
        pending = list(order)
        tried: list[str] = []
        dialed_any = False
        while pending:
            remaining = req.remaining()
            if remaining is not None and remaining <= 0:
                self._shed(key, span_args, -remaining)
            shard = pending.pop(0)
            health = self.tracker[shard]
            if not health.allow():
                self._m_route.labels(shard=shard,
                                     outcome="skipped").inc()
                continue
            if dialed_any:
                # a failover attempt: pay the retry budget, then the
                # tiny de-correlating backoff (admitted but never
                # dialed hands its trial slot back)
                if not self.retry_budget.try_spend():
                    health.record_abandoned()
                    span_args["outcome"] = "retry-budget"
                    raise RetryBudgetExhausted(key, tuple(tried))
                await asyncio.sleep(
                    FAILOVER_BACKOFF.delay(len(tried), key))
                remaining = req.remaining()
                if remaining is not None and remaining <= 0:
                    health.record_abandoned()
                    self._shed(key, span_args, -remaining)
            timeout = self._attempt_timeout(remaining, 1 + len(pending))
            # only the first attempt of an idempotent read hedges
            hedge_delay = self.hedge_delay() if not dialed_any \
                and OPS[req.op].hedgeable else None
            dialed_any = True
            tried.append(shard)
            answer = await self._attempt(req, key, shard, pending,
                                         timeout, hedge_delay, tried,
                                         span_args)
            if answer is not None:
                return self._unwrap(answer, span_args)
        if not dialed_any:
            # every replica's health refused the dial: nothing was even
            # dialed — a distinct, typed condition
            span_args["outcome"] = "circuit-open"
            raise CircuitOpen(key, tuple(order))
        span_args["outcome"] = "unavailable"
        raise ShardUnavailable(key, tried=tuple(tried))

    async def _attempt(self, req: Request, key: str, primary: str,
                       pending: list[str], timeout: float,
                       hedge_delay: float | None, tried: list[str],
                       span_args: dict) -> "_Answer | None":
        """One attempt at ``primary``; None when nothing answered.

        The attempt is one future, ``won``, which the first dial to
        answer resolves; a dial still waiting then abandons its exchange
        (its trial slot released, its connection closed by the link's
        failure path, never pooled).  The primary is dialed in the
        calling task.  With a ``hedge_delay``, a timer fires once the
        attempt has been in flight that long without answering: it
        spends a retry-budget token and launches the next admitted
        replica's dial, the one task an attempt can create.  Hedged or
        not, the same lines run; the attempt timeout is the link's own
        timer inside :meth:`_exchange`.
        """
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        won = loop.create_future()
        hedges: list[asyncio.Task] = []

        async def dial(shard: str, timeout_s: float, outcome: str) -> None:
            try:
                answer = await self._exchange(
                    shard, req.op, req.params, timeout_s, key,
                    outcome=outcome, deadline=req.deadline,
                    tenant=req.tenant, relay=True, stop=won)
            except asyncio.CancelledError:
                self.tracker[shard].record_abandoned()
                raise
            if answer.outcome != "unreachable" and not won.done():
                won.set_result(answer)

        def hedge() -> None:
            backup = self._hedge_backup(pending)
            # no backup or no token: ride out the first attempt
            if backup is not None:
                self._m_hedge.labels(outcome="launched").inc()
                span_args["hedged"] = backup
                pending.remove(backup)
                tried.append(backup)
                hedges.append(loop.create_task(dial(
                    backup, self._attempt_timeout(req.remaining(),
                                                  1 + len(pending)),
                    "hedge")))

        timer = loop.call_later(hedge_delay, hedge) \
            if hedge_delay is not None else None
        try:
            try:
                await dial(primary, timeout,
                           "ok" if len(tried) == 1 else "failover")
            except asyncio.CancelledError:
                if not won.done():
                    raise                        # cancelled from outside
            if hedges and not won.done():
                await hedges[0]        # the primary failed; the hedge flies
        finally:
            if timer is not None:
                timer.cancel()
            for task in hedges:
                # a loser still dialling, or this request was cancelled
                task.cancel()
        if not won.done():
            return None
        winner = won.result()
        self._note_latency(time.perf_counter() - t0)
        if winner.shard != primary:
            self._m_hedge.labels(outcome="won").inc()
        elif "hedged" in span_args:
            self._m_hedge.labels(outcome="lost").inc()
        return winner

    def _hedge_backup(self, pending: Sequence[str]) -> str | None:
        """The next replica whose health admits a hedge, paid for with
        a retry-budget token (none left: the admission is handed back
        and nothing is launched)."""
        for shard in pending:
            if self.tracker[shard].allow():
                if self.retry_budget.try_spend():
                    return shard
                self.tracker[shard].record_abandoned()
                break
        return None

    # -- write routing ---------------------------------------------------------

    async def _route_write(self, req: Request, span_args: dict) -> Any:
        """Route a mutation: primary-required, then best-effort replica
        fan-out.

        Writes never fail over and never hedge — a mutation applied on a
        replica while the primary missed it would fork the version
        history, and the next read could see versions go *backwards*
        after a failover.  The ring's first owner is the single write
        point; if its health refuses the dial, it is unreachable, or the
        deadline is spent, the write fails with the typed error (the
        client retries against an unchanged version history — every
        mutation is observable via the version it returns).

        Under ``replication > 1`` the committed write is then applied to
        the surviving replicas best-effort, and the response discloses
        the per-shard outcome (``replicated`` / ``replica_failures``) —
        a lagging replica serves *older* versions, never wrong ones,
        and the disclosure is what the staleness bound is measured from.
        With no replica there is nothing to disclose and the primary's
        answer is relayed as it came.
        """
        key = routing_key(req.params)
        replicas = self.ring.owners(key, self.replication)
        primary = replicas[0]
        span_args["replicas"] = list(replicas)
        span_args["primary"] = primary
        self.retry_budget.on_request()
        remaining = req.remaining()
        if remaining is not None and remaining <= 0:
            self._shed(key, span_args, -remaining)
        if not self.tracker[primary].allow():
            self._m_route.labels(shard=primary, outcome="skipped").inc()
            span_args["outcome"] = "circuit-open"
            raise CircuitOpen(key, (primary,))
        answer = await self._exchange(
            primary, req.op, req.params,
            self._attempt_timeout(remaining, 1), key,
            deadline=req.deadline, tenant=req.tenant,
            relay=len(replicas) == 1)
        if answer.outcome == "unreachable":
            span_args["outcome"] = "unavailable"
            raise ShardUnavailable(key, tried=(primary,))
        result = self._unwrap(answer, span_args)
        if len(replicas) > 1 and isinstance(result, dict):
            replicated, failures = await self._replicate_write(
                req, key, [s for s in replicas if s != primary])
            result["replicated"] = replicated
            result["replica_failures"] = failures
            span_args["replicated"] = len(replicated)
        return result

    async def _replicate_write(self, req: Request, key: str,
                               backups: Sequence[str]
                               ) -> tuple[list[str], list[str]]:
        """Apply a primary-committed write to the backup replicas
        concurrently; per-shard outcomes, never an exception."""

        async def one(shard: str) -> tuple[str, bool]:
            if not self.tracker[shard].allow():
                self._m_route.labels(shard=shard,
                                     outcome="skipped").inc()
                return shard, False
            answer = await self._exchange(
                shard, req.op, req.params, self.fanout_timeout_s, key,
                deadline=req.deadline, tenant=req.tenant)
            return shard, answer.error is None

        outcomes = await asyncio.gather(*(one(s) for s in backups))
        replicated = sorted(s for s, ok in outcomes if ok)
        failures = sorted(s for s, ok in outcomes if not ok)
        return replicated, failures

    # -- degraded serving ------------------------------------------------------

    @staticmethod
    def _stale_key(req: Request) -> str:
        return req.op + ":" + json.dumps(req.params, sort_keys=True,
                                         separators=(",", ":"))

    def _remember(self, req: Request, body: Any) -> None:
        # a relayed answer is kept as the bytes it came in and parsed
        # only if ever served (one that had to be decoded is served, not
        # kept), and only an object's.  No shard answers ``degraded``:
        # _serve_stale is the one place that does
        if type(body) is Body and body.startswith(b"{"):
            self._stale.put(self._stale_key(req), body)

    def _serve_stale(self, req: Request, cause: Exception,
                     span_args: dict) -> dict | None:
        """Last-good fallback: the most recent answer for this exact
        request, under the staleness cap, marked degraded."""
        hit = self._stale.get_stale(self._stale_key(req),
                                    self.reliability.stale_cap_s)
        if hit is None:
            return None
        body, age = hit
        kind = getattr(cause, "kind", "internal")
        self._m_degraded.labels(reason=kind).inc()
        span_args["outcome"] = "degraded"
        span_args["degraded_reason"] = kind
        log.info("serving stale response (age %.3fs) after %s",
                 age, kind, extra={"age_s": age, "reason": kind})
        return dict(decode_body(body), degraded=True,
                    staleness_s=round(age, 3), served="stale")

    # -- scatter-gather --------------------------------------------------------

    async def _scatter(self, op: str, params: dict[str, Any],
                       span_args: dict
                       ) -> tuple[dict[str, Any], list[str],
                                  dict[str, dict]]:
        """Fan ``op`` to the healthy shards (all of them when the
        tracker has ejected everything) concurrently.

        Returns ``(results, missing, errors)``: per-shard results for
        those that answered ok, the shards that did not, and why —
        every error payload, typed shard answer *and* transport
        failure, carries a ``shard`` key naming where it came from, so
        a partial aggregation can say which shard failed and why.
        """
        targets = self.tracker.healthy_shards() or tuple(self.shards)
        t0 = time.perf_counter()
        answers = await asyncio.gather(*(
            self._exchange(name, op, params, self.fanout_timeout_s,
                           f"_{op}") for name in targets))
        self._m_fan.labels(op=op).observe(
            (time.perf_counter() - t0) * 1e3)
        results = {a.shard: a.result for a in answers if a.error is None}
        errors = {a.shard: a.error for a in answers
                  if a.error is not None}
        span_args["missing"] = missing = sorted(errors)
        return results, missing, errors

    # -- op dispatch ---------------------------------------------------------

    async def _dispatch(self, req: Request) -> Any:
        with maybe_span(self.tracer, f"route:{req.op}") as span_args:
            handler = self._handlers.get(req.op)
            if handler is None:
                raise BadRequest(f"router does not serve op {req.op!r}")
            return await handler(req, span_args)

    async def _route_keyed(self, req: Request, key: str, span_args: dict,
                           replicas: "Sequence[str] | None" = None) -> Any:
        """The single-key walk (over ``key``'s ring owners unless the
        caller names a chain), wrapped in degraded serving for the ops
        that allow it: when the whole chain fails *unavailably* (not a
        typed shard answer), a fresh-enough last-good response beats the
        error."""
        if replicas is None:
            replicas = self.ring.owners(key, self.replication)
        stale_ok = OPS[req.op].stale
        try:
            result = await self._route_single(req, key, replicas,
                                              span_args)
        except (ShardUnavailable, CircuitOpen, RetryBudgetExhausted,
                DeadlineExceeded) as e:
            stale = self._serve_stale(req, e, span_args) \
                if stale_ok else None
            if stale is None:
                raise
            return stale
        if stale_ok:
            self._remember(req, result)
        return result

    async def _ping(self, req: Request, span_args: dict) -> dict:
        return {"pong": True, "protocol": PROTOCOL_VERSION,
                "server": __version__, "role": "router",
                "shards": len(self.shards),
                "replication": self.replication}

    async def _health(self, req: Request, span_args: dict) -> dict:
        healthy = self.tracker.healthy_shards()
        return {"ok": bool(healthy), "role": "router",
                "shards": {name: name in healthy
                           for name in sorted(self.shards)}}

    async def _keyed_read(self, req: Request, span_args: dict) -> Any:
        return await self._route_keyed(req, routing_key(req.params),
                                       span_args)

    async def _any_shard(self, req: Request, span_args: dict) -> Any:
        # identical on every shard: any healthy one will do, with the
        # same transport-failover walk a keyed op gets
        return await self._route_keyed(req, f"_{req.op}", span_args,
                                       tuple(self.shards))

    async def _gather_shard_info(self, req: Request,
                                 span_args: dict) -> dict[str, Any]:
        results, missing, errors = await self._scatter(
            req.op, req.params, span_args)
        return {"role": "router", "shards": results,
                "partial": bool(missing), "missing": missing,
                "errors": errors}

    async def _gather_datasets(self, req: Request,
                               span_args: dict) -> list[dict]:
        """Union of every shard's owned slice, annotated with the shards
        currently serving each dataset."""
        results, _, _ = await self._scatter(req.op, {}, span_args)
        merged: dict[str, dict] = {}
        for shard, rows in sorted(results.items()):
            for row in rows or []:
                entry = merged.setdefault(row["key"], dict(row,
                                                           shards=[]))
                entry["shards"].append(shard)
        return [merged[k] for k in sorted(merged)]

    def reliability_snapshot(self) -> dict[str, Any]:
        """The reliability layer's live state (the ``stats`` op's
        ``reliability`` section — every breaker/budget/hedge/degraded
        signal in one machine-readable place).  ``breakers`` is the
        circuit view of the machines ``stats.health`` shows as
        membership."""
        rel = self.reliability
        delay = self.hedge_delay()
        return {
            "breakers": {name: self.tracker[name].breaker_dict()
                         for name in sorted(self.shards)},
            "retry_budget": self.retry_budget.snapshot(),
            "hedge": {"quantile": rel.hedge_quantile,
                      "delay_s": (round(delay, 6)
                                  if delay is not None else None),
                      "samples": len(self._lat_samples)},
            "stale": dict(self._stale.stats.as_dict(),
                          entries=len(self._stale),
                          cap_s=rel.stale_cap_s)}

    async def _gather_stats(self, req: Request,
                            span_args: dict) -> dict[str, Any]:
        results, missing, errors = await self._scatter(req.op, {},
                                                       span_args)
        return {"protocol": PROTOCOL_VERSION, "server": __version__,
                "role": "router",
                "ring": {"shards": list(self.ring.nodes),
                         "vnodes": self.ring.vnodes,
                         "replication": self.replication},
                "health": self.tracker.snapshot(),
                "reliability": self.reliability_snapshot(),
                "query": {"plan_cache":
                          self._plan_cache.stats.as_dict()},
                "metrics": self.registry.snapshot(),
                "shards": results,
                "partial": bool(missing), "missing": missing,
                "errors": errors}

    async def _gather_batch(self, req: Request,
                            span_args: dict) -> dict[str, Any]:
        """Multi-cell scatter: route every entry independently (each
        with its own replica failover), aggregate partial results."""
        entries = req.params.get("entries")
        if not isinstance(entries, list) or not entries:
            raise BadRequest("batch requires a non-empty 'entries' list")
        if len(entries) > MAX_BATCH_ENTRIES:
            raise BadRequest(f"batch of {len(entries)} entries exceeds "
                             f"{MAX_BATCH_ENTRIES}")

        async def one(entry) -> dict[str, Any]:
            try:
                if not isinstance(entry, dict):
                    raise BadRequest("batch entry must be an object")
                op = entry.get("op", CELL_OPS[0])
                if op not in CELL_OPS:
                    raise BadRequest(f"batch entries must be "
                                     f"{'/'.join(CELL_OPS)}, got {op!r}")
                params = entry.get("params", {})
                if not isinstance(params, dict):
                    raise BadRequest("batch entry params must be an object")
                sub = Request(op=op, id=req.id, params=params,
                              deadline=req.deadline, tenant=req.tenant)
                result = await self._keyed_read(sub, {})
                return {"ok": True, "result": decode_body(result)
                        if type(result) is Body else result}
            except Exception as e:  # noqa: BLE001 — per-entry, in-band
                return {"ok": False, "error": error_to_payload(e)}

        results = await asyncio.gather(*(one(e) for e in entries))
        failed = sum(1 for r in results if not r["ok"])
        span_args["entries"] = len(entries)
        span_args["failed"] = failed
        return {"results": list(results), "entries": len(entries),
                "failed": failed, "partial": failed > 0}

    # -- pipeline-DSL queries --------------------------------------------------

    def _static_plan(self, pipeline) -> None:
        """Plan a static-source query at the front door, so a bad
        pipeline fails with a typed PlanError before any shard traffic;
        through the router's content-addressed plan cache (version 0: a
        generated graph never changes under a fixed seed)."""
        key = ("plan", plan_digest(unparse(pipeline)))
        if self._plan_cache.get(key, version=0) is None:
            self._plan_cache.put(key, plan_pipeline(pipeline), version=0)

    async def _route_dsl(self, req: Request, span_args: dict) -> Any:
        """Route a pipeline-DSL op as a keyed read of its source's
        dataset, the answering shard's bytes relayed.

        Only mutable state is owned: a dynamic source walks the
        dataset's owner chain (only owners hold the mutation history),
        a static one every shard in ring order, owner first — any shard
        generates the same graph, so a dead owner fails over through the
        walk.  Garbage text fails router-side with a typed
        :class:`~repro.core.errors.QueryError`, and a static pipeline
        that cannot be planned with a typed PlanError, before any shard
        traffic.
        """
        pipeline = parse_query(req.params.get("q"))
        source = source_info(pipeline)
        if source.dynamic:
            return await self._route_keyed(req, source.dataset, span_args)
        self._static_plan(pipeline)
        return await self._route_keyed(
            req, source.dataset, span_args,
            self.ring.owners(source.dataset, len(self.ring.nodes)))
