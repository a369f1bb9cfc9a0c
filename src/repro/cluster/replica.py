"""Shard health: one state machine per shard, and the failover order.

The ring (:mod:`~repro.cluster.ring`) says *where* a key's K replicas
live; this module says *which of them may be dialed, and in what order*.
Each shard has exactly one :class:`ShardHealth` — the classic
three-state circuit breaker, which is also the membership record:

* **closed** ≡ healthy: everything is admitted.
* **open** ≡ ejected: ``failure_threshold`` consecutive transport
  failures open the circuit; :meth:`ShardHealth.allow` refuses instantly
  (no doomed dial burns a caller's deadline) until the reset timeout
  has passed.
* **half-open**: exactly one trial is in flight.  Any success closes the
  circuit (readmission) and restores the base timeout; a failed trial
  re-opens it with the timeout multiplied by ``backoff_factor`` up to
  ``max_reset_timeout_s`` — a dead shard is tried ever more lazily.

The router's background prober takes the same trial slot through
:meth:`ShardHealth.allow_probe`, which waits only the *base* timeout: a
ping spends no caller's deadline, so a restarted shard is readmitted on
the prober's cadence however far client traffic has backed off.  Only
*transport* outcomes feed the machine — a typed error frame means the
shard answered, which is health-wise a success.

:class:`ReplicaTracker` is the collection: one machine per shard, the
failover order over them (closed first, *the rest kept as a last
resort* — a verdict can be wrong), and the one transition hook that
turns every state change into a log line and its metric ticks.

Thread-safe (the router's loop writes, tests and the ``stats`` op read
from other threads); the clock is injectable so tests never sleep.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

from ..obs.logs import get_logger

log = get_logger("cluster.replica")

#: The three states of a shard's health machine.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class ShardHealth:
    """One shard's three-state health machine (see the module docstring).

    ``on_transition(name, old, new, reason)`` observes every state
    change; it runs under the machine's lock and must not call back in.
    """

    def __init__(self, name: str, *, failure_threshold: int = 3,
                 reset_timeout_s: float = 1.0,
                 backoff_factor: float = 2.0,
                 max_reset_timeout_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Callable[..., None] | None = None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        self.name = name
        self.failure_threshold = failure_threshold
        self.base_reset_timeout_s = reset_timeout_s
        self.backoff_factor = backoff_factor
        self.max_reset_timeout_s = max_reset_timeout_s
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.failures = 0            # lifetime transport failures
        self.successes = 0           # lifetime answered exchanges
        self.ejections = 0           # closed -> open
        self.readmissions = 0        # anything -> closed
        self.probes = 0              # trials the background prober took
        self.transitions: dict[str, int] = {}
        self._opened_at = 0.0
        self._reset_timeout_s = reset_timeout_s
        self._trial_inflight = False

    @property
    def healthy(self) -> bool:
        return self.state == BREAKER_CLOSED

    def _transition(self, new: str, reason: str) -> None:
        """Record a state change (lock held by caller)."""
        old, self.state = self.state, new
        self.transitions[new] = self.transitions.get(new, 0) + 1
        if self._on_transition is not None:
            self._on_transition(self.name, old, new, reason)

    def _take_trial(self, timeout_s: float, reason: str) -> bool:
        """Admit one half-open trial once the circuit has been open for
        ``timeout_s`` (lock held by caller, state not closed)."""
        if self.state == BREAKER_OPEN:
            if self._clock() - self._opened_at < timeout_s:
                return False
            self._transition(BREAKER_HALF_OPEN, reason)
        elif self._trial_inflight:
            return False                 # half-open: one trial at a time
        self._trial_inflight = True
        return True

    def allow(self) -> bool:
        """May a request dial this shard right now?"""
        with self._lock:
            return self.state == BREAKER_CLOSED \
                or self._take_trial(self._reset_timeout_s, "traffic")

    def allow_probe(self) -> bool:
        """Is a background probe due?  True takes the half-open trial:
        only a non-closed shard, one trial at a time, the *base* timeout
        after it last (re)opened — the back-off is not waited out."""
        with self._lock:
            due = self.state != BREAKER_CLOSED \
                and self._take_trial(self.base_reset_timeout_s, "probe")
            if due:
                self.probes += 1
            return due

    def record_success(self, reason: str = "traffic") -> None:
        with self._lock:
            self.successes += 1
            self.consecutive_failures = 0
            self._trial_inflight = False
            if self.state != BREAKER_CLOSED:
                self._reset_timeout_s = self.base_reset_timeout_s
                self.readmissions += 1
                self._transition(BREAKER_CLOSED, reason)

    def record_failure(self, reason: str = "transport") -> None:
        with self._lock:
            self.failures += 1
            self.consecutive_failures += 1
            if self.state == BREAKER_HALF_OPEN:
                # the trial failed: back off and re-open
                self._trial_inflight = False
                self._reset_timeout_s = min(
                    self._reset_timeout_s * self.backoff_factor,
                    self.max_reset_timeout_s)
            elif self.state == BREAKER_CLOSED \
                    and self.consecutive_failures >= self.failure_threshold:
                self.ejections += 1
            else:
                return
            self._opened_at = self._clock()
            self._transition(BREAKER_OPEN, reason)

    def record_abandoned(self) -> None:
        """An admitted attempt ended without an outcome (a cancelled
        hedge loser, a walk out of budget before dialing): release the
        trial slot without judging the shard either way."""
        with self._lock:
            self._trial_inflight = False

    def as_dict(self) -> dict:
        """The membership view (``stats.health[shard]``)."""
        with self._lock:
            return {"healthy": self.healthy,
                    "consecutive_failures": self.consecutive_failures,
                    "failures": self.failures, "successes": self.successes,
                    "ejections": self.ejections,
                    "readmissions": self.readmissions,
                    "probes": self.probes}

    def breaker_dict(self) -> dict:
        """The circuit view of the same machine (the ``breakers`` map
        of ``stats.reliability``)."""
        with self._lock:
            return {"state": self.state,
                    "consecutive_failures": self.consecutive_failures,
                    "reset_timeout_s": round(self._reset_timeout_s, 6),
                    "transitions": dict(self.transitions)}


class ReplicaTracker:
    """The shard set's health machines and the failover order over
    them.  Every state change is one structured log line and — once
    :meth:`bind_metrics` has attached a registry — one tick of
    ``cluster_breaker_transitions_total{shard,state}`` plus, for the
    membership flips (closed→open "ejected", →closed "readmitted"), one
    of ``cluster_membership_transitions_total{shard,event,reason}``."""

    def __init__(self, names: Sequence[str], **machine):
        self._machine = machine      # every ShardHealth's keyword args
        self._shards: dict[str, ShardHealth] = {}
        self._m_membership = self._m_breaker = None
        for name in names:
            self.add_shard(name)

    def add_shard(self, name: str) -> None:
        """Start tracking a shard; idempotent."""
        if name not in self._shards:
            self._shards[name] = ShardHealth(
                name, on_transition=self._observe, **self._machine)

    def __getitem__(self, name: str) -> ShardHealth:
        return self._shards[name]

    def bind_metrics(self, registry) -> None:
        """Attach both transition-counter families to a registry."""
        self._m_membership = registry.counter(
            "cluster_membership_transitions_total",
            "shard ejections and readmissions, by shard and reason",
            labels=("shard", "event", "reason"))
        self._m_breaker = registry.counter(
            "cluster_breaker_transitions_total",
            "health-machine state entries, by shard and new state",
            labels=("shard", "state"))

    def _observe(self, name: str, old: str, new: str, reason: str) -> None:
        event = "readmitted" if new == BREAKER_CLOSED \
            else "ejected" if old == BREAKER_CLOSED else None
        if self._m_breaker is not None:
            self._m_breaker.labels(shard=name, state=new).inc()
            if event is not None:
                self._m_membership.labels(shard=name, event=event,
                                          reason=reason).inc()
        level = log.warning if new == BREAKER_OPEN else log.info
        level("shard %s %s (%s): %s -> %s", name, event or "still down",
              reason, old, new, extra={"shard": name, "event": event,
                                       "reason": reason, "new": new})

    def healthy_shards(self) -> tuple[str, ...]:
        return tuple(n for n in tuple(self._shards) if self[n].healthy)

    def down_shards(self) -> tuple[str, ...]:
        return tuple(n for n in tuple(self._shards) if not self[n].healthy)

    def order(self, replicas: Sequence[str]) -> tuple[str, ...]:
        """Failover order for a replica set: closed shards in ring
        order, then the rest as a last resort (read preference)."""
        return tuple(sorted(replicas, key=lambda r: not self[r].healthy))

    def snapshot(self) -> dict[str, dict]:
        return {name: s.as_dict()
                for name, s in sorted(self._shards.items())}


class RetryBudget:
    """Token-bucket cap on cluster-wide retry amplification.

    Every first attempt deposits ``ratio`` tokens; every retry (failover
    or hedge) withdraws one.  Offered retry load is therefore bounded at
    ``ratio`` of offered first-attempt load plus the ``max_tokens``
    burst — with ``ratio=0.1`` sustained amplification cannot exceed
    1.1x no matter how many shards brown out at once, which is exactly
    the storm-prevention contract.  Deterministic: token arithmetic
    only, no clock.

    Thread-safe; ``granted``/``denied`` counters feed the stats surface.
    """

    def __init__(self, ratio: float = 0.1, max_tokens: float = 10.0):
        if ratio < 0:
            raise ValueError("ratio must be >= 0")
        if max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        self.ratio = ratio
        self.max_tokens = max_tokens
        self._lock = threading.Lock()
        self._tokens = max_tokens          # full bucket: cold-start grace
        self.granted = 0
        self.denied = 0

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def on_request(self) -> None:
        """A first attempt: deposit the ratio."""
        with self._lock:
            self._tokens = min(self.max_tokens,
                               self._tokens + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one token for a retry/hedge; False = budget spent."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.granted += 1
                return True
            self.denied += 1
            return False

    def snapshot(self) -> dict:
        with self._lock:
            return {"tokens": round(self._tokens, 3),
                    "ratio": self.ratio,
                    "max_tokens": self.max_tokens,
                    "granted": self.granted, "denied": self.denied}
