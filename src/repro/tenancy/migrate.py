"""Live execution of a :class:`~repro.cluster.ring.RebalancePlan`.

``repro cluster plan`` reports what a membership change *would* move;
this module actually moves it, against a running cluster, without a
restart and without surfacing a single ``WrongShard`` to clients.  The
choreography per affected key:

1. **drain** — the router holds the key's writes (reads keep flowing
   against the current owner; paused writes wait, they do not fail);
2. **copy** — the old primary's mutated dynamic state ships over the
   ordinary wire (``dyn_export`` → ``dyn_import``); static state needs
   no copy because every shard regenerates it deterministically;
3. **adopt** — every shard gaining the key in the new ring adopts it
   (``admin`` op), so it answers instead of raising ``WrongShard`` the
   moment routing flips;
4. **swap** — the router atomically installs the new ring: one
   assignment, no torn window;
5. **handoff** — every shard losing the key drops it with a bounded
   forward window pointed at the new primary, absorbing requests from
   in-flight dispatches that routed on the old ring; then writes
   resume.

The executor is synchronous and runs on the operator's (or the
autoscaler's) thread — it talks to shards through blocking
:class:`~repro.service.client.ServiceClient` connections and to the
router through its in-process live-topology API (:meth:`add_shard` /
:meth:`install_ring` / :meth:`pause_writes`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..cluster.ring import HashRing, RebalancePlan
from ..obs.logs import get_logger

log = get_logger("tenancy.migrate")


@dataclass(frozen=True)
class MigrationReport:
    """What one executed rebalance actually did."""

    keys: tuple[str, ...]                 # keys whose owner set changed
    adopted: dict[str, tuple[str, ...]] = field(default_factory=dict)
    dropped: dict[str, tuple[str, ...]] = field(default_factory=dict)
    stores_shipped: dict[str, int] = field(default_factory=dict)
    handoff_window_s: float = 0.0
    write_pause_s: float = 0.0            # how long writes were held
    elapsed_s: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {"keys": list(self.keys),
                "adopted": {k: list(v)
                            for k, v in sorted(self.adopted.items())},
                "dropped": {k: list(v)
                            for k, v in sorted(self.dropped.items())},
                "stores_shipped": dict(sorted(
                    self.stores_shipped.items())),
                "handoff_window_s": self.handoff_window_s,
                "write_pause_s": round(self.write_pause_s, 4),
                "elapsed_s": round(self.elapsed_s, 4)}


class RebalanceExecutor:
    """Turn a report-only plan into a live key migration.

    ``addresses`` maps every shard name — including any shard joining
    via ``join`` — to something with ``host``/``port`` (a
    :class:`~repro.cluster.router.ShardAddress`); the executor dials
    shards directly, never through the router, so migration traffic
    cannot be misrouted by the very swap it is performing.
    """

    def __init__(self, router, addresses: Mapping[str, Any], *,
                 handoff_window_s: float = 5.0,
                 request_timeout_s: float = 60.0):
        if handoff_window_s <= 0:
            raise ValueError("handoff_window_s must be positive")
        self.router = router
        self.addresses = dict(addresses)
        self.handoff_window_s = handoff_window_s
        self.request_timeout_s = request_timeout_s

    # -- shard RPC -----------------------------------------------------------

    def _shard_call(self, shard: str, op: str, **params: Any) -> Any:
        from ..service.client import ServiceClient
        addr = self.addresses.get(shard)
        if addr is None:
            raise ValueError(f"no address for shard {shard!r}")
        with ServiceClient(addr.host, addr.port,
                           timeout_s=self.request_timeout_s) as client:
            return client.request(op, **params)

    # -- execution -----------------------------------------------------------

    def _affected(self, plan: RebalancePlan, keys, replication: int
                  ) -> dict[str, tuple[tuple[str, ...],
                                       tuple[str, ...]]]:
        """key -> (old owner set, new owner set), for keys whose set
        changes.  Replica-aware: a key whose primary stays put but whose
        replica chain shifts still needs adopt/drop reconciliation."""
        vnodes = self.router.ring.vnodes
        before = HashRing(plan.before, vnodes=vnodes)
        after = HashRing(plan.after, vnodes=vnodes)
        affected = {}
        for key in keys:
            old = before.owners(key, replication)
            new = after.owners(key, replication)
            if set(old) != set(new) or old[0] != new[0]:
                affected[key] = (old, new)
        return affected

    def execute(self, plan: RebalancePlan, *, keys=None,
                join: Any = None) -> MigrationReport:
        """Run the migration; returns the accounting report.

        ``keys`` is the dataset keyspace to reconcile (default: the
        plan's moved keys).  ``join`` is an optional
        :class:`~repro.cluster.router.ShardAddress` for a shard entering
        the topology with this plan (the hot-shard autoscale path: boot
        a spare, plan a ring including it, execute with ``join``).
        """
        t_start = time.monotonic()
        router = self.router
        if join is not None:
            self.addresses.setdefault(join.name, join)
            router.add_shard(join)
        if keys is None:
            keys = sorted(plan.moved)
        replication = router.replication
        affected = self._affected(plan, keys, replication)
        adopted: dict[str, tuple[str, ...]] = {}
        dropped: dict[str, tuple[str, ...]] = {}
        shipped: dict[str, int] = {}
        if not affected:
            return MigrationReport(
                keys=(), handoff_window_s=self.handoff_window_s,
                elapsed_s=time.monotonic() - t_start)

        # -- drain + copy + adopt (old ring still live for reads) ------------
        router.pause_writes(affected)
        t_paused = time.monotonic()
        try:
            for key, (old, new) in sorted(affected.items()):
                gaining = tuple(s for s in new if s not in old)
                exported = None
                if gaining:
                    exported = self._shard_call(old[0], "dyn_export",
                                                dataset=key)
                    stores = (exported or {}).get("stores") or []
                    shipped[key] = len(stores)
                    for shard in gaining:
                        if stores:
                            self._shard_call(shard, "dyn_import",
                                             dataset=key, stores=stores)
                        self._shard_call(shard, "admin", action="adopt",
                                         dataset=key)
                    adopted[key] = gaining
                log.info("prepared %s: +%s", key, list(gaining),
                         extra={"key": key, "gaining": list(gaining)})

            # -- atomic cutover ----------------------------------------------
            vnodes = router.ring.vnodes
            router.install_ring(HashRing(plan.after, vnodes=vnodes))

            # -- handoff: losers forward ---------------------------------------
            for key, (old, new) in sorted(affected.items()):
                losing = tuple(s for s in old if s not in new)
                if losing:
                    target = self.addresses[new[0]]
                    for shard in losing:
                        self._shard_call(
                            shard, "admin", action="drop", dataset=key,
                            forward={"host": target.host,
                                     "port": target.port},
                            window_s=self.handoff_window_s)
                    dropped[key] = losing
        finally:
            router.resume_writes(affected)
        pause_s = time.monotonic() - t_paused
        return MigrationReport(
            keys=tuple(sorted(affected)), adopted=adopted,
            dropped=dropped, stores_shipped=shipped,
            handoff_window_s=self.handoff_window_s,
            write_pause_s=pause_s,
            elapsed_s=time.monotonic() - t_start)
