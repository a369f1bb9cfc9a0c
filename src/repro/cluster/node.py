"""One cluster shard: a :class:`~repro.service.server.GraphService`
that owns a subset of the dataset keyspace.

A shard is the full single-node serving stack — caches, pool, scheduler,
metrics registry — plus three cluster behaviours:

* ``shard_info`` answers the shard's identity, ownership, and load
  (the router's topology probe);
* ``health``/``ping`` responses carry the shard id, so a probe knows
  *which* process answered on a recycled port;
* keyed ops (a ``key_in`` in :data:`~repro.service.protocol.OPS`) for a
  dataset the shard does not own fail with a typed
  :class:`~repro.core.errors.WrongShard` — loudly surfacing a stale
  ring or misrouted request instead of silently duplicating another
  shard's cache tier.  Only mutable state is owned: a DSL query over a
  static source (a generated graph, the same on every shard) is served
  by any shard;
* the ``datasets`` op reports only the owned slice of the registry, so
  the router's scatter-gather union *is* the cluster's serving surface
  (a dead shard's exclusive datasets visibly drop out).

``datasets=None`` means "owns everything" — a single-shard cluster (or
a plain service promoted into one) needs no ownership list.

Ownership is *live*: the ``admin`` op adopts or drops datasets while the
shard serves, which is how a rebalance migrates keys without a restart.
A drop may open a bounded **handoff window** during which requests for
the dropped dataset are forwarded to the new owner instead of failing
with ``WrongShard`` — the window absorbs routers acting on the old ring
mid-swap, so clients never see a routing error for a key that moved.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from .. import __version__
from ..core.errors import BadRequest, WrongShard
from ..service.protocol import (
    DEFAULT_DATASET,
    OPS,
    PROTOCOL_VERSION,
    Op,
    Request,
    finite,
)
from ..service.server import GraphService


class ShardService(GraphService):
    """A GraphService owning a subset of datasets in a cluster."""

    def __init__(self, shard_id: str,
                 datasets: "frozenset[str] | None" = None, **kwargs: Any):
        super().__init__(**kwargs)
        self.shard_id = shard_id
        # a plain set: adopt/drop mutate ownership on the event loop
        self.datasets = None if datasets is None else set(datasets)
        # dataset -> (host, port, expires_at): dropped keys forwarded to
        # their new owner until the handoff window closes
        self._forwards: dict[str, tuple[str, int, float]] = {}
        self.forwarded = 0
        # known registry keys, cached: ownership rejection applies only
        # to datasets that exist — an unknown name falls through to the
        # server's BadRequest, which names the real mistake
        from ..datagen.registry import REGISTRY
        self._known = frozenset(REGISTRY)
        self._handlers.update(shard_info=lambda req: self.shard_info(),
                              admin=self._admin)

    def owns(self, dataset: str) -> bool:
        return self.datasets is None or dataset in self.datasets

    def _owned(self) -> "list[str] | None":
        return None if self.datasets is None else sorted(self.datasets)

    # -- live ownership (rebalance support) -----------------------------------

    def _admin(self, req: Request) -> dict[str, Any]:
        params = req.params
        action = params.get("action")
        if action == "ownership":
            now = time.time()
            return {"shard": self.shard_id,
                    "datasets": self._owned(),
                    "forwards": {d: {"host": h, "port": p,
                                     "expires_in_s":
                                         round(max(0.0, e - now), 3)}
                                 for d, (h, p, e)
                                 in self._forwards.items()},
                    "forwarded": self.forwarded}
        dataset = params.get("dataset")
        if not isinstance(dataset, str) or dataset not in self._known:
            raise BadRequest(f"unknown dataset {dataset!r}")
        if action == "adopt":
            if self.datasets is not None:
                self.datasets.add(dataset)
            # adopting cancels any forward: the key is ours again
            self._forwards.pop(dataset, None)
            return {"shard": self.shard_id, "adopted": dataset,
                    "datasets": self._owned()}
        if action == "drop":
            if self.datasets is not None:
                self.datasets.discard(dataset)
            fwd = params.get("forward")
            if isinstance(fwd, dict) \
                    and "host" in fwd and "port" in fwd:
                try:
                    window_s = finite(float(params.get("window_s", 5.0)),
                                      "window_s")
                    target = (str(fwd["host"]), int(fwd["port"]),
                              time.time() + window_s)
                except (TypeError, ValueError, OverflowError) as e:
                    raise BadRequest(f"bad forward spec: {e}") from None
                self._forwards[dataset] = target
            return {"shard": self.shard_id, "dropped": dataset,
                    "forwarding": bool(self._forwards.get(dataset)),
                    "datasets": self._owned()}
        raise BadRequest(f"admin action must be adopt, drop or "
                         f"ownership, got {action!r}")

    def _forward_target(self, dataset: str) -> "tuple[str, int] | None":
        fw = self._forwards.get(dataset)
        if fw is None:
            return None
        host, port, expires = fw
        if time.time() >= expires:
            del self._forwards[dataset]
            return None
        return host, port

    async def _wrong_shard(self, req: Request, dataset: str) -> Any:
        """A request for a dataset this shard no longer owns: forward it
        inside the handoff window, raise ``WrongShard`` outside it."""
        target = self._forward_target(dataset)
        if target is None:
            raise WrongShard(dataset, self.shard_id)
        self.forwarded += 1
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self._forward_blocking, req, target)

    def _forward_blocking(self, req: Request,
                          target: tuple[str, int]) -> Any:
        from ..service.client import ServiceClient
        host, port = target
        budget = req.remaining()
        timeout = budget if budget is not None and budget > 0 else 30.0
        with ServiceClient(host, port, timeout_s=timeout,
                           tenant=req.tenant) as peer:
            result = peer.request(req.op, deadline_s=budget
                                  if budget is not None and budget > 0
                                  else None, **req.params)
        if isinstance(result, dict):
            # clients see the shard they were routed to, and who it
            # handed the request to only through ``forwarded_by``
            result["shard"] = self.shard_id
            result.setdefault("forwarded_by", self.shard_id)
        return result

    def _owned_key(self, op: Op, params: dict[str, Any]
                   ) -> "tuple[str | None, Any]":
        """``(dataset, pipeline)``: the known dataset a keyed request
        must land on the owner of, and the parse of its DSL text if that
        is where the key was (the engine takes it from here instead of
        parsing again).  No dataset when there is nothing to check: an
        unknown name or malformed DSL text (the handler raises its own
        typed error, which names the real mistake instead of a routing
        one), or a static DSL source — only mutable state is owned, and
        any shard generates the same static graph, which is what lets a
        dead owner's static queries fail over to any survivor."""
        pipeline = None
        if op.key_in == "q":
            try:
                from ..query import parse, source_info
                pipeline = parse(params.get("q"))
                source = source_info(pipeline)
            except Exception:  # noqa: BLE001 — defer to the engine's error
                return None, None
            dataset = source.dataset if source.dynamic else None
        else:
            dataset = params.get(op.key_in, DEFAULT_DATASET)
        return (dataset if isinstance(dataset, str)
                and dataset in self._known else None), pipeline

    def shard_info(self) -> dict[str, Any]:
        return {"shard": self.shard_id,
                "datasets": self._owned(),
                "server": __version__,
                "protocol": PROTOCOL_VERSION,
                "connections": int(self._m_conn.value),
                "pending": self.scheduler.pending}

    async def _dispatch(self, req: Request) -> Any:
        op = OPS[req.op]
        if op.key_in is None:
            return await super()._dispatch(req)
        dataset, pipeline = self._owned_key(op, req.params)
        if dataset is not None and not self.owns(dataset):
            return await self._wrong_shard(req, dataset)
        result = await super()._dispatch(req, pipeline)
        # a keyed answer names the shard that served it, stamped here —
        # before its first encode — so a router relays it untouched
        if isinstance(result, dict):
            result.setdefault("shard", self.shard_id)
        return result

    def _ping(self, req: Request) -> dict[str, Any]:
        return dict(super()._ping(req), shard=self.shard_id)

    def _health(self, req: Request) -> dict[str, Any]:
        return dict(super()._health(req), shard=self.shard_id)

    def _datasets(self, req: Request) -> list[dict[str, Any]]:
        return [row for row in super()._datasets(req)
                if self.owns(row["key"])]

    def stats(self) -> dict[str, Any]:
        out = super().stats()
        out["shard"] = self.shard_id
        out["datasets"] = self._owned()
        return out
