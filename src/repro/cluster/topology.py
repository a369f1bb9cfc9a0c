"""Cluster topology: the static spec, and harnesses that boot it.

A :class:`ClusterSpec` is the declarative shape — shard names,
replication factor, vnode count, dataset universe — from which everything
else derives: the ring, the per-shard ownership assignment, the router
configuration.  Two harnesses materialise a spec:

* :class:`ClusterThread` — every shard is a
  :class:`~repro.cluster.node.ShardService` on its own
  :class:`~repro.service.server.ServiceThread`, plus a
  :class:`~repro.cluster.router.Router` thread in front.  In-process,
  sub-second boot; the form tests and benchmarks use.  ``kill_shard``
  /``restart_shard`` turn it into a failover lab.
* :class:`ClusterProcesses` — each shard is a real child process
  (``python -m repro cluster shard``); the router still runs in-thread.
  The form ``repro cluster serve --processes`` uses, where a shard crash
  is an actual SIGKILL-able process death.

Ownership is ring-derived and replication-aware: a dataset is *owned* by
every shard in its ``owners(key, replication)`` set, so K shards can
answer for it and the router's failover has somewhere to go.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..resilience.netchaos import ChaosProxy, NetFaultSpec
from ..service.server import ServiceThread
from .node import ShardService
from .ring import DEFAULT_VNODES, HashRing
from .router import Router, ShardAddress


def _default_datasets() -> tuple[str, ...]:
    from ..datagen.registry import REGISTRY
    return tuple(sorted(REGISTRY))


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative cluster shape; everything routing derives from it."""

    shards: tuple[str, ...]
    replication: int = 1
    vnodes: int = DEFAULT_VNODES
    datasets: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.shards:
            raise ValueError("cluster needs at least one shard")
        if len(set(self.shards)) != len(self.shards):
            raise ValueError("shard names must be unique")
        if not 1 <= self.replication <= len(self.shards):
            raise ValueError(
                f"replication {self.replication} outside "
                f"[1, {len(self.shards)}]")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")

    @classmethod
    def of(cls, n: int, *, replication: int = 1,
           vnodes: int = DEFAULT_VNODES,
           datasets: Sequence[str] = ()) -> "ClusterSpec":
        return cls(shards=tuple(f"shard-{i}" for i in range(n)),
                   replication=replication, vnodes=vnodes,
                   datasets=tuple(datasets))

    @property
    def dataset_keys(self) -> tuple[str, ...]:
        return self.datasets or _default_datasets()

    def ring(self) -> HashRing:
        return HashRing(self.shards, vnodes=self.vnodes)

    def assignment(self) -> dict[str, tuple[str, ...]]:
        """shard -> the datasets it must be able to answer for
        (primary or replica)."""
        ring = self.ring()
        owned: dict[str, list[str]] = {name: [] for name in self.shards}
        for key in self.dataset_keys:
            for shard in ring.owners(key, self.replication):
                owned[shard].append(key)
        return {name: tuple(sorted(keys))
                for name, keys in owned.items()}


def default_shard_factory(name: str,
                          owned: tuple[str, ...]) -> ShardService:
    """Inline-pool shard: right for in-process harnesses where process
    workers would fight over the same cores as the shard threads."""
    from ..service.pool import PoolConfig
    return ShardService(name, frozenset(owned),
                        pool_config=PoolConfig(size=2,
                                               isolation="inline"))


class ClusterThread:
    """Boot a spec fully in-process: N shard threads + a router thread.

    Context-manager.  On entry every shard binds an ephemeral port, then
    the router binds over the discovered addresses; ``router_port`` is
    what clients dial.  ``kill_shard`` stops one shard (its port goes
    dark — the transport failure the router's failover exists for);
    ``restart_shard`` rebuilds the same shard on the same port.

    With ``netchaos=True`` every router→shard hop runs through a
    :class:`~repro.resilience.netchaos.ChaosProxy` (one per shard,
    deterministically seeded from ``netchaos_seed`` and the shard index).
    The proxies start transparent; ``cluster.proxies[name].set_faults``
    is the live chaos lever — black-holing a proxy makes that shard's
    port a partition, which is a different failure than ``kill_shard``'s
    connection-refused.
    """

    def __init__(self, spec: ClusterSpec, *,
                 shard_factory: Callable[[str, tuple[str, ...]],
                                         ShardService] | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 router_kwargs: dict[str, Any] | None = None,
                 netchaos: bool = False, netchaos_seed: int = 0,
                 netchaos_faults: "NetFaultSpec | None" = None):
        self.spec = spec
        self.host = host
        self._want_port = port
        self.shard_factory = shard_factory or default_shard_factory
        self.router_kwargs = dict(router_kwargs or {})
        self.assignment = spec.assignment()
        self.netchaos = netchaos
        self.netchaos_seed = netchaos_seed
        self.netchaos_faults = netchaos_faults
        self.addresses: dict[str, ShardAddress] = {}
        self.shard_addresses: dict[str, ShardAddress] = {}
        self.proxies: dict[str, ChaosProxy] = {}
        self.shard_threads: dict[str, ServiceThread] = {}
        self.router: Router | None = None
        self.router_thread: ServiceThread | None = None
        self.router_port: int | None = None

    def __enter__(self) -> "ClusterThread":
        try:
            for i, name in enumerate(self.spec.shards):
                service = self.shard_factory(name, self.assignment[name])
                thread = ServiceThread(service, host=self.host, port=0)
                thread.__enter__()
                self.shard_threads[name] = thread
                direct = ShardAddress(name, thread.host, thread.port)
                self.shard_addresses[name] = direct
                if self.netchaos:
                    proxy = ChaosProxy(
                        direct.host, direct.port,
                        faults=self.netchaos_faults,
                        seed=self.netchaos_seed * 1000 + i,
                        host=self.host, name=name)
                    proxy.start()
                    self.proxies[name] = proxy
                    self.addresses[name] = ShardAddress(
                        name, proxy.host, proxy.port)
                else:
                    self.addresses[name] = direct
            self.router = Router(
                list(self.addresses.values()),
                replication=self.spec.replication,
                vnodes=self.spec.vnodes, **self.router_kwargs)
            self.router_thread = ServiceThread(
                self.router, host=self.host, port=self._want_port)
            self.router_thread.__enter__()
            self.router_port = self.router_thread.port
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self.router_thread is not None:
            self.router_thread.__exit__(*exc)
            self.router_thread = None
        for proxy in self.proxies.values():
            proxy.stop()
        self.proxies.clear()
        for thread in self.shard_threads.values():
            thread.__exit__(*exc)
        self.shard_threads.clear()

    # -- failing a shard by hand ---------------------------------------------

    def kill_shard(self, name: str) -> ShardAddress:
        """Stop one shard's thread; its port stops answering."""
        thread = self.shard_threads.pop(name)
        thread.__exit__(None, None, None)
        return self.shard_addresses.get(name) or self.addresses[name]

    def restart_shard(self, name: str) -> ShardAddress:
        """Rebuild a killed shard on its original (direct) port."""
        if name in self.shard_threads:
            raise ValueError(f"shard {name} is already running")
        addr = self.shard_addresses.get(name) or self.addresses[name]
        service = self.shard_factory(name, self.assignment[name])
        thread = ServiceThread(service, host=addr.host, port=addr.port)
        thread.__enter__()
        self.shard_threads[name] = thread
        return addr


class ShardProcess:
    """One shard as a child process (``python -m repro cluster shard``).

    The child prints a single ready line ``{"shard":..., "host":...,
    "port":...}`` on stdout once bound; construction blocks on it.
    """

    def __init__(self, name: str, datasets: Sequence[str], *,
                 host: str = "127.0.0.1", isolation: str = "inline"):
        self.name = name
        cmd = [sys.executable, "-m", "repro", "cluster", "shard",
               "--name", name, "--host", host, "--port", "0",
               "--isolation", isolation]
        if datasets:
            cmd += ["--datasets", ",".join(datasets)]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=10)
            self.proc.stdout.close()
            raise RuntimeError(
                f"shard {name} exited before announcing readiness "
                f"(rc={self.proc.returncode})")
        ready = json.loads(line)
        self.address = ShardAddress(name, ready["host"], ready["port"])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


class ClusterProcesses:
    """Boot a spec with real shard processes and an in-thread router."""

    def __init__(self, spec: ClusterSpec, *, host: str = "127.0.0.1",
                 port: int = 0, isolation: str = "inline",
                 router_kwargs: dict[str, Any] | None = None):
        self.spec = spec
        self.host = host
        self._want_port = port
        self.isolation = isolation
        self.router_kwargs = dict(router_kwargs or {})
        self.assignment = spec.assignment()
        self.shards: dict[str, ShardProcess] = {}
        self.router: Router | None = None
        self.router_thread: ServiceThread | None = None
        self.router_port: int | None = None

    def __enter__(self) -> "ClusterProcesses":
        try:
            for name in self.spec.shards:
                self.shards[name] = ShardProcess(
                    name, self.assignment[name], host=self.host,
                    isolation=self.isolation)
            self.router = Router(
                [p.address for p in self.shards.values()],
                replication=self.spec.replication,
                vnodes=self.spec.vnodes, **self.router_kwargs)
            self.router_thread = ServiceThread(
                self.router, host=self.host, port=self._want_port)
            self.router_thread.__enter__()
            self.router_port = self.router_thread.port
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self.router_thread is not None:
            self.router_thread.__exit__(*exc)
            self.router_thread = None
        for proc in self.shards.values():
            proc.stop()
        self.shards.clear()
