"""Dynamic-graph engine: the serving facade over snapshot stores and
incremental kernels.

One engine lives inside each :class:`~repro.service.server.GraphService`
and owns every mutable graph the node serves.  A dynamic graph's
identity is ``(dataset, scale, seed)`` — the same identity the static
cell path uses — and its *base* (version 0) is the deterministic
generated dataset, so every replica that applies the same mutation
stream holds byte-identical state at every version.

Queries are answered from maintained incremental kernels behind a
**versioned cache**: an entry carries the snapshot version it was
computed at and hits only while the store head still is that version —
one commit anywhere invalidates exactly the affected graph's entries
(a version-mismatch read, not a flush).  Every response carries its
``version``, so a stale copy served by an upstream degraded path is
disclosed, never silent.
"""

from __future__ import annotations

import threading
from typing import Any

from ..core.errors import BadRequest
from ..service.cache import LRUCache
from ..service.protocol import OPS, Hit, identity
from .incremental import IncrementalBFS, IncrementalCComp
from .ops import MutOp, parse_ops, single_op
from .store import SnapshotStore

#: The workloads with incremental implementations.
DYN_WORKLOADS = ("BFS", "CComp")

#: Maintained kernels, and cached responses, held per engine.
CACHE_CAPACITY = 256

#: The scale of a dynamic identity that names none (every dynamic op's
#: row agrees).
_SCALE = OPS["dyn_query"].scale


def dynamic_key(dataset: str, scale: float, seed: int) -> tuple:
    """Identity of one mutable graph (mirrors ``cache.dataset_key``)."""
    return ("dynamic", dataset, float(scale), int(seed))


class DynamicEngine:
    """Per-node registry of mutable graphs + their hot query results."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stores: dict[tuple, SnapshotStore] = {}
        # one lock per store serializes kernel refreshes without
        # stalling unrelated graphs
        self._store_locks: dict[tuple, threading.Lock] = {}
        # maintained kernels, bounded like the responses they produce: a
        # client sweeping BFS roots must not pin one O(n) map per root
        self._kernels = LRUCache(CACHE_CAPACITY)
        self.cache = LRUCache(CACHE_CAPACITY)

    def _store_for(self, dataset: str, scale: float, seed: int
                   ) -> tuple[tuple, SnapshotStore, threading.Lock]:
        key = dynamic_key(dataset, scale, seed)
        with self._lock:
            store = self._stores.get(key)
            lock = self._store_locks.setdefault(key, threading.Lock())
        if store is not None:
            return key, store, lock
        # generate the base outside the engine lock (dataset generation
        # is the expensive step); first committer wins
        from ..datagen.registry import make
        spec = make(dataset, scale=scale, seed=seed)
        built = SnapshotStore.from_spec(spec)
        with self._lock:
            store = self._stores.setdefault(key, built)
        return key, store, lock

    # -- writes --------------------------------------------------------------

    def mutate(self, params: dict[str, Any]) -> dict[str, Any]:
        """Apply a batched ``mutate`` request; returns the new version."""
        return self._commit(params, parse_ops(params.get("ops")))

    def mutate_one(self, kind: str,
                   params: dict[str, Any]) -> dict[str, Any]:
        """Apply a flat single-op write request (``add_edge`` & co)."""
        return self._commit(params, [single_op(kind, params)])

    def _commit(self, params: dict[str, Any],
                ops: list[MutOp]) -> dict[str, Any]:
        dataset, scale, seed = identity(params, _SCALE)
        _, store, _ = self._store_for(dataset, scale, seed)
        strict = bool(params.get("strict", False))
        version, delta, skipped = store.commit(ops, strict=strict)
        return {"dataset": dataset, "scale": scale, "seed": seed,
                "version": version, "served": "mutate",
                "applied": len(ops) - skipped, "skipped": skipped,
                "delta": {"added_vertices": len(delta.added_vertices),
                          "removed_vertices":
                              len(delta.removed_vertices),
                          "added_arcs": len(delta.added_arcs),
                          "removed_arcs": len(delta.removed_arcs),
                          "props": len(delta.props)},
                "n_vertices": store.n_vertices,
                "n_arcs": store.n_arcs}

    # -- reads ---------------------------------------------------------------

    def query(self, params: dict[str, Any]) -> dict[str, Any]:
        """Answer a ``dyn_query`` from the maintained kernel, behind the
        versioned cache."""
        workload = params.get("workload")
        if workload not in DYN_WORKLOADS:
            raise BadRequest(
                f"dynamic workload must be one of "
                f"{', '.join(DYN_WORKLOADS)}, got {workload!r}")
        try:
            root = int(params.get("root", 0))
        except (TypeError, ValueError) as e:
            raise BadRequest(f"bad root: {e}") from None
        dataset, scale, seed = identity(params, _SCALE)
        key, store, lock = self._store_for(dataset, scale, seed)
        kernel_key = key + (workload, root)
        with lock:
            cached = self.cache.get(kernel_key, version=store.token())
            if cached is not None:
                return cached
            kernel = self._kernels.get(kernel_key)
            if kernel is None:
                kernel = IncrementalBFS(store, root) \
                    if workload == "BFS" else IncrementalCComp(store)
                self._kernels.put(kernel_key, kernel)
            served = kernel.refresh()
            response = {"workload": workload, "dataset": dataset,
                        "scale": scale, "seed": seed,
                        "version": kernel.version,
                        "outputs": kernel.outputs(),
                        "kernel": kernel.stats.as_dict(),
                        "served": served}
            # the entry is the answer's hit form, served as that one
            # object (and so encoded once) until the token moves on
            self.cache.put(kernel_key, Hit(response, served="cache"),
                           version=store.token(kernel.version))
            return response

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            stores = {"/".join(str(p) for p in key[1:]): store.info()
                      for key, store in self._stores.items()}
        return {"graphs": len(stores), "stores": stores,
                "cache": self.cache.stats.as_dict()}
