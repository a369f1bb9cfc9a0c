"""QueryEngine: the per-service facade over parse -> plan -> execute.

Three version-keyed caches, all built on the service
:class:`~repro.service.cache.LRUCache` so their hit/miss/invalidation
counters surface through the standard stats plumbing:

* **plan cache** — content-addressed like the TraceStore: the key is
  the sha-256 of the *canonical* query text (``unparse(parse(q))``, so
  whitespace variants collide onto one entry) plus the planner version.
  Entries are stored at the source graph's version — for a dynamic
  source that is the store head, so a committed mutation bumps the head
  and the next lookup is a counted *invalidation*, never a stale plan
  whose cost model lies about the graph;
* **graph cache** — materialized :class:`~repro.query.exec.GraphImage`
  per (dataset, scale, seed, version), with a per-image kernel memo so
  repeated queries over one graph pay for degrees/CC/coreness/triangles
  once — at most those four entries; BFS has a result per (root, depth)
  and runs per request, its exact repeats being the result cache's job;
* **result cache** — finished tables keyed by plan digest,
  version-keyed the same way.

Static sources pin version 0 (a generated graph never changes under a
fixed seed); dynamic sources resolve to the store head unless the query
pins ``version=N`` explicitly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..core.errors import BadRequest
from ..service.cache import LRUCache
from ..service.protocol import Hit
from .exec import GraphImage, execute_plan
from .parse import parse, unparse
from .plan import (
    PLANNER_VERSION,
    PhysicalPlan,
    SourceInfo,
    plan_pipeline,
    source_info,
)

#: Entries held by the plan, graph and result caches.
PLAN_CAPACITY, GRAPH_CAPACITY, RESULT_CAPACITY = 256, 8, 512


def _canon(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def plan_digest(canonical_query: str) -> str:
    """Content address of a plan: canonical text + planner version."""
    payload = _canon({"planner": PLANNER_VERSION, "q": canonical_query})
    return hashlib.sha256(payload.encode()).hexdigest()


class QueryEngine:
    """Parse, plan, and execute pipeline queries against one node's
    graphs (generated datasets + the dynamic engine's mutable stores).

    Thread-safe for the server's executor pool: the LRU caches lock
    internally; the per-image kernel memo is a plain dict whose worst
    concurrent outcome is a duplicated kernel run, never a wrong one.
    """

    def __init__(self, dynamic=None):
        self.dynamic = dynamic
        self.plans = LRUCache(PLAN_CAPACITY)
        self.graphs = LRUCache(GRAPH_CAPACITY)
        self.results = LRUCache(RESULT_CAPACITY)

    # -- resolution ----------------------------------------------------------

    def _store(self, source: SourceInfo):
        if self.dynamic is None:
            raise BadRequest(
                "dynamic-source queries need a dynamic engine on this "
                "node; drop version=/dynamic= or query a server")
        _, store, _ = self.dynamic._store_for(
            source.dataset, source.scale, source.seed)
        return store

    def _resolve_version(self, source: SourceInfo):
        """(version, token, store) — version 0 for static sources.
        ``token`` is what the three caches key validity on: the store's
        own token for a dynamic source, so neither a commit nor another
        store at the same version number can serve the old answer."""
        if not source.dynamic:
            return 0, 0, None
        store = self._store(source)
        version = store.head if source.version is None \
            else source.version
        return version, store.token(version), store

    def _plan(self, canonical: str, digest: str, version: int, token,
              store) -> tuple[PhysicalPlan, bool]:
        key = ("plan", digest)
        cached = self.plans.get(key, version=token)
        if cached is not None:
            return cached, True
        stats = None
        if store is not None:
            with store.snapshot(version) as snap:
                stats = (snap.n_vertices, snap.n_arcs)
        plan = plan_pipeline(parse(canonical), graph_stats=stats)
        self.plans.put(key, plan, version=token)
        return plan, False

    def _graph(self, source: SourceInfo, version: int, token, store
               ) -> tuple[GraphImage, dict]:
        key = ("graph", *source.identity())
        cached = self.graphs.get(key, version=token)
        if cached is not None:
            return cached
        if store is None:
            from ..datagen.registry import make
            spec = make(source.dataset, scale=source.scale,
                        seed=source.seed)
            image = GraphImage.from_spec(spec)
        else:
            with store.snapshot(version) as snap:
                image = GraphImage.from_snapshot(snap)
        value = (image, {})
        self.graphs.put(key, value, version=token)
        return value

    # -- wire ops ------------------------------------------------------------

    def query(self, params: dict[str, Any],
              pipeline=None) -> dict[str, Any]:
        """Serve one ``query`` request.  ``pipeline`` is the parse of
        ``q`` when the caller already has it (a shard parses the text to
        find its owner)."""
        if pipeline is None:
            pipeline = parse(params.get("q"))
        canonical = unparse(pipeline)
        digest = plan_digest(canonical)
        source = source_info(pipeline)
        version, token, store = self._resolve_version(source)
        plan, plan_cached = self._plan(canonical, digest, version, token,
                                       store)
        result_key = ("result", digest)
        hit = self.results.get(result_key, version=token)
        if hit is not None:
            return hit
        image, kernel_cache = self._graph(source, version, token, store)
        table = execute_plan(plan, image, kernel_cache=kernel_cache)
        response = {
            "table": table,
            "rows": len(table["rows"]),
            "plan": digest[:16],
            "version": version if source.dynamic else None,
            "canonical": canonical,
        }
        # the entry is the answer's hit form, served as that one object
        # (and so encoded once) while the token holds
        self.results.put(
            result_key, Hit(response, plan_cached=True, result_cached=True,
                            served="result-cache"), version=token)
        return {**response, "plan_cached": plan_cached,
                "result_cached": False, "served": "executed"}

    def explain(self, params: dict[str, Any],
                pipeline=None) -> dict[str, Any]:
        """Serve one ``explain`` request: the physical plan + cost
        estimates.  Deterministic for a fixed plan-cache state — no
        timings, no live measurements beyond the (versioned) graph shape
        the cost model reads."""
        if pipeline is None:
            pipeline = parse(params.get("q"))
        canonical = unparse(pipeline)
        digest = plan_digest(canonical)
        source = source_info(pipeline)
        version, token, store = self._resolve_version(source)
        plan, plan_cached = self._plan(canonical, digest, version, token,
                                       store)
        return {
            "plan": plan.to_dict(),
            "digest": digest[:16],
            "canonical": canonical,
            "version": version if source.dynamic else None,
            "plan_cached": plan_cached,
        }

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {"plan_cache": self.plans.stats.as_dict(),
                "graph_cache": self.graphs.stats.as_dict(),
                "result_cache": self.results.stats.as_dict()}
