"""Wire-level tests for streaming mutations: mutate/dyn_query over the
service protocol, versioned cache invalidation, write routing through
the cluster router (primary-only, replica fan-out disclosure), and the
staleness contract under chaos — a degraded response never claims a
version newer than what it actually answers at."""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterSpec, ClusterThread
from repro.core.errors import MutationError, RemoteError, ShardUnavailable
from repro.datagen.registry import make
from repro.dynamic import DynamicEngine, SnapshotStore, churn_ops, parse_ops
from repro.service import (
    GraphService,
    PoolConfig,
    ServiceClient,
    ServiceThread,
)
from repro.workloads import run

from tests.oracles import materialize

DATASETS = ("twitter", "knowledge", "watson", "roadnet", "ldbc")


def _dyn_query(client: ServiceClient, workload: str, dataset: str,
               **params):
    return client.request("dyn_query", workload=workload, dataset=dataset,
                          **params)


def _service(**kwargs) -> GraphService:
    defaults = dict(pool_config=PoolConfig(size=2, isolation="inline"))
    defaults.update(kwargs)
    return GraphService(**defaults)


def _cluster(n: int, replication: int = 1, **router_kwargs):
    spec = ClusterSpec.of(n, replication=replication, datasets=DATASETS)
    defaults = dict(attempt_timeout_s=30, fanout_timeout_s=10,
                    probe_interval_s=0.2)
    defaults.update(router_kwargs)
    return ClusterThread(spec, router_kwargs=defaults)


# -- single service ----------------------------------------------------------

class TestServiceMutations:
    def test_mutate_then_query_sees_new_version(self):
        with ServiceThread(_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                first = _dyn_query(client, "BFS", "ldbc", scale=0.05)
                assert first["version"] == 0
                assert first["served"] == "recompute"
                out = client.mutate("ldbc", [
                    {"op": "add_edge", "src": 1, "dst": 2}], scale=0.05)
                assert out["version"] == 1 and out["applied"] == 1
                second = _dyn_query(client, "BFS", "ldbc", scale=0.05)
                assert second["version"] == 1
                assert second["served"] in ("incremental", "recompute")

    def test_versioned_cache_hit_and_invalidation(self):
        with ServiceThread(_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                _dyn_query(client, "CComp", "ldbc", scale=0.05)
                again = _dyn_query(client, "CComp", "ldbc", scale=0.05)
                assert again["served"] == "cache"
                client.mutate("ldbc", [
                    {"op": "add_vertex", "vid": 10_000}], scale=0.05)
                after = _dyn_query(client, "CComp", "ldbc", scale=0.05)
                # the write invalidated the cached answer: fresh kernel
                # pass at the new version, counted as an invalidation
                assert after["served"] != "cache"
                assert after["version"] == 1
                dyn = client.stats()["dynamic"]
                assert dyn["cache"]["invalidations"] >= 1

    def test_flat_ops_and_strict_mode(self):
        with ServiceThread(_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                out = client.request("add_edge", dataset="ldbc",
                                     scale=0.05, src=1, dst=2)
                assert out["version"] == 1
                # strict: deleting an edge that is not there comes back
                # as the rehydrated typed error, not a generic remote
                with pytest.raises(MutationError) as exc:
                    client.request("del_edge", dataset="ldbc",
                                   scale=0.05, src=500, dst=501,
                                   strict=True)
                assert exc.value.kind == "mutation"
                # lenient: same op is a skipped no-op, version burned
                out = client.request("del_edge", dataset="ldbc",
                                     scale=0.05, src=500, dst=501)
                assert out["skipped"] == 1

    def test_bad_requests_are_typed(self):
        with ServiceThread(_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.mutate("nope", [
                        {"op": "add_edge", "src": 0, "dst": 1}])
                assert exc.value.kind == "bad-request"
                with pytest.raises(RemoteError) as exc:
                    client.mutate("ldbc", [{"op": "frobnicate"}])
                assert exc.value.kind == "bad-request"
                with pytest.raises(RemoteError) as exc:
                    _dyn_query(client, "NoSuchKernel", "ldbc")
                assert exc.value.kind == "bad-request"

    def test_reader_pinned_version_is_stable_while_writer_advances(self):
        # a cached dyn_query response is a pinned logical read: asking
        # again after k commits must either serve the *same* version
        # with identical outputs (stale cache disclosed by version) or
        # a strictly newer one — never a mix
        with ServiceThread(_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                base = _dyn_query(client, "BFS", "knowledge", scale=0.05)
                rng = random.Random(3)
                for _ in range(5):
                    client.mutate("knowledge",
                                  churn_ops(rng, 200, 4), scale=0.05)
                after = _dyn_query(client, "BFS", "knowledge", scale=0.05)
                assert after["version"] == 5 > base["version"]


class TestEngineKernelBound:
    def test_root_sweep_holds_at_most_capacity_kernels(self, monkeypatch):
        capacity = 4
        monkeypatch.setattr("repro.dynamic.engine.CACHE_CAPACITY",
                            capacity)
        engine = DynamicEngine()

        def ask(root):
            return engine.query({"workload": "BFS", "dataset": "ldbc",
                                 "scale": 0.03, "root": root})

        first = ask(0)
        for root in range(1, 2 * capacity):
            ask(root)
        assert len(engine._kernels) <= capacity
        # root 0's kernel and cached response were both evicted long
        # ago: asking again is a recompute with the same answer
        again = ask(0)
        assert again["served"] == "recompute"
        assert again["outputs"] == first["outputs"]
        assert again["version"] == first["version"]


# -- cluster routing ---------------------------------------------------------

class TestClusterWrites:
    def test_mutate_routes_to_owner_and_replicates(self):
        with _cluster(3, replication=2) as ct:
            with ServiceClient(port=ct.router_port) as client:
                out = client.mutate("roadnet", [
                    {"op": "add_edge", "src": 0, "dst": 5}], scale=0.02)
                assert out["version"] == 1
                # WrongShard never leaks: the router sent the write to
                # the ring owner, and fanned it to the backup replica
                owners = ct.spec.ring().owners("roadnet", 2)
                assert set(out["replicated"]) == set(owners[1:])
                assert out["replica_failures"] == []
                got = _dyn_query(client, "BFS", "roadnet", scale=0.02)
                assert got["version"] == 1

    def test_write_to_dead_primary_is_typed_not_forked(self):
        with _cluster(2, replication=2) as ct:
            victim = ct.spec.ring().owner("roadnet")
            ct.kill_shard(victim)
            with ServiceClient(port=ct.router_port) as client:
                # writes never fail over — a replica-applied mutation
                # would fork the version history
                with pytest.raises((ShardUnavailable, RemoteError)):
                    client.mutate("roadnet", [
                        {"op": "add_edge", "src": 0, "dst": 5}],
                        scale=0.02)


class TestStalenessContract:
    def test_degraded_read_never_claims_unserved_version(self):
        """Kill the owning shard mid-mutation-stream: every response
        the cluster still gives must carry a version <= the last acked
        commit, and its outputs must equal a client-side replay of the
        acked prefix at that version."""
        with _cluster(2, replication=1) as ct:
            dataset, scale, seed = "roadnet", 0.02, 0
            spec = make(dataset, scale=scale, seed=seed)
            mirror = SnapshotStore.from_spec(spec)
            rng = random.Random(11)
            batches = [churn_ops(rng, spec.n, 4) for _ in range(6)]
            acked = 0
            with ServiceClient(port=ct.router_port) as client:
                for batch in batches[:3]:
                    out = client.mutate(dataset, batch, scale=scale,
                                        seed=seed)
                    mirror.commit(parse_ops(batch))
                    acked = out["version"]
                    assert acked == mirror.head
                live = _dyn_query(client, "BFS", dataset, scale=scale,
                                  seed=seed)
                assert live["version"] == acked
                victim = ct.spec.ring().owner(dataset)
                ct.kill_shard(victim)
                # the stream keeps going; writes now fail, reads must
                # either fail typed or serve stale-but-disclosed
                for batch in batches[3:]:
                    with pytest.raises((ShardUnavailable, RemoteError)):
                        client.mutate(dataset, batch, scale=scale,
                                      seed=seed)
                got = _dyn_query(client, "BFS", dataset, scale=scale,
                                 seed=seed)
                # degraded serving: disclosed, and never newer than the
                # last acked commit
                assert got.get("degraded") is True
                assert got["served"] == "stale"
                assert got["version"] <= acked
                # outputs match a replay of the acked prefix at the
                # claimed version (mirror holds exactly that history)
                with mirror.snapshot(got["version"]) as snap:
                    g = materialize(snap)
                    want = run("BFS", g, root=0).outputs["levels"]
                wire_levels = {int(k): v
                               for k, v in got["outputs"]["levels"].items()}
                assert wire_levels == want
