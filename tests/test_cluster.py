"""Tests for the sharded cluster: ring determinism and movement bounds,
replica health tracking, shard ownership enforcement, router
scatter-gather with partial results, replica failover end to end, and
router metrics label shapes."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.cluster import (
    ClusterSpec,
    ClusterThread,
    HashRing,
    ReliabilityConfig,
    ReplicaTracker,
    ShardService,
    cell_routing_key,
    plan_rebalance,
    stable_hash,
    synthetic_keys,
)
from repro.core.errors import RemoteError, WrongShard
from repro.service import PoolConfig, ServiceClient
from repro.service.protocol import Request

DATASETS = ("twitter", "knowledge", "watson", "roadnet", "ldbc")


# -- consistent-hash ring ----------------------------------------------------

class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s2", "s0", "s1"])    # order must not matter
        keys = synthetic_keys(500)
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]
        assert stable_hash("ldbc") == stable_hash("ldbc")

    def test_owners_distinct_and_clamped(self):
        ring = HashRing(["s0", "s1", "s2"])
        owners = ring.owners("ldbc", 2)
        assert len(owners) == 2
        assert len(set(owners)) == 2
        assert owners[0] == ring.owner("ldbc")
        # k beyond the shard count degrades, never fails
        assert len(ring.owners("ldbc", 99)) == 3

    def test_resize_moves_about_one_nth(self):
        keys = synthetic_keys(2000)
        before = HashRing([f"s{i}" for i in range(4)])
        plan = plan_rebalance(before, before.with_node("s4"), keys)
        # ideal is 1/5 = 20%; a healthy vnode ring lands near it, and
        # nowhere near the ~80% a naive hash%N reshuffle would cost
        assert 0.05 < plan.fraction_moved < 0.45, plan.summary()
        # on a join, every moved key moves TO the new shard
        assert all(new == "s4" for _, new in plan.moved.values())

    def test_removal_moves_only_the_lost_shards_keys(self):
        keys = synthetic_keys(2000)
        before = HashRing([f"s{i}" for i in range(4)])
        plan = plan_rebalance(before, before.without_node("s2"), keys)
        assert all(old == "s2" for old, _ in plan.moved.values())
        owned_by_s2 = sum(1 for k in keys if before.owner(k) == "s2")
        assert len(plan.moved) == owned_by_s2

    def test_plan_per_shard_is_consistent(self):
        keys = synthetic_keys(1000)
        before = HashRing(["s0", "s1"])
        plan = plan_rebalance(before, before.with_node("s2"), keys)
        per = plan.per_shard()
        assert sum(c["gained"] for c in per.values()) == len(plan.moved)
        assert sum(c["lost"] for c in per.values()) == len(plan.moved)
        assert plan.summary()["fraction_moved"] == round(
            plan.fraction_moved, 4)

    def test_cell_routing_key_extracts_dataset(self):
        assert cell_routing_key("BFS:ldbc:s0.05:r0:test:cpu") == "ldbc"
        assert cell_routing_key("plain-key") == "plain-key"

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["s0"], vnodes=0)


# -- replica tracker ---------------------------------------------------------

class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestReplicaTracker:
    def test_ejection_and_readmission(self):
        t = ReplicaTracker(["a", "b"], failure_threshold=2)
        t["a"].record_failure()
        assert t["a"].healthy               # one strike is not ejection
        t["a"].record_failure()
        assert not t["a"].healthy
        assert t.down_shards() == ("a",)
        assert t.healthy_shards() == ("b",)
        t["a"].record_success()
        assert t["a"].healthy
        snap = t.snapshot()["a"]
        assert snap["ejections"] == 1
        assert snap["readmissions"] == 1
        # the circuit view is the same machine
        assert t["a"].breaker_dict()["transitions"] == {
            "open": 1, "closed": 1}

    def test_success_resets_consecutive_failures(self):
        t = ReplicaTracker(["a"], failure_threshold=2)
        t["a"].record_failure()
        t["a"].record_success()
        t["a"].record_failure()
        assert t["a"].healthy

    def test_order_prefers_healthy_keeps_down_as_last_resort(self):
        t = ReplicaTracker(["a", "b", "c"], failure_threshold=1)
        t["b"].record_failure()
        assert t.order(("a", "b", "c")) == ("a", "c", "b")
        # down shards are degraded, never dropped
        t["a"].record_failure()
        t["c"].record_failure()
        assert t.order(("a", "b")) == ("a", "b")

    def test_probe_is_due_at_the_base_timeout_whatever_the_backoff(self):
        clock = _Clock()
        t = ReplicaTracker(["a", "b"], failure_threshold=1,
                           reset_timeout_s=1.0, clock=clock)
        a = t["a"]
        assert not t["b"].allow_probe()     # closed shards cost no probes
        a.record_failure()
        assert not a.allow_probe()          # not due yet
        for n in range(1, 4):               # three failed probes
            clock.t += 1.0
            assert a.allow_probe()          # due: takes the trial
            assert not a.allow_probe()      # one in flight at a time
            assert not a.allow()            # ...clients included
            a.record_failure("refused")
            assert a.as_dict()["probes"] == n
        # client traffic now waits the backed-off 8 s; the prober still 1 s
        clock.t += 1.0
        assert not a.allow()
        assert a.allow_probe()
        a.record_success("probe")
        assert a.healthy and a.allow()
        assert a.breaker_dict()["reset_timeout_s"] == 1.0

    def test_added_shard_gets_the_same_machine(self):
        t = ReplicaTracker(["a"], failure_threshold=1)
        t.add_shard("b")
        t.add_shard("a")                    # idempotent: state kept
        t["b"].record_failure()
        assert t.down_shards() == ("b",)


# -- cluster spec ------------------------------------------------------------

class TestClusterSpec:
    def test_assignment_covers_every_dataset_k_times(self):
        spec = ClusterSpec.of(4, replication=2, datasets=DATASETS)
        assignment = spec.assignment()
        coverage = {d: sum(1 for owned in assignment.values()
                           if d in owned) for d in DATASETS}
        assert all(n == 2 for n in coverage.values()), coverage
        # primaries are one of the k owners
        ring = spec.ring()
        for d, primary in spec.primaries().items():
            assert primary in ring.owners(d, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec.of(2, replication=3)
        with pytest.raises(ValueError):
            ClusterSpec(shards=())
        with pytest.raises(ValueError):
            ClusterSpec(shards=("a", "a"))


# -- shard ownership ---------------------------------------------------------

def _dispatch(service: ShardService, op: str, **params):
    async def main():
        try:
            return await service._dispatch(
                Request(op=op, id="t1", params=params))
        finally:
            service.pool.shutdown()
    return asyncio.run(main())


class TestShardService:
    def _shard(self, owned=("roadnet",)) -> ShardService:
        return ShardService(
            "shard-x", frozenset(owned),
            pool_config=PoolConfig(size=1, isolation="inline"))

    def test_unowned_dataset_raises_wrong_shard(self):
        with pytest.raises(WrongShard) as exc:
            _dispatch(self._shard(), "run", workload="BFS",
                      dataset="ldbc", scale=0.02, machine="test")
        assert exc.value.kind == "wrong-shard"
        assert "ldbc" in str(exc.value)

    def test_unknown_dataset_stays_bad_request(self):
        from repro.core.errors import BadRequest
        with pytest.raises(BadRequest):
            _dispatch(self._shard(), "run", workload="BFS",
                      dataset="no-such-dataset")

    def test_datasets_filtered_to_owned_slice(self):
        rows = _dispatch(self._shard(("roadnet", "ldbc")), "datasets")
        assert {r["key"] for r in rows} == {"roadnet", "ldbc"}

    def test_shard_info_and_stats_carry_identity(self):
        shard = self._shard(("roadnet",))
        info = _dispatch(shard, "shard_info")
        assert info["shard"] == "shard-x"
        assert info["datasets"] == ["roadnet"]
        stats = shard.stats()
        assert stats["shard"] == "shard-x"
        assert stats["datasets"] == ["roadnet"]

    def test_owns_everything_by_default(self):
        shard = ShardService(
            "solo", pool_config=PoolConfig(size=1, isolation="inline"))
        try:
            assert shard.owns("ldbc") and shard.owns("twitter")
            assert shard.shard_info()["datasets"] is None
        finally:
            shard.pool.shutdown()


# -- live cluster ------------------------------------------------------------

def _cluster(n: int, replication: int = 1, **router_kwargs):
    spec = ClusterSpec.of(n, replication=replication, datasets=DATASETS)
    # two strikes eject (the default is three): these tests kill a shard
    # and expect its health to have flipped two failed dials later
    defaults = dict(attempt_timeout_s=30, fanout_timeout_s=10,
                    probe_interval_s=0.2,
                    reliability=ReliabilityConfig(
                        breaker_failure_threshold=2))
    defaults.update(router_kwargs)
    return ClusterThread(spec, router_kwargs=defaults)


class TestLiveCluster:
    def test_routing_and_transparent_protocol(self):
        with _cluster(2) as ct:
            with ServiceClient(port=ct.router_port) as client:
                pong = client.ping()
                assert pong["role"] == "router"
                out = client.run("BFS", "roadnet", scale=0.02,
                                 machine="test")
                assert out["outputs"]["visited"] > 0
                # the answering shard is the ring owner
                assert out["shard"] == ct.spec.ring().owner("roadnet")
                # scatter-gather union serves the whole registry
                keys = {d["key"] for d in client.datasets()}
                assert keys == set(DATASETS)

    def test_router_metrics_label_shapes(self):
        with _cluster(2) as ct:
            with ServiceClient(port=ct.router_port) as client:
                client.run("BFS", "roadnet", scale=0.02, machine="test")
                client.datasets()
                stats = client.stats()
        metrics = stats["metrics"]
        route = metrics["cluster_route_total"]["samples"]
        assert route, "route counter never incremented"
        for sample in route:
            assert set(sample["labels"]) == {"shard", "outcome"}
            assert sample["labels"]["shard"] in ("shard-0", "shard-1")
            assert sample["labels"]["outcome"] in (
                "ok", "failover", "error", "unreachable")
        fan = metrics["cluster_fanout_latency_ms"]["samples"]
        assert {s["labels"]["op"] for s in fan} >= {"datasets", "stats"}
        # the stats op itself is still in flight when its own snapshot
        # is taken, so it cannot appear yet — run/datasets must
        lat = metrics["router_request_latency_ms"]["samples"]
        assert {s["labels"]["op"] for s in lat} >= {"run", "datasets"}
        healthy = metrics["cluster_shards_healthy"]["samples"]
        assert healthy[0]["value"] == 2.0

    def test_typed_shard_errors_forward_without_failover(self):
        with _cluster(2) as ct:
            with ServiceClient(port=ct.router_port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.run("NoSuchWorkload", "roadnet", scale=0.02)
                assert exc.value.kind == "bad-request"
                stats = client.stats()
        outcomes = {s["labels"]["outcome"]
                    for s in stats["metrics"]["cluster_route_total"]
                    ["samples"]}
        # a deterministic error is forwarded, not retried on replicas
        assert "failover" not in outcomes

    def test_every_exchange_site_names_the_shard_of_a_typed_error(self):
        """Keyed read, write (primary and replica fan-out), scatter and
        DSL query classify a shard's answer in one place: a typed shard
        error always comes back naming the shard it came from."""
        from repro.cluster.topology import default_shard_factory
        from repro.core.errors import MutationError, QueryError
        from repro.service import GraphService

        def factory(name, owned):
            if name == "shard-1":
                # a plain service: its typed answer to the scattered
                # shard_info is "served by the cluster layer"
                return GraphService(pool_config=PoolConfig(
                    size=2, isolation="inline"))
            return default_shard_factory(name, owned)

        spec = ClusterSpec.of(2, replication=2, datasets=DATASETS)
        primary, replica = spec.ring().owners("roadnet", 2)
        assert (primary, replica) == ("shard-0", "shard-1")
        vertex = [{"op": "add_vertex", "vid": 900001}]
        with ClusterThread(spec, shard_factory=factory) as ct:
            with ServiceClient(port=ct.router_port) as client:
                with pytest.raises(RemoteError) as exc:            # read
                    client.run("NoSuchWorkload", "roadnet", scale=0.02)
                assert exc.value.shard == primary
                info = client.request("shard_info")             # scatter
                assert info["missing"] == [replica]
                assert info["errors"][replica]["shard"] == replica
                assert info["errors"][replica]["kind"] == "bad-request"
                with pytest.raises(QueryError) as exc:          # query
                    client.query_lang("from twitter scale=0.02 "
                                      "| bfs root=999999999 | count")
                assert exc.value.shard in spec.shards
                # replica write: only the replica already holds the
                # vertex, so only it rejects the strict add
                ct.shard_threads[replica].service.dynamic.mutate(
                    {"dataset": "roadnet", "scale": 0.02, "ops": vertex})
                out = client.mutate("roadnet", vertex, scale=0.02,
                                    strict=True)
                assert out["shard"] == primary
                assert out["replica_failures"] == [replica]
                with pytest.raises(MutationError) as exc:  # primary write
                    client.mutate("roadnet", vertex, scale=0.02,
                                  strict=True)
                assert exc.value.shard == primary
                route = client.stats()["metrics"]["cluster_route_total"]
        errors = {s["labels"]["shard"]: s["value"]
                  for s in route["samples"]
                  if s["labels"]["outcome"] == "error"}
        # replica: shard_info + the strict add (the second strict add
        # stops at the primary); primary: run + that second add (the
        # query is twitter's, whichever shard owns it)
        assert errors[replica] >= 2 and errors[primary] >= 2

    def test_scatter_gather_partial_under_dead_shard(self):
        with _cluster(2) as ct:
            victim = ct.spec.ring().owner("roadnet")
            survivor = next(s for s in ct.spec.shards if s != victim)
            ct.kill_shard(victim)
            with ServiceClient(port=ct.router_port) as client:
                stats = client.stats()
                assert stats["partial"] is True
                assert stats["missing"] == [victim]
                assert survivor in stats["shards"]
                # a sole-owner dataset rehydrates as the typed
                # ShardUnavailable on the client side, not a hang and
                # not a generic RemoteError
                from repro.core.errors import ShardUnavailable
                with pytest.raises(ShardUnavailable) as exc:
                    client.run("BFS", "roadnet", scale=0.02,
                               machine="test")
                assert exc.value.kind == "unavailable"
                assert "roadnet" in str(exc.value)
                # health flips once consecutive failures accumulate
                health = client.health()
                assert health["shards"][victim] is False
                assert health["shards"][survivor] is True

    def test_batch_scatters_and_reports_partial(self):
        with _cluster(2) as ct:
            with ServiceClient(port=ct.router_port) as client:
                out = client.request("batch", entries=[
                    {"op": "run",
                     "params": {"workload": "BFS", "dataset": "roadnet",
                                "scale": 0.02, "machine": "test"}},
                    {"op": "run",
                     "params": {"workload": "CComp", "dataset": "ldbc",
                                "scale": 0.02, "machine": "test"}},
                    {"op": "run",
                     "params": {"workload": "BFS",
                                "dataset": "no-such"}},
                ])
        assert out["entries"] == 3
        assert out["failed"] == 1
        assert out["partial"] is True
        assert [e["ok"] for e in out["results"]] == [True, True, False]
        assert out["results"][2]["error"]["kind"] == "bad-request"
        shards = {e["result"]["shard"] for e in out["results"][:2]}
        ring = ct.spec.ring()
        assert shards == {ring.owner("roadnet"), ring.owner("ldbc")}

    def test_failover_and_readmission_e2e(self):
        """The acceptance property: 4 shards at replication 2, one
        primary killed mid-load — the load run's error rate stays under
        5%, every dataset still answers through the router, and the CLI
        query path agrees."""
        from repro.cli import main as cli_main
        from repro.service import LoadGenerator, schedule, workload_mix

        with _cluster(4, replication=2) as ct:
            victim = ct.spec.ring().owner("roadnet")
            mix = workload_mix(("BFS", "CComp"), DATASETS, scale=0.02,
                               machine="test")
            plan = schedule(mix, 150, seed=0)
            gen = LoadGenerator("127.0.0.1", ct.router_port,
                                concurrency=4)
            killer = threading.Timer(0.25,
                                     lambda: ct.kill_shard(victim))
            killer.start()
            report = gen.run(plan)
            killer.join()
            assert report.failed / report.requests < 0.05, (
                report.failures_by_kind)
            with ServiceClient(port=ct.router_port) as client:
                for dataset in DATASETS:
                    out = client.run("BFS", dataset, scale=0.02,
                                     machine="test")
                    assert out["shard"] != victim
                assert client.health()["shards"][victim] is False
                # the replica that covered for the primary shows up in
                # the route counter under the failover outcome
                stats = client.stats()
            samples = stats["metrics"]["cluster_route_total"]["samples"]
            outcomes = {s["labels"]["outcome"] for s in samples}
            assert "unreachable" in outcomes
            assert cli_main(["cluster", "query", "run", "BFS",
                             "--dataset", "roadnet", "--scale", "0.02",
                             "--machine", "test",
                             "--port", str(ct.router_port)]) == 0
            # restart: the probe loop readmits the shard
            ct.restart_shard(victim)
            deadline = time.monotonic() + 10
            with ServiceClient(port=ct.router_port) as client:
                while time.monotonic() < deadline:
                    if client.health()["shards"][victim]:
                        break
                    time.sleep(0.1)
                assert client.health()["shards"][victim] is True


# -- load generator skew -----------------------------------------------------

class TestDatasetSkew:
    def test_uniform_stream_is_backward_compatible(self):
        from repro.service import schedule, workload_mix
        mix = workload_mix(("BFS",), DATASETS, scale=0.02)
        assert schedule(mix, 50, seed=7) == schedule(mix, 50, seed=7,
                                                     dataset_skew=0.0)

    def test_skewed_plan_is_deterministic_and_more_imbalanced(self):
        from repro.service import schedule, workload_mix
        from repro.service.loadgen import plan_imbalance
        mix = workload_mix(("BFS",), DATASETS, scale=0.02)
        a = schedule(mix, 400, seed=3, dataset_skew=1.5)
        b = schedule(mix, 400, seed=3, dataset_skew=1.5)
        assert a == b
        uniform = schedule(mix, 400, seed=3)
        imb = plan_imbalance(a, lambda d: d)
        assert imb > plan_imbalance(uniform, lambda d: d)
        assert imb > 1.5      # zipf 1.5 over 5 datasets is visibly hot
        # per-shard imbalance through the ring is computable too
        ring = HashRing(["s0", "s1"])
        assert plan_imbalance(a, ring.owner) >= 1.0


# -- scaling smoke (the full benchmark lives in benchmarks/) -----------------

@pytest.mark.slow
class TestScalingSmoke:
    def test_two_shards_recover_hit_rate_one_shard_cannot(self):
        """Miniature of bench_cluster_scaling: a catalog that overflows
        one shard's bounded row cache but fits two shards' slices —
        checked on hit rates (the mechanism), not wall-clock ratios."""
        from repro.service import (
            CacheTiers,
            LoadGenerator,
            workload_mix,
        )

        cells = workload_mix(("BFS",), DATASETS, scale=0.02,
                             machine="test")
        spec2 = ClusterSpec.of(2, datasets=DATASETS)
        capacity = max(len(owned)
                       for owned in spec2.assignment().values())
        assert capacity < len(cells)
        plan = [q for _ in range(4) for q in cells]

        def hit_rate(n: int) -> float:
            def factory(name, owned):
                service = ShardService(
                    name, frozenset(owned),
                    pool_config=PoolConfig(size=1, isolation="inline"),
                    caches=CacheTiers.build(row_capacity=capacity))
                service.pool.memoize = False    # see the benchmark
                return service

            spec = ClusterSpec.of(n, datasets=DATASETS)
            with ClusterThread(spec, shard_factory=factory) as ct:
                gen = LoadGenerator("127.0.0.1", ct.router_port,
                                    concurrency=2)
                gen.run(plan[:len(cells)])          # warm pass
                report = gen.run(plan)
            assert report.failed == 0, report.failures_by_kind
            return report.served.get("cache", 0) / len(plan)

        assert hit_rate(1) <= 0.25
        assert hit_rate(2) >= 0.75

    def test_process_backed_single_shard_cluster(self):
        from repro.cluster import ClusterProcesses

        spec = ClusterSpec.of(1, datasets=DATASETS)
        with ClusterProcesses(spec) as cp:
            with ServiceClient(port=cp.router_port) as client:
                out = client.run("CComp", "roadnet", scale=0.02,
                                 machine="test")
                assert out["shard"] == "shard-0"
                assert client.health()["ok"] is True
