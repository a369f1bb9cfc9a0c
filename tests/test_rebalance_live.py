"""Tests for hot-shard detection and live rebalance execution: replica-
aware movement bounds, shard admin ownership/handoff forwarding, cross-
replica version convergence, the hotspot detector, and an end-to-end
live migration onto a spare shard with continuous availability."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.cluster import (
    ClusterSpec,
    ClusterThread,
    HashRing,
    plan_rebalance,
    synthetic_keys,
)
from repro.core.errors import WrongShard
from repro.dynamic.ops import churn_ops
from repro.obs import MetricsRegistry
from repro.service import ServiceClient
from repro.tenancy import HotspotDetector, RebalanceExecutor

DATASETS = ("twitter", "knowledge", "watson", "roadnet", "ldbc")

# placements are a pure function of the names (SHA-1-based), so the
# fixtures below are stable: on the 2-shard ring, shard-0 is primary for
# knowledge/roadnet/ldbc and a spare-0 join relocates exactly those three
TWO_SHARDS = ("shard-0", "shard-1")


def _cluster(n: int = 2, replication: int = 1, **kwargs):
    spec = ClusterSpec.of(n, replication=replication, datasets=DATASETS)
    defaults = dict(router_kwargs=dict(attempt_timeout_s=30,
                                       fanout_timeout_s=10,
                                       probe_interval_s=0.2))
    defaults.update(kwargs)
    return ClusterThread(spec, **defaults)


# -- replica-aware movement bounds (plans, no sockets) -----------------------

class TestReplicaPlans:
    def test_join_moves_about_one_nth_of_replica_sets(self):
        """With ``replicas > 1`` a single join still relocates ~1/N of
        the keyspace per replica slot, nowhere near a reshuffle."""
        keys = synthetic_keys(2000)
        before = HashRing([f"s{i}" for i in range(4)])
        after = before.with_node("s4")
        changed = sum(1 for k in keys
                      if set(before.owners(k, 2)) != set(after.owners(k, 2)))
        # each of the 2 replica slots moves ~1/5 of keys independently;
        # the union of changed sets stays well under double the ideal
        assert 0.05 < changed / len(keys) < 0.65
        # and primary movement alone obeys the classic bound
        plan = plan_rebalance(before, after, keys)
        assert 0.05 < plan.fraction_moved < 0.45

    def test_no_key_loses_every_owner_across_a_single_change(self):
        """A one-node membership change must leave every key with at
        least one surviving owner — that owner is where the migration
        copies state *from* while reads keep flowing."""
        keys = synthetic_keys(1500)
        base = HashRing([f"s{i}" for i in range(4)])
        for changed in (base.with_node("s4"), HashRing(["s0", "s1", "s3"])):
            for k in keys:
                old = set(base.owners(k, 2))
                new = set(changed.owners(k, 2))
                assert old & new, (k, old, new)

    def test_summary_caps_moved_key_listing(self):
        keys = synthetic_keys(1000)
        before = HashRing(["s0", "s1"])
        plan = plan_rebalance(before, before.with_node("s2"), keys)
        assert len(plan.moved) > 5
        s = plan.summary(max_moved_keys=5)
        assert len(s["moved_keys"]) == 5
        assert s["moved_keys_omitted"] == len(plan.moved) - 5
        for k, mv in s["moved_keys"].items():
            assert mv == {"from": plan.moved[k][0],
                          "to": plan.moved[k][1]}
        # the default cap still lists everything for small plans
        small = plan_rebalance(HashRing(TWO_SHARDS),
                               HashRing(TWO_SHARDS).with_node("s2"),
                               list(DATASETS))
        assert "moved_keys_omitted" not in small.summary()


# -- hotspot detection -------------------------------------------------------

class _FakeRouter:
    def __init__(self, shards=("shard-0", "shard-1")):
        self.registry = MetricsRegistry()
        self.shards = {s: None for s in shards}
        self.ring = HashRing(shards)
        self.key_route_counts: dict[str, int] = {}
        self._m = self.registry.counter(
            "cluster_route_total", "test", labels=("shard", "outcome"))

    def hit(self, shard: str, n: int, outcome: str = "ok"):
        self._m.labels(shard=shard, outcome=outcome).inc(n)


class TestHotspotDetector:
    def test_first_sample_primes_and_never_reports_hot(self):
        router = _FakeRouter()
        router.hit("shard-0", 500)
        det = HotspotDetector(router, min_total=10)
        report = det.sample()
        assert not report.hot
        assert report.shard_deltas["shard-0"] == 500.0

    def test_skewed_window_names_shard_and_its_keys(self):
        router = _FakeRouter()
        det = HotspotDetector(router, ratio=1.5, min_total=50)
        det.sample()                    # prime
        router.hit("shard-0", 90)
        router.hit("shard-1", 10)
        hot_key = next(k for k in DATASETS
                       if router.ring.owner(k) == "shard-0")
        cold_key = next(k for k in DATASETS
                        if router.ring.owner(k) == "shard-1")
        router.key_route_counts[hot_key] = 80
        router.key_route_counts[cold_key] = 10
        report = det.sample()
        assert report.hot_shards == ("shard-0",)
        assert hot_key in report.hot_keys
        assert cold_key not in report.hot_keys
        assert report.as_dict()["hot"] is True

    def test_errors_are_not_load(self):
        router = _FakeRouter()
        det = HotspotDetector(router, ratio=1.5, min_total=50)
        det.sample()
        router.hit("shard-0", 200, outcome="error")
        router.hit("shard-1", 30)
        assert not det.sample().hot     # error storm != served load

    def test_quiet_window_is_never_hot(self):
        router = _FakeRouter()
        det = HotspotDetector(router, min_total=50)
        det.sample()
        router.hit("shard-0", 20)       # below min_total
        assert not det.sample().hot


# -- shard admin + handoff forwarding ----------------------------------------

class TestAdminHandoff:
    def test_ownership_adopt_drop_round_trip(self):
        with _cluster(2) as ct:
            owner = ct.spec.ring().owner("twitter")
            addr = ct.shard_addresses[owner]
            with ServiceClient(addr.host, addr.port) as shard:
                own = shard.request("admin", action="ownership")
                assert "twitter" in own["datasets"]
                shard.request("admin", action="drop", dataset="twitter")
                assert "twitter" not in shard.request(
                    "admin", action="ownership")["datasets"]
                shard.request("admin", action="adopt", dataset="twitter")
                assert "twitter" in shard.request(
                    "admin", action="ownership")["datasets"]

    def test_drop_with_forward_answers_through_new_owner(self):
        with _cluster(2) as ct:
            ring = ct.spec.ring()
            owner = ring.owner("twitter")           # shard-1
            other = next(s for s in TWO_SHARDS if s != owner)
            old = ct.shard_addresses[owner]
            new = ct.shard_addresses[other]
            with ServiceClient(new.host, new.port) as target:
                target.request("admin", action="adopt",
                               dataset="twitter")
            with ServiceClient(old.host, old.port) as shard:
                shard.request(
                    "admin", action="drop", dataset="twitter",
                    forward={"host": new.host, "port": new.port},
                    window_s=30.0)
                out = shard.dyn_query("BFS", "twitter", scale=0.02)
                assert out["forwarded_by"] == owner
                assert out["version"] == 0
                info = shard.request("admin", action="ownership")
                assert info["forwarded"] == 1
                assert "twitter" in info["forwards"]

    def test_forward_window_expires_back_to_wrong_shard(self):
        with _cluster(2) as ct:
            owner = ct.spec.ring().owner("twitter")
            addr = ct.shard_addresses[owner]
            with ServiceClient(addr.host, addr.port) as shard:
                shard.request(
                    "admin", action="drop", dataset="twitter",
                    forward={"host": addr.host, "port": addr.port},
                    window_s=0.05)
                time.sleep(0.1)
                with pytest.raises(WrongShard):
                    shard.dyn_query("BFS", "twitter", scale=0.02)


# -- cross-replica version convergence (satellite: staleness bound) ---------

class TestReplicaConvergence:
    def test_replicas_converge_to_primary_head_version(self):
        """After a synchronously-replicated write burst, every replica
        answers at the primary's head version (lag bound 0 once the
        last write is acked — the router awaits replica fan-out before
        responding, and any lagging replica is disclosed per write)."""
        with _cluster(3, replication=2) as ct:
            ring = ct.spec.ring()
            owners = ring.owners("ldbc", 2)
            rng = random.Random(7)
            with ServiceClient(port=ct.router_port) as client:
                last = None
                for _ in range(5):
                    last = client.mutate("ldbc",
                                         churn_ops(rng, 200, 6),
                                         scale=0.05, seed=0)
                assert last["shard"] == owners[0]
                # every write disclosed full replica coverage
                assert last.get("replica_failures") in (None, [], {})
            versions = {}
            for shard in owners:
                addr = ct.shard_addresses[shard]
                with ServiceClient(addr.host, addr.port) as direct:
                    out = direct.dyn_query("BFS", "ldbc", scale=0.05)
                    versions[shard] = out["version"]
            head = versions[owners[0]]
            assert head == 5
            lags = {s: head - v for s, v in versions.items()}
            assert all(lag == 0 for lag in lags.values()), lags


# -- end-to-end live rebalance ----------------------------------------------

class TestLiveRebalance:
    def test_hotspot_to_spare_migration_with_zero_downtime(self):
        """The full autoscale story: skewed traffic marks shard-0 hot,
        a spare joins, the plan executes live, and a concurrent client
        sees every request answered — no WrongShard, no lost writes,
        version continuity across the cutover."""
        with _cluster(2, spares=("spare-0",)) as ct:
            router = ct.router
            ring = ct.spec.ring()
            rng = random.Random(3)
            failures: list[BaseException] = []
            answered = [0]
            stop = threading.Event()

            with ServiceClient(port=ct.router_port) as client:
                # mutated state that must survive the move (ldbc is one
                # of the three keys the spare-0 join relocates)
                for _ in range(3):
                    client.mutate("ldbc", churn_ops(rng, 200, 6),
                                  scale=0.05, seed=0)
                pre = client.dyn_query("BFS", "ldbc", scale=0.05)
                assert pre["version"] == 3
                assert pre["shard"] == ring.owner("ldbc") == "shard-0"

                # skewed traffic: the detector names shard-0 hot and
                # ldbc as its busiest key
                det = HotspotDetector(router, ratio=1.4, min_total=10)
                det.sample()
                for _ in range(12):
                    client.dyn_query("BFS", "ldbc", scale=0.05)
                report = det.sample()
                assert "shard-0" in report.hot_shards
                assert "ldbc" in report.hot_keys

            def checker():
                with ServiceClient(port=ct.router_port,
                                   timeout_s=30) as c:
                    i = 0
                    while not stop.is_set():
                        ds = DATASETS[i % len(DATASETS)]
                        try:
                            c.dyn_query("BFS", ds, scale=0.05)
                            if ds == "ldbc":
                                c.mutate("ldbc",
                                         churn_ops(rng, 200, 2),
                                         scale=0.05, seed=0)
                            answered[0] += 1
                        except BaseException as e:  # noqa: BLE001
                            failures.append(e)
                            return
                        i += 1

            thread = threading.Thread(target=checker, daemon=True)
            thread.start()
            time.sleep(0.3)             # checker mid-flight

            plan = plan_rebalance(ring, ring.with_node("spare-0"),
                                  list(DATASETS))
            assert set(plan.moved) == {"knowledge", "roadnet", "ldbc"}
            executor = RebalanceExecutor(
                router,
                {**ct.shard_addresses, **ct.spare_addresses},
                handoff_window_s=10.0)
            migration = executor.execute(
                plan, join=ct.spare_addresses["spare-0"])

            time.sleep(0.3)             # checker crosses the new ring
            stop.set()
            thread.join(timeout=30)

            assert not failures, failures
            assert answered[0] > 0
            assert migration.keys == ("knowledge", "ldbc", "roadnet")
            assert migration.adopted["ldbc"] == ("spare-0",)
            assert migration.dropped["ldbc"] == ("shard-0",)
            assert migration.stores_shipped["ldbc"] == 1
            # knowledge/roadnet were never mutated: nothing to ship,
            # the new owner regenerates the deterministic base
            assert migration.stores_shipped["knowledge"] == 0

            with ServiceClient(port=ct.router_port) as client:
                post = client.dyn_query("BFS", "ldbc", scale=0.05)
                # answered by the spare, at a version no older than the
                # pre-migration head: the mutated store actually moved
                assert post["shard"] == "spare-0"
                assert post["version"] >= 3
                # writes keep landing on the new owner
                out = client.mutate("ldbc", churn_ops(rng, 200, 4),
                                    scale=0.05, seed=0)
                assert out["shard"] == "spare-0"
                assert out["version"] == post["version"] + 1
                stats = client.stats()
            assert "spare-0" in stats["ring"]["shards"]
            assert stats["rebalance"]["paused_writes"] == []
