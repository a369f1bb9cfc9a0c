"""Pipeline-DSL queries through the cluster router: a query is one
shard's answer, relayed — every template equals the single-node answer
(before and after churn with a pinned version), a static source is
served by any shard and fails over past a dead owner while a dynamic
one is its owner's alone, and typed shard errors carry the originating
shard id."""

from __future__ import annotations

import contextlib
import json
import random

import pytest

from repro.cluster import ClusterSpec, ClusterThread
from repro.core.errors import (
    PlanError,
    QueryError,
    RemoteError,
    ShardUnavailable,
    SnapshotExpired,
    WrongShard,
)
from repro.dynamic.store import DEFAULT_MAX_VERSIONS
from repro.datagen.registry import scaled_vertices
from repro.dynamic import churn_ops
from repro.obs import counter_total
from repro.query import QueryEngine, query_template_pool
from repro.service import (
    GraphService,
    PoolConfig,
    ServiceClient,
    ServiceThread,
)

DATASETS = ("twitter", "knowledge", "watson", "roadnet", "ldbc")
SCALE = 0.02
TEMPLATES = query_template_pool(DATASETS, scale=SCALE)


def _service() -> GraphService:
    return GraphService(pool_config=PoolConfig(size=2,
                                               isolation="inline"))


def _cluster(n: int = 4, **router_kwargs):
    spec = ClusterSpec.of(n, datasets=DATASETS)
    defaults = dict(attempt_timeout_s=60, fanout_timeout_s=60,
                    probe_interval_s=0.2)
    defaults.update(router_kwargs)
    return ClusterThread(spec, router_kwargs=defaults)


@pytest.fixture(scope="module")
def single_node():
    with ServiceThread(_service()) as st:
        with ServiceClient(st.host, st.port) as client:
            yield client


@pytest.fixture(scope="module")
def cluster():
    with _cluster(4) as ct:
        with ServiceClient(port=ct.router_port) as client:
            yield ct, client


class TestDistributedEquivalence:
    @pytest.mark.parametrize("q", TEMPLATES)
    def test_every_template_matches_single_node(self, q, single_node,
                                                cluster):
        _, router = cluster
        local = single_node.query_lang(q)
        dist = router.query_lang(q)
        assert dist["table"] == local["table"]
        assert dist["plan"] == local["plan"]

    def test_explain_matches_single_node_plan(self, single_node,
                                              cluster):
        _, router = cluster
        q = f"from twitter scale={SCALE} | cc | topk comp 5"
        local = single_node.request("explain", q=q)
        dist = router.request("explain", q=q)
        assert dist["plan"] == local["plan"]
        assert dist["digest"] == local["digest"]
        # deterministic for a fixed plan-cache state
        again = router.request("explain", q=q)
        assert again == {**dist, "plan_cached": True}


class TestComponentMerge:
    """A ``comp`` column through the router at three shards.  No
    template carries one that far (``cc`` always meets ``count``); a
    shard labels a component by its minimum id over the whole graph.
    ``ldbc`` is one component at this scale; ``roadnet`` has many, with
    labels that differ from the row's own id."""

    @pytest.fixture(scope="class")
    def three_shards(self):
        with _cluster(3) as ct:
            with ServiceClient(port=ct.router_port) as client:
                yield client

    @pytest.mark.parametrize("dataset", ["ldbc", "roadnet"])
    @pytest.mark.parametrize("tail", ["| cc | limit 20",
                                      "| cc | topk comp 10"])
    def test_component_table_matches_local_engine(self, tail, dataset,
                                                  three_shards):
        q = f"from {dataset} scale=0.05 seed=0 {tail}"
        table = QueryEngine().query({"q": q})["table"]
        local = json.loads(json.dumps(table))
        dist = three_shards.query_lang(q)
        assert dist["table"] == local
        assert local["columns"] == ["id", "comp"]
        assert len(local["rows"]) == (20 if "limit" in tail else 10)


class TestDynamicRouting:
    def test_churned_version_pinned_answers_match(self):
        """The same churn batch applied to a standalone service and to
        the cluster's owner shard yields element-identical version-
        pinned answers — mutation state is deterministic, and the
        router's keyed routing reads the one true store."""
        dataset = "ldbc"
        ops = churn_ops(random.Random(13),
                        scaled_vertices(dataset, SCALE), 24)
        base = f"from {dataset} scale={SCALE}"
        queries = [f"{base} version=1 | cc | count",
                   f"{base} version=1 | topk degree 8",
                   f"{base} version=1 | bfs root=0 depth<=3 "
                   "| filter level<=2 | project level | limit 16"]
        with ServiceThread(_service()) as st, _cluster(4) as ct:
            with ServiceClient(st.host, st.port) as local, \
                    ServiceClient(port=ct.router_port) as router:
                a = local.mutate(dataset, ops, scale=SCALE)
                b = router.mutate(dataset, ops, scale=SCALE)
                assert a["version"] == b["version"] == 1
                for q in queries:
                    mine = local.query_lang(q)
                    theirs = router.query_lang(q)
                    # only the owner holds the mutation history
                    assert theirs["shard"] == ct.spec.ring().owner(dataset)
                    assert theirs["table"] == mine["table"]
                    assert theirs["version"] == mine["version"] == 1

    def test_head_query_sees_routers_committed_write(self):
        dataset = "roadnet"
        with _cluster(4) as ct:
            with ServiceClient(port=ct.router_port) as router:
                q = f"from {dataset} scale={SCALE} dynamic=true | count"
                before = router.query_lang(q)
                router.request("add_vertex", dataset=dataset,
                               scale=SCALE, vid=10_500)
                after = router.query_lang(q)
                assert after["version"] == before["version"] + 1
                assert after["table"]["rows"][0][0] == \
                    before["table"]["rows"][0][0] + 1


@contextlib.contextmanager
def _client(where: str):
    """A client of a fresh standalone service or of a fresh cluster's
    router."""
    if where == "service":
        with ServiceThread(_service()) as st, \
                ServiceClient(st.host, st.port) as client:
            yield client
    else:
        with _cluster(2) as ct, \
                ServiceClient(port=ct.router_port) as client:
            yield client


class TestExpiredPins:
    @pytest.mark.parametrize("where", ["service", "router"])
    def test_a_pin_outside_the_window_is_refused_cold_and_warm(
            self, where):
        """``query`` and ``explain`` of a dynamic source pinned outside
        the store's ``[floor, head]`` are a typed ``snapshot-expired``
        frame, whether or not a cache holds the text: a version ahead of
        the head (cold), and a pin answered and cached before the
        retention window passed it (warm)."""
        dataset = "roadnet"
        base = f"from {dataset} scale={SCALE}"
        ahead, pinned = f"{base} version=999 | count", \
            f"{base} version=0 | count"
        with _client(where) as client:
            for op in ("query", "explain"):
                with pytest.raises(SnapshotExpired, match=r"\[0, 0\]"):
                    client.request(op, q=ahead)
                client.request(op, q=pinned)
            assert client.query_lang(pinned)["served"] == "result-cache"
            assert client.request("explain", q=pinned)["plan_cached"]
            for i in range(DEFAULT_MAX_VERSIONS):
                client.request("add_vertex", dataset=dataset,
                               scale=SCALE, vid=10_000 + i)
            window = rf"\[1, {DEFAULT_MAX_VERSIONS}\]"
            for op in ("query", "explain"):
                with pytest.raises(SnapshotExpired, match=window) as exc:
                    client.request(op, q=pinned)
                assert exc.value.kind == "snapshot-expired"


class TestFailureHandling:
    def test_shard_error_carries_originating_shard(self, cluster):
        ct, router = cluster
        # the planner cannot bound-check a root against a graph it has
        # not materialized, so this fails *on the shards* — the typed
        # error must come back stamped with a real shard id
        with pytest.raises(QueryError) as exc_info:
            router.query_lang(f"from twitter scale={SCALE} "
                              "| bfs root=999999999 | count")
        assert getattr(exc_info.value, "shard", None) in ct.assignment

    def test_ordering_against_text_is_a_plan_error_on_the_wire(
            self, cluster):
        _, router = cluster
        q = f"from roadnet scale={SCALE} | degree | filter degree<abc"
        # through the router: its own planner refuses before any shard
        # traffic
        with pytest.raises(PlanError) as exc_info:
            router.query_lang(q)
        assert exc_info.value.kind == "plan"
        assert getattr(exc_info.value, "shard", None) is None

    def test_router_rejects_client_supplied_part(self, cluster):
        # ``q`` is a query's one parameter: a ``part`` is a typed
        # bad-request, from the shard that answers
        ct, router = cluster
        with pytest.raises(RemoteError) as exc_info:
            router.request("query", q=f"from twitter scale={SCALE} "
                                      "| count", part=[0, 2])
        assert exc_info.value.kind == "bad-request"
        assert exc_info.value.shard == ct.spec.ring().owner("twitter")

    def test_parse_errors_fail_before_any_shard_traffic(self, cluster):
        _, router = cluster
        with pytest.raises(QueryError) as exc_info:
            router.query_lang("from twitter | zap")
        assert getattr(exc_info.value, "shard", None) is None

    def test_a_dead_owner_fails_over_static_but_not_dynamic(self):
        """Any shard generates a static graph, so the walk carries a
        static query past its dead owner; only the owner holds the
        mutation history, so a dynamic one has nowhere to go."""
        q = (f"from knowledge scale={SCALE} | kcore k>=2 "
             "| topk core 12")
        dyn = q.replace(f"scale={SCALE}", f"scale={SCALE} dynamic=true")
        with ServiceThread(_service()) as st:
            with ServiceClient(st.host, st.port) as local:
                expected = local.query_lang(q)["table"]
        with _cluster(4) as ct:
            with ServiceClient(port=ct.router_port) as router:
                victim = ct.spec.ring().owner("knowledge")
                ct.kill_shard(victim)
                result = router.query_lang(q)
                assert result["table"] == expected
                assert result["shard"] != victim
                with pytest.raises(ShardUnavailable) as exc_info:
                    router.query_lang(dyn)
                assert exc_info.value.kind == "unavailable"


class TestOneShardAnswers:
    def test_a_cached_static_query_is_one_exchange_relayed(
            self, monkeypatch):
        """The router walks the ring for a static query like any keyed
        read: one shard exchange, whose answer is relayed as the bytes
        it came in — the router decodes no shard's line."""
        decoded = []
        real_loads = json.loads

        def loads(text, *args, **kwargs):
            # a shard's answer to the router: the id the link gave its
            # request (``shard-N-seq``), answered (``ok`` comes next)
            head = text[:40]
            if not isinstance(head, str):
                head = head.decode("latin-1")
            if head.startswith('{"id":"shard-') and '","ok":' in head:
                decoded.append(head)
            return real_loads(text, *args, **kwargs)

        q = f"from twitter scale={SCALE} | topk degree 5"
        with _cluster(3) as ct, \
                ServiceClient(port=ct.router_port) as router:
            first = router.query_lang(q)              # computed, cached
            routed = counter_total(ct.router.registry.snapshot(),
                                   "cluster_route_total")
            monkeypatch.setattr(json, "loads", loads)
            again = router.query_lang(q)
            monkeypatch.undo()
            assert counter_total(ct.router.registry.snapshot(),
                                 "cluster_route_total") == routed + 1
        assert decoded == []
        assert again["served"] == "result-cache"
        assert again["shard"] == first["shard"] \
            == ct.spec.ring().owner("twitter")
        assert again["table"] == first["table"]

    def test_only_mutable_state_is_owned(self, cluster):
        """Asked directly, a shard answers a static ``query`` and
        ``explain`` for a dataset it does not own; a dynamic source
        there is still the owner's alone."""
        ct, _ = cluster
        foreign = next(d for d in DATASETS
                       if d not in ct.assignment["shard-0"])
        q = f"from {foreign} scale={SCALE} | topk degree 3"
        addr = ct.addresses["shard-0"]
        with ServiceClient(addr.host, addr.port) as shard:
            answer = shard.query_lang(q)
            assert answer["shard"] == "shard-0"
            assert answer["table"] == json.loads(json.dumps(
                QueryEngine().query({"q": q})["table"]))
            assert shard.request("explain", q=q)["shard"] == "shard-0"
            for op in ("query", "explain"):
                with pytest.raises(WrongShard):
                    shard.request(op, q=f"from {foreign} scale={SCALE} "
                                        "dynamic=true | count")
