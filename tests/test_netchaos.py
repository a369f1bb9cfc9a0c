"""Tests for the deterministic TCP chaos proxy: transparent
passthrough, black-hole partitions, mid-stream resets, payload
corruption surfacing as typed protocol errors, slow-loris stalls bounded
by the client's total-read deadline, runtime fault swaps, and the seeded
determinism of per-connection fault plans."""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import socket
import threading

import pytest

from repro.cluster import ClusterSpec, ClusterThread, Router, ShardAddress
from repro.cluster.ring import HashRing
from repro.core.errors import (
    DeadlineExceeded,
    ProtocolError,
    ShardUnavailable,
)
from repro.resilience import ChaosProxy, NetFaultSpec
from repro.resilience.netchaos import _ConnPlan
from repro.service import (
    GraphService,
    PoolConfig,
    ServiceClient,
    ServiceThread,
)
from repro.service.protocol import MAX_FRAME_BYTES, Body
from repro.service.server import FrameServer


def _inline_service() -> GraphService:
    return GraphService(pool_config=PoolConfig(size=2,
                                               isolation="inline"))


def _proxy_client(st, faults=None, seed=0, timeout_s=30.0):
    proxy = ChaosProxy(st.host, st.port, faults=faults, seed=seed)
    host, port = proxy.start()
    return proxy, ServiceClient(host, port, timeout_s=timeout_s)


class TestNetFaultSpec:
    def test_zero_value_is_transparent(self):
        spec = NetFaultSpec()
        assert not (spec.latency_ms or spec.jitter_ms or spec.reset_p
                    or spec.corrupt_p or spec.blackhole)
        assert spec.bandwidth_bps is None and spec.stall_after_bytes is None
        assert NetFaultSpec(latency_ms=1.0) != spec

    def test_but_replaces_fields(self):
        spec = dataclasses.replace(NetFaultSpec(latency_ms=5.0),
                                   blackhole=True)
        assert spec.latency_ms == 5.0 and spec.blackhole

    @pytest.mark.parametrize("bad", [
        dict(latency_ms=-1), dict(jitter_ms=-1),
        dict(bandwidth_bps=0), dict(reset_p=1.5),
        dict(corrupt_p=-0.1), dict(stall_after_bytes=-1),
    ])
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            NetFaultSpec(**bad)

    def test_conn_plans_are_seed_deterministic(self):
        spec = NetFaultSpec(reset_p=1.0, reset_after_bytes=1000,
                            corrupt_p=0.5)
        a = _ConnPlan(spec, random.Random("netchaos:7:3"))
        b = _ConnPlan(spec, random.Random("netchaos:7:3"))
        c = _ConnPlan(spec, random.Random("netchaos:7:4"))
        assert (a.reset_at, a.corrupt) == (b.reset_at, b.corrupt)
        # a different conn_id draws an independent plan (offsets differ
        # with overwhelming probability over a 1000-byte range)
        assert a.reset_at != c.reset_at or a.corrupt != c.corrupt


class TestChaosProxyLive:
    def test_transparent_passthrough(self):
        with ServiceThread(_inline_service()) as st:
            proxy, client = _proxy_client(st)
            with proxy, client:
                assert client.ping()["pong"] is True
                assert client.run("BFS", "ldbc", scale=0.02,
                                  machine="test")["served"] == "executed"
            snap = proxy.snapshot()
            assert snap["connections"] == 1
            assert snap["bytes_up"] > 0 and snap["bytes_down"] > 0
            assert snap["resets"] == snap["corrupted"] == 0

    def test_blackhole_hangs_until_the_deadline(self):
        with ServiceThread(_inline_service()) as st:
            proxy, client = _proxy_client(
                st, faults=NetFaultSpec(blackhole=True))
            with proxy, client:
                with pytest.raises(DeadlineExceeded):
                    client.request("ping", deadline_s=0.3)
            snap = proxy.snapshot()
            assert snap["blackholed_chunks"] >= 1
            assert snap["bytes_up"] == snap["bytes_down"] == 0

    def test_reset_mid_stream_is_a_transport_error(self):
        with ServiceThread(_inline_service()) as st:
            proxy, client = _proxy_client(
                st, faults=NetFaultSpec(reset_p=1.0,
                                        reset_after_bytes=8))
            with proxy, client:
                # the RST lands after the seeded byte offset — it may
                # race a fast response through first, but then kills the
                # connection, so within a couple of round trips the
                # client must see a transport error
                with pytest.raises((OSError, ProtocolError)):
                    for _ in range(5):
                        client.ping()
            assert proxy.snapshot()["resets"] >= 1

    def test_corruption_surfaces_as_a_typed_protocol_error(self):
        # one flipped byte in a JSON-lines frame must never pass as a
        # valid answer — either the server rejects the request frame or
        # the client rejects the response frame, both typed
        with ServiceThread(_inline_service()) as st:
            proxy, client = _proxy_client(
                st, faults=NetFaultSpec(corrupt_p=1.0))
            with proxy, client:
                with pytest.raises((ProtocolError, OSError)):
                    client.ping()
            assert proxy.snapshot()["corrupted"] == 1

    def test_slow_loris_stall_is_bounded_by_the_total_read_deadline(self):
        # the response starts arriving and then stalls: a per-recv
        # timeout would wait forever one byte at a time; the client's
        # whole-round-trip budget must end the wait
        with ServiceThread(_inline_service()) as st:
            proxy, client = _proxy_client(
                st, faults=NetFaultSpec(stall_after_bytes=10))
            with proxy, client:
                with pytest.raises(DeadlineExceeded):
                    client.request("ping", deadline_s=0.4)
            snap = proxy.snapshot()
            assert snap["stalled"] >= 1
            assert 0 < snap["bytes_down"] <= 10

    def test_runtime_fault_swap_hits_live_connections(self):
        with ServiceThread(_inline_service()) as st:
            proxy, client = _proxy_client(st)
            with proxy, client:
                assert client.ping()["pong"] is True
                proxy.set_faults(NetFaultSpec(blackhole=True))
                with pytest.raises(DeadlineExceeded):
                    client.request("ping", deadline_s=0.3)
                proxy.set_faults(NetFaultSpec())
                # healed: a fresh connection flows again
                with ServiceClient(proxy.host, proxy.port,
                                   timeout_s=10.0) as c2:
                    assert c2.ping()["pong"] is True

    def test_latency_injection_slows_the_round_trip(self):
        import time
        with ServiceThread(_inline_service()) as st:
            proxy, client = _proxy_client(
                st, faults=NetFaultSpec(latency_ms=80.0))
            with proxy, client:
                t0 = time.perf_counter()
                client.ping()
                dt = time.perf_counter() - t0
            assert dt >= 0.08                     # at least one delay

    def test_dead_upstream_is_an_immediate_transport_failure(self):
        with ServiceThread(_inline_service()) as st:
            dead_port = st.port
        # service stopped: the port refuses.  The proxy answers with an
        # abortive close, which may surface as early as the client's
        # connect — so the whole dial+request goes inside the raises
        proxy = ChaosProxy("127.0.0.1", dead_port)
        with proxy:
            client = ServiceClient(proxy.host, proxy.port, timeout_s=5.0)
            try:
                with pytest.raises((OSError, ProtocolError)):
                    client.ping()
            finally:
                client.close()
        assert proxy.snapshot()["upstream_refused"] == 1


# -- corruption on the router -> shard link ----------------------------------
# The router relays a shard's ok answer as the bytes it arrived in; these
# pin that a byte flipped on that hop never reaches a client's socket.

KEY = "ldbc"
ASK = dict(workload="CComp", dataset=KEY, scale=0.03)


def _corrupting_cluster(replication: int) -> ClusterThread:
    """Every router->shard hop behind a proxy (transparent until a test
    says otherwise), short attempts, the prober parked."""
    return ClusterThread(
        ClusterSpec.of(2, replication=replication), netchaos=True,
        router_kwargs=dict(attempt_timeout_s=2.0, probe_interval_s=60.0))


@pytest.fixture
def flip_responses(monkeypatch):
    """Aim the proxy's one flipped byte at the response: it corrupts the
    first chunk a connection carries, which is the router's request —
    unless the upward pump is handed a plan that corrupts nothing."""
    real = ChaosProxy._pump

    def pump(self, src, dst, plan, direction):
        if direction == "up":
            plan = copy.copy(plan)
            plan.corrupt = False
        real(self, src, dst, plan, direction)

    monkeypatch.setattr(ChaosProxy, "_pump", pump)


class TestCorruptionOnTheRouterShardLink:
    def test_a_flipped_request_byte_comes_back_typed(self):
        # the proxy as it is flips a byte of the first chunk — the
        # router's request: the shard refuses the frame, typed, and the
        # router forwards that (an error frame is never relayed raw)
        with _corrupting_cluster(1) as cluster:
            primary = cluster.router.ring.owner(KEY)
            cluster.proxies[primary].set_faults(NetFaultSpec(corrupt_p=1.0))
            with ServiceClient(port=cluster.router_port,
                               timeout_s=30.0) as client:
                with pytest.raises(ProtocolError) as exc:
                    client.request("dyn_query", **ASK)
            assert cluster.proxies[primary].snapshot()["corrupted"] == 1
        # the shard's own refusal, attributed to it (seeded: the flip
        # lands mid-frame, not on the terminator)
        assert exc.value.shard == primary
        assert "undecodable frame" in str(exc.value)

    def test_a_flipped_byte_in_a_relayed_body_fails_over(
            self, flip_responses):
        with _corrupting_cluster(2) as cluster:
            router = cluster.router
            primary, backup = router.ring.owners(KEY, 2)
            cluster.proxies[primary].set_faults(NetFaultSpec(corrupt_p=1.0))
            with ServiceClient(port=cluster.router_port,
                               timeout_s=30.0) as client:
                out = client.request("dyn_query", **ASK)
            # the client's frame parsed, and it is the backup's answer
            assert out["shard"] == backup and "degraded" not in out
            assert out["outputs"]["n_components"] >= 1
            proxy = cluster.proxies[primary].snapshot()
            assert proxy["corrupted"] == 1 and proxy["bytes_down"] > 0
            # the primary's answer was refused on the link and charged
            # to the primary: a transport failure, not a relayed frame
            health = router.tracker.snapshot()[primary]
            assert health["failures"] == 1
            assert not router._links[primary]._idle   # never pooled

    def test_with_no_replica_it_is_a_typed_error_never_bytes(
            self, flip_responses):
        with _corrupting_cluster(1) as cluster:
            router = cluster.router
            primary = router.ring.owner(KEY)
            cluster.proxies[primary].set_faults(NetFaultSpec(corrupt_p=1.0))
            with ServiceClient(port=cluster.router_port,
                               timeout_s=30.0) as client:
                with pytest.raises(ShardUnavailable):
                    client.request("dyn_query", **ASK)
                # a write relays too (replication 1): same refusal
                with pytest.raises(ShardUnavailable):
                    client.mutate(KEY, [{"op": "add_vertex", "vid": 9001}],
                                  scale=0.03)
                assert router.tracker.snapshot()[primary]["failures"] == 2
                # healed link: the next answer flows, relayed
                cluster.proxies[primary].set_faults(NetFaultSpec())
                assert client.request("dyn_query", **ASK)["shard"] \
                    == primary

    def test_an_ascii_non_json_body_is_the_clients_protocol_error(self):
        """The one thing a relaying router stops proving: that the body
        inside a byte-exact envelope is JSON.  A shard that wrote such a
        body (ours cannot: every body is a ``json.dumps``) is found out
        by the client, as its own :class:`ProtocolError` — a decision,
        pinned here and in the README, not an accident."""

        class Babbling(FrameServer):
            async def _dispatch(self, req):
                return Body(b'{"outputs": not json')

        with ServiceThread(Babbling("babble")) as shard:
            router = Router([ShardAddress("shard-0", shard.host,
                                          shard.port)])
            with ServiceThread(router) as front, \
                    ServiceClient(front.host, front.port,
                                  timeout_s=10.0) as client:
                with pytest.raises(ProtocolError,
                                   match="undecodable frame"):
                    client.request("dyn_query", **ASK)
                # the router saw an answer, byte-exact in its envelope
                assert router.tracker.snapshot()["shard-0"]["failures"] \
                    == 0

    def test_another_encoders_ok_frame_is_decoded_and_served(self):
        # valid JSON, default spacing and key order: not byte for byte
        # this encoder's envelope, so decode_frame judges it (as it
        # always has) and the answer is re-encoded for the client
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                for line in stream:
                    stream.write(json.dumps(
                        {"v": 1, "id": json.loads(line)["id"], "ok": True,
                         "result": {"outputs": {"n_components": 7}}}
                    ).encode() + b"\n")
                    stream.flush()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        router = Router([ShardAddress("shard-0",
                                      *listener.getsockname()[:2])])
        with listener, ServiceThread(router) as front:
            with ServiceClient(front.host, front.port,
                               timeout_s=10.0) as client:
                out = client.request("dyn_query", **ASK)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert out == {"outputs": {"n_components": 7}}

    def test_an_oversize_answer_is_a_transport_failure_that_fails_over(self):
        # a primary whose answer overruns the frame limit is refused on
        # the link like a flipped byte: charged once, counted
        # unreachable, and the backup answers
        primary, backup = HashRing(["shard-0", "shard-1"]).owners(KEY, 2)
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                for _ in stream:
                    try:
                        conn.sendall(b'"' + b"x" * (MAX_FRAME_BYTES + 8)
                                     + b'"\n')
                    except OSError:
                        return          # the router hung up mid-answer

        class Answering(FrameServer):
            async def _dispatch(self, req):
                return {"outputs": {"n_components": 7}, "shard": backup}

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        with listener, ServiceThread(Answering("answering")) as good:
            router = Router([
                ShardAddress(primary, *listener.getsockname()[:2]),
                ShardAddress(backup, good.host, good.port)], replication=2)
            with ServiceThread(router) as front:
                with ServiceClient(front.host, front.port,
                                   timeout_s=30.0) as client:
                    out = client.request("dyn_query", **ASK)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert out == {"outputs": {"n_components": 7}, "shard": backup}
        assert router.tracker.snapshot()[primary]["failures"] == 1
        routes = router.registry.snapshot()["cluster_route_total"]
        assert {(s["labels"]["shard"], s["labels"]["outcome"]): s["value"]
                for s in routes["samples"]} == {
            (primary, "unreachable"): 1, (backup, "failover"): 1}
        assert not router._links[primary]._idle       # never pooled
