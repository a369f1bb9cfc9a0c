"""Tests for the graph-query service: protocol framing, LRU caching,
micro-batch coalescing, admission control, worker-pool isolation, the
live server/client path, chaos-injected crash containment, and the load
generator."""

from __future__ import annotations

import asyncio
import collections
import json
import threading

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.errors import (
    AdmissionRejected,
    BadRequest,
    CellCrash,
    ProtocolError,
    RemoteError,
    RetriesExhausted,
)
from repro.obs import MetricsRegistry, counter_total
from repro.resilience import Cell, ChaosSpec, Fault
from repro.service import (
    CacheTiers,
    GraphService,
    LoadGenerator,
    LRUCache,
    PoolConfig,
    Query,
    Scheduler,
    ServiceClient,
    ServiceThread,
    WorkerPool,
    cell_from_params,
    decode_frame,
    encode_error,
    encode_request,
    encode_response,
    error_to_payload,
    parse_request,
    payload_to_error,
    percentile,
    schedule,
    workload_mix,
)
from repro.service.cache import dataset_key


# -- protocol ----------------------------------------------------------------

class TestProtocol:
    def test_request_round_trip(self):
        wire = encode_request("run", "r1", {"workload": "BFS"})
        assert wire.endswith(b"\n")
        req = parse_request(decode_frame(wire))
        assert req.op == "run"
        assert req.id == "r1"
        assert req.params == {"workload": "BFS"}

    def test_response_round_trip(self):
        frame = decode_frame(encode_response("r2", {"x": 1}))
        assert frame["ok"] is True
        assert frame["id"] == "r2"
        assert frame["result"] == {"x": 1}

    def test_error_round_trip_preserves_kind(self):
        wire = encode_error("r3", CellCrash("BFS:ldbc", "worker died"))
        frame = decode_frame(wire)
        assert frame["ok"] is False
        err = payload_to_error(frame["error"])
        assert isinstance(err, RemoteError)
        assert err.kind == "crash"
        assert "worker died" in err.message

    def test_admission_error_rehydrates_concrete(self):
        frame = decode_frame(encode_error("r", AdmissionRejected(64, 64)))
        err = payload_to_error(frame["error"])
        assert isinstance(err, AdmissionRejected)

    @pytest.mark.parametrize("garbage", [
        b"", b"\n", b"not json\n", b"\xff\xfe\x00garbage\n",
        b"[1, 2, 3]\n", b'"a string"\n',
        b'{"v": 1, "op": "run"',          # truncated mid-frame
        b'{"v": 99, "op": "run", "id": "x"}\n',   # bad version
        b'{"op": "run", "id": "x"}\n',            # missing version
    ])
    def test_garbage_frames_rejected(self, garbage):
        with pytest.raises(ProtocolError):
            decode_frame(garbage)

    def test_oversized_frame_rejected(self):
        from repro.service import MAX_FRAME_BYTES
        with pytest.raises(ProtocolError):
            decode_frame(b'"' + b"x" * MAX_FRAME_BYTES + b'"\n')

    def test_malformed_requests(self):
        with pytest.raises(ProtocolError):
            parse_request(decode_frame(b'{"v": 1, "id": "x"}\n'))
        with pytest.raises(ProtocolError):
            parse_request(decode_frame(b'{"v": 1, "op": "run"}\n'))
        with pytest.raises(ProtocolError):
            parse_request(decode_frame(
                b'{"v": 1, "op": "run", "id": "x", "params": []}\n'))
        with pytest.raises(BadRequest):
            parse_request(decode_frame(
                b'{"v": 1, "op": "frobnicate", "id": "x"}\n'))

    def test_unknown_exception_maps_to_internal(self):
        payload = error_to_payload(RuntimeError("boom"))
        assert payload["kind"] == "internal"
        assert payload["type"] == "RuntimeError"


# -- cell params -------------------------------------------------------------

class TestCellFromParams:
    def test_valid(self):
        cell = cell_from_params({"workload": "BFS", "dataset": "roadnet",
                                 "scale": 0.1, "seed": 3,
                                 "machine": "test", "gpu": True})
        assert cell.workload == "BFS"
        assert cell.dataset == "roadnet"
        assert cell.seed == 3
        assert cell.with_gpu is True

    @pytest.mark.parametrize("params", [
        {},                                          # no workload
        {"workload": "Nope"},
        {"workload": "BFS", "dataset": "nope"},
        {"workload": "BFS", "machine": "cray"},
        {"workload": "BFS", "scale": 0},
        {"workload": "BFS", "scale": "huge"},
    ])
    def test_invalid(self, params):
        with pytest.raises(BadRequest):
            cell_from_params(params)


# -- LRU cache ---------------------------------------------------------------

class TestLRUCache:
    def test_eviction_order_is_lru(self):
        c = LRUCache(capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1            # promotes a over b
        c.put("c", 3)                     # evicts b, the LRU
        assert c.get("b") is None
        assert c.get("a") == 1
        assert c.get("c") == 3
        assert c.stats.evictions == 1

    def test_reinsert_refreshes_recency(self):
        c = LRUCache(capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)                    # overwrite promotes
        c.put("c", 3)
        assert c.get("b") is None
        assert c.get("a") == 10

    def test_zero_capacity_disables(self):
        c = LRUCache(capacity=0)
        c.put("a", 1)
        assert len(c) == 0
        assert c.get("a") is None
        assert c.stats.hit_rate == 0.0

    def test_contains_does_not_promote_or_count(self):
        c = LRUCache(capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        assert "a" in c                   # no promotion
        c.put("c", 3)                     # evicts a (contains didn't touch)
        assert "a" not in c
        assert c.stats.hits == 0 and c.stats.misses == 0

    def test_stats_hit_rate(self):
        c = LRUCache(capacity=2)
        c.put("a", 1)
        c.get("a")
        c.get("zzz")
        assert c.stats.hits == 1 and c.stats.misses == 1
        assert c.stats.hit_rate == 0.5

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=-1)

    def test_tiers_stats_surface(self):
        tiers = CacheTiers.build()
        registry = MetricsRegistry()
        tiers.bind_metrics(registry)
        tiers.rows.put("k", {"x": 1})
        snap = registry.snapshot()
        assert counter_total(snap, "cache_events_total", tier="rows",
                             event="inserts") == 1
        assert {s["labels"]["tier"] for s in snap["cache_entries"]
                ["samples"]} == {"datasets", "rows"}


KEYS = st.sampled_from("abcde")
VERSIONS = st.sampled_from([1, 2, 3])


class LRUCacheMachine(RuleBasedStateMachine):
    """The tree's second state machine: :class:`LRUCache` against an
    ordered dict (LRU first), on an injected clock — no sleeps."""

    @initialize(capacity=st.integers(0, 4))
    def build(self, capacity):
        self.now = 0.0
        self.cache = LRUCache(capacity, clock=lambda: self.now)
        self.model: collections.OrderedDict = collections.OrderedDict()
        self.counts = dict.fromkeys(("hits", "misses", "inserts",
                                     "evictions", "invalidations",
                                     "stale_serves"), 0)
        self.serial = 0

    @rule(key=KEYS, version=st.one_of(st.none(), VERSIONS))
    def put(self, key, version):
        self.serial += 1
        self.cache.put(key, self.serial, version=version)
        if self.cache.capacity == 0:
            return
        self.model.pop(key, None)
        self.model[key] = (self.serial, version, self.now)
        self.counts["inserts"] += 1
        while len(self.model) > self.cache.capacity:
            self.model.popitem(last=False)
            self.counts["evictions"] += 1

    @rule(key=KEYS, version=st.one_of(st.none(), VERSIONS))
    def get(self, key, version):
        got = self.cache.get(key, "absent", version=version)
        entry = self.model.get(key)
        if entry is None or version not in (None, entry[1]):
            self.counts["misses"] += 1
            self.counts["invalidations"] += entry is not None
            assert got == "absent"
            return
        self.counts["hits"] += 1
        self.model.move_to_end(key)
        assert got == entry[0]

    @rule(key=KEYS)
    def discard(self, key):
        self.cache.discard(key)
        self.model.pop(key, None)

    @rule(key=KEYS, max_age_s=st.sampled_from([None, 0.0, 1.0, 2.5]))
    def get_stale(self, key, max_age_s):
        got = self.cache.get_stale(key, max_age_s)
        entry = self.model.get(key)
        age = None if entry is None else self.now - entry[2]
        if age is None or (max_age_s is not None and age > max_age_s):
            assert got is None
            return
        self.counts["stale_serves"] += 1
        assert got == (entry[0], age)

    @rule(dt=st.sampled_from([0.5, 1.0, 3.0]))
    def advance(self, dt):
        self.now += dt

    @invariant()
    def cache_matches_model(self):
        assert self.cache.keys() == list(self.model)
        assert len(self.cache) == len(self.model)
        assert all(key in self.cache for key in self.model)
        stats = self.cache.stats.as_dict()
        assert {k: stats[k] for k in self.counts} == self.counts


TestLRUCacheMachine = LRUCacheMachine.TestCase


# -- scheduler: coalescing + admission ---------------------------------------

class _FakePool:
    """Pool stand-in: counts executions, optional per-key failures, and a
    release event so tests control when an execution completes."""

    def __init__(self, fail_keys=(), hold=False):
        self.calls = []
        self.fail_keys = set(fail_keys)
        self.release = asyncio.Event()
        self.hold = hold

    async def run_record(self, cell):
        self.calls.append(cell.cell_id)
        if self.hold:
            await self.release.wait()
        else:
            await asyncio.sleep(0)
        if cell.cell_id in self.fail_keys:
            raise CellCrash(cell.cell_id, "fake worker death")
        return {"kind": "row", "cell": cell.cell_id,
                "workload": cell.workload, "dataset": cell.dataset,
                "ctype": "CompStruct", "outputs": {}}


def _cell(workload="BFS", dataset="ldbc", seed=0):
    return Cell(workload=workload, dataset=dataset, scale=0.05,
                seed=seed, machine="test")


def _cache_off():
    return CacheTiers.build(dataset_capacity=0, row_capacity=0)


def _outcomes(registry, family="scheduler_requests_total",
              label="outcome") -> dict:
    """A labeled counter family's values, by its one label."""
    return {s["labels"][label]: int(s["value"])
            for s in registry.snapshot()[family]["samples"]}


class TestScheduler:
    def test_identical_requests_coalesce_into_one_execution(self):
        async def main():
            pool = _FakePool(hold=True)
            sched = Scheduler(pool, _cache_off())
            tasks = [asyncio.ensure_future(sched.submit(_cell()))
                     for _ in range(10)]
            await asyncio.sleep(0.05)     # let everyone join the batch
            pool.release.set()
            records = await asyncio.gather(*tasks)
            return pool.calls, records, _outcomes(sched.registry)

        calls, records, stats = asyncio.run(main())
        assert len(calls) == 1            # one execution for 10 requests
        assert len(records) == 10
        assert sorted(r["served"] for r in records) == \
            ["coalesced"] * 9 + ["executed"]
        assert stats["coalesced"] == 9 and stats["executed"] == 1
        assert stats["submitted"] == 10

    def test_distinct_cells_do_not_coalesce(self):
        async def main():
            pool = _FakePool()
            sched = Scheduler(pool, _cache_off())
            await asyncio.gather(sched.submit(_cell(seed=0)),
                                 sched.submit(_cell(seed=1)))
            return pool.calls

        assert len(asyncio.run(main())) == 2

    def test_cache_tier_answers_repeat_requests(self):
        async def main():
            pool = _FakePool()
            sched = Scheduler(pool, CacheTiers.build())
            first = await sched.submit(_cell())
            second = await sched.submit(_cell())
            return pool.calls, first, second, _outcomes(sched.registry)

        calls, first, second, stats = asyncio.run(main())
        assert len(calls) == 1
        assert first["served"] == "executed"
        assert second["served"] == "cache"
        assert stats["cache_hits"] == 1

    def test_max_pending_must_be_positive(self):
        with pytest.raises(ValueError):
            Scheduler(_FakePool(), _cache_off(), max_pending=0)

    def test_admission_control_sheds_excess_load(self):
        async def main():
            pool = _FakePool(hold=True)
            sched = Scheduler(pool, _cache_off(), max_pending=2)
            held = [asyncio.ensure_future(sched.submit(_cell(seed=i)))
                    for i in range(2)]
            await asyncio.sleep(0.05)
            with pytest.raises(AdmissionRejected):
                await sched.submit(_cell(seed=99))
            # coalescing onto an in-flight batch consumes no capacity
            rider = asyncio.ensure_future(sched.submit(_cell(seed=0)))
            await asyncio.sleep(0.05)
            pool.release.set()
            await asyncio.gather(*held, rider)
            return _outcomes(sched.registry)

        stats = asyncio.run(main())
        assert stats["rejected"] == 1
        assert stats["coalesced"] == 1

    def test_failure_fans_out_to_all_waiters(self):
        async def main():
            cell = _cell()
            pool = _FakePool(fail_keys={cell.cell_id}, hold=True)
            sched = Scheduler(pool, _cache_off())
            tasks = [asyncio.ensure_future(sched.submit(cell))
                     for _ in range(3)]
            await asyncio.sleep(0.05)
            pool.release.set()
            return await asyncio.gather(*tasks, return_exceptions=True), \
                _outcomes(sched.registry)

        results, stats = asyncio.run(main())
        assert all(isinstance(r, CellCrash) for r in results)
        assert stats["failed"] == 1       # one execution failed, 3 waiters
        assert stats["executed"] == 0

    def test_failed_execution_is_not_cached(self):
        async def main():
            cell = _cell()
            pool = _FakePool(fail_keys={cell.cell_id})
            sched = Scheduler(pool, CacheTiers.build())
            with pytest.raises(CellCrash):
                await sched.submit(cell)
            pool.fail_keys.clear()
            record = await sched.submit(cell)
            return pool.calls, record

        calls, record = asyncio.run(main())
        assert len(calls) == 2            # failure didn't poison the cache
        assert record["served"] == "executed"


# -- worker pool -------------------------------------------------------------

class TestWorkerPool:
    def test_inline_execution_returns_record(self):
        async def main():
            pool = WorkerPool(PoolConfig(size=2, isolation="inline"),
                              caches=CacheTiers.build())
            try:
                return await pool.run_record(_cell())
            finally:
                pool.shutdown()

        record = asyncio.run(main())
        assert record["kind"] == "row"
        assert record["workload"] == "BFS"
        assert record["cpu_summary"]["ipc"] > 0

    def test_inline_shares_dataset_tier(self):
        async def main():
            caches = CacheTiers.build()
            pool = WorkerPool(PoolConfig(size=2, isolation="inline"),
                              caches=caches)
            try:
                await pool.run_record(_cell(workload="BFS"))
                await pool.run_record(_cell(workload="CComp"))
            finally:
                pool.shutdown()
            return caches

        caches = asyncio.run(main())
        key = dataset_key("ldbc", 0.05, 0)
        assert key in caches.datasets
        assert caches.datasets.stats.hits == 1    # second run reused it

    def test_chaos_crash_is_typed_and_counted(self):
        cell = _cell()
        chaos = ChaosSpec(faults={cell.cell_id: Fault("crash")})

        async def main():
            pool = WorkerPool(PoolConfig(size=1, isolation="inline"),
                              caches=CacheTiers.build(), chaos=chaos)
            try:
                with pytest.raises(RetriesExhausted) as exc:
                    await pool.run_record(cell)
            finally:
                pool.shutdown()
            return exc.value, pool.registry

        error, registry = asyncio.run(main())
        assert error.last.kind == "crash"
        assert _outcomes(registry, "pool_failures_total", "kind") \
            == {"crash": 1}
        snap = registry.snapshot()
        assert counter_total(snap, "pool_executions_total") == 0
        assert counter_total(snap, "pool_worker_restarts_total") == 1

    def test_flaky_fault_recovers_with_retries(self):
        cell = _cell()
        chaos = ChaosSpec(faults={cell.cell_id: Fault("oom",
                                                      until_attempt=1)})

        async def main():
            pool = WorkerPool(PoolConfig(size=1, isolation="inline",
                                         retries=1),
                              caches=CacheTiers.build(), chaos=chaos)
            try:
                return await pool.run_record(cell)
            finally:
                pool.shutdown()

        record = asyncio.run(main())
        assert record["attempts"] == 2

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            PoolConfig(size=0)
        with pytest.raises(ValueError):
            PoolConfig(isolation="docker")


# -- live server + client ----------------------------------------------------

def _inline_service(**kwargs) -> GraphService:
    defaults = dict(pool_config=PoolConfig(size=4, isolation="inline"))
    defaults.update(kwargs)
    return GraphService(**defaults)


class TestLiveService:
    def test_ping_workloads_datasets_stats(self):
        with ServiceThread(_inline_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                pong = client.ping()
                assert pong["pong"] is True and pong["protocol"] == 1
                assert len(client.workloads()) == 13
                datasets = client.datasets()
                assert {d["key"] for d in datasets} >= {"ldbc", "twitter"}
                m = client.stats()["metrics"]
                assert counter_total(m, "service_requests_total",
                                     op="ping") == 1
                assert counter_total(m, "service_connections_total") == 1

    def test_run_and_characterize(self):
        with ServiceThread(_inline_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                out = client.run("BFS", "ldbc", scale=0.03,
                                 machine="test")
                assert out["outputs"]["visited"] > 0
                assert out["served"] == "executed"
                rec = client.characterize("BFS", "ldbc", scale=0.03,
                                          machine="test")
                assert rec["served"] == "cache"     # same cell identity
                assert rec["cpu_summary"]["ipc"] > 0

    def test_typed_error_for_unknown_workload(self):
        with ServiceThread(_inline_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.run("PageRank", scale=0.03)
                assert exc.value.kind == "bad-request"
                # the connection survives a failed request
                assert client.ping()["pong"] is True

    def test_garbage_line_gets_protocol_error_frame(self):
        with ServiceThread(_inline_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                client.connect()
                client._sock.sendall(b"this is not json\n")
                line = client._sock.makefile("rb").readline()
                frame = json.loads(line)
                assert frame["ok"] is False
                assert frame["error"]["kind"] == "protocol"

    def test_concurrent_clients_coalesce(self):
        with ServiceThread(_inline_service()) as st:
            n, results, errors = 8, [], []

            def hit():
                try:
                    with ServiceClient(st.host, st.port) as c:
                        results.append(c.run("CComp", "ldbc", scale=0.03,
                                             machine="test"))
                except Exception as e:  # noqa: BLE001
                    errors.append(e)

            threads = [threading.Thread(target=hit) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == n
            stats = _outcomes(st.service.registry)
            assert stats["submitted"] == n
            # one execution; everyone else coalesced or hit the cache
            assert stats["executed"] == 1
            assert stats["coalesced"] + stats["cache_hits"] == n - 1

    def test_chaos_crash_fails_only_its_own_request(self):
        """The acceptance property: a chaos-killed worker produces a typed
        error on its own connection while concurrent requests succeed."""
        doomed = Cell(workload="kCore", dataset="ldbc", scale=0.03,
                      seed=7, machine="test")
        chaos = ChaosSpec(faults={doomed.cell_id: Fault("crash")})
        with ServiceThread(_inline_service(chaos=chaos)) as st:
            outcomes: dict[str, object] = {}

            def request(tag, **params):
                try:
                    with ServiceClient(st.host, st.port) as c:
                        outcomes[tag] = c.run(**params)
                except Exception as e:  # noqa: BLE001
                    outcomes[tag] = e

            threads = [
                threading.Thread(target=request, args=("doomed",),
                                 kwargs=dict(workload="kCore",
                                             dataset="ldbc", scale=0.03,
                                             seed=7, machine="test")),
                threading.Thread(target=request, args=("bfs",),
                                 kwargs=dict(workload="BFS",
                                             dataset="ldbc", scale=0.03,
                                             machine="test")),
                threading.Thread(target=request, args=("ccomp",),
                                 kwargs=dict(workload="CComp",
                                             dataset="roadnet",
                                             scale=0.03,
                                             machine="test")),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert isinstance(outcomes["doomed"], RemoteError)
        assert outcomes["doomed"].kind in ("crash", "retries-exhausted")
        assert outcomes["bfs"]["outputs"]["visited"] > 0
        assert outcomes["ccomp"]["outputs"]["n_components"] > 0


# -- adversarial framing against a live server --------------------------------

@pytest.fixture(params=["node", "router"])
def front_door(request):
    """``(host, port)`` of a live front door — a single-node service, or
    the router of a 2-shard cluster: both run the one ``FrameServer``
    loop."""
    if request.param == "node":
        with ServiceThread(_inline_service()) as st:
            yield st.host, st.port
    else:
        from repro.cluster import ClusterSpec, ClusterThread
        spec = ClusterSpec.of(2, datasets=("ldbc", "roadnet"))
        with ClusterThread(spec) as ct:
            yield ct.host, ct.router_port


class TestAdversarialFraming:
    """A hostile or broken peer must cost the server one connection at
    most — never a crash, never other clients' service."""

    def test_truncated_mid_frame_gets_a_typed_error(self, front_door):
        import socket
        with socket.create_connection(front_door, timeout=10.0) as sock:
            # half a request, then a clean FIN mid-frame
            sock.sendall(b'{"v": 1, "op": "ping", "id"')
            sock.shutdown(socket.SHUT_WR)
            frame = json.loads(sock.makefile("rb").readline())
        assert frame["ok"] is False
        assert frame["error"]["kind"] == "protocol"
        # the server survived: a fresh client is served
        with ServiceClient(*front_door) as client:
            assert client.ping()["pong"] is True

    def test_oversized_frame_is_rejected_not_buffered(self, front_door):
        from repro.service import MAX_FRAME_BYTES
        import socket
        with socket.create_connection(front_door, timeout=30.0) as sock:
            blob = (b'{"v": 1, "op": "ping", "id": "'
                    + b"x" * MAX_FRAME_BYTES + b'"}\n')
            try:
                sock.sendall(blob)
            except (BrokenPipeError, ConnectionResetError):
                pass                    # server already gave up on us
            line = sock.makefile("rb").readline()
        if line:                        # error frame beat the close
            frame = json.loads(line)
            assert frame["ok"] is False
            assert frame["error"]["kind"] == "protocol"
        with ServiceClient(*front_door) as client:
            assert client.ping()["pong"] is True

    def test_slow_loris_peer_does_not_starve_other_clients(self,
                                                           front_door):
        # one byte of a request, then silence: the handler parks in
        # readline without blocking the event loop — concurrent clients
        # must be served while the loris holds its connection open
        import socket
        with socket.create_connection(front_door, timeout=10.0) as loris:
            loris.sendall(b"{")
            with ServiceClient(*front_door) as client:
                assert client.ping()["pong"] is True
                m = client.stats()["metrics"]
                assert sum(counter_total(m, name) for name in m
                           if name.endswith("_connections_total")) >= 2
            loris.sendall(b'"v": 1')    # still dribbling, still fine
            with ServiceClient(*front_door) as client:
                assert client.ping()["pong"] is True


@pytest.mark.slow
class TestProcessIsolation:
    def test_real_subprocess_crash_containment(self):
        """Process isolation end-to-end: a SIGKILLed worker subprocess
        fails its request with a typed error; the next request on the
        same server succeeds."""
        doomed = Cell(workload="BFS", dataset="ldbc", scale=0.03,
                      seed=5, machine="test")
        chaos = ChaosSpec(faults={doomed.cell_id: Fault("crash")})
        service = GraphService(
            pool_config=PoolConfig(size=2, isolation="process",
                                   timeout_s=60.0),
            chaos=chaos)
        with ServiceThread(service) as st:
            with ServiceClient(st.host, st.port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.run("BFS", "ldbc", scale=0.03, seed=5,
                               machine="test")
                assert exc.value.kind in ("crash", "retries-exhausted")
                ok = client.run("BFS", "ldbc", scale=0.03, seed=0,
                                machine="test")
                assert ok["outputs"]["visited"] > 0


# -- load generator ----------------------------------------------------------

class TestLoadGen:
    def test_percentile_nearest_rank(self):
        samples = sorted(float(x) for x in range(1, 101))
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile([5.0], 99) == 5.0
        with pytest.raises(ValueError):
            percentile(samples, 0)

    def test_schedule_is_deterministic(self):
        mix = workload_mix(("BFS", "CComp"), scale=0.05)
        a = schedule(mix, 50, seed=3)
        b = schedule(mix, 50, seed=3)
        assert a == b
        assert schedule(mix, 50, seed=4) != a
        with pytest.raises(ValueError):
            schedule([], 10)

    def test_mix_spans_combinations(self):
        mix = workload_mix(("BFS", "TC"), ("ldbc", "roadnet"),
                           scale=0.05, seeds=2)
        assert len(mix) == 8
        assert all(isinstance(q, Query) and q.op == "run" for q in mix)

    def test_closed_loop_run_against_live_server(self):
        with ServiceThread(_inline_service()) as st:
            mix = workload_mix(("BFS", "CComp"), scale=0.03)
            for q in mix:
                q.params["machine"] = "test"
            plan = schedule(mix, 30, seed=1)
            report = LoadGenerator(st.host, st.port,
                                   concurrency=4).run(plan)
        assert report.requests == 30
        assert report.ok == 30 and report.failed == 0
        assert report.throughput_rps > 0
        s = report.summary()
        assert s["latency_ms"]["p50"] <= s["latency_ms"]["p99"]
        assert sum(report.served.values()) == 30
        # duplicate-heavy mix: only 2 distinct queries actually execute
        assert report.served.get("executed", 0) <= 2

    def test_failures_counted_by_kind(self):
        doomed = Cell(workload="BFS", dataset="ldbc", scale=0.03,
                      seed=0, machine="test")
        chaos = ChaosSpec(faults={doomed.cell_id: Fault("crash")})
        with ServiceThread(_inline_service(chaos=chaos)) as st:
            plan = [Query("run", {"workload": "BFS", "dataset": "ldbc",
                                  "scale": 0.03, "machine": "test"})] * 4
            report = LoadGenerator(st.host, st.port,
                                   concurrency=2).run(plan)
        assert report.failed == 4
        assert set(report.failures_by_kind) <= \
            {"crash", "retries-exhausted"}


# -- harness memo on the shared LRU ------------------------------------------

class TestHarnessMemo:
    def test_characterize_memoizes_through_lru(self):
        from repro.datagen.registry import make
        from repro.harness import cache_stats, characterize, clear_cache
        from repro.arch.machine import TEST_MACHINE

        clear_cache()
        spec = make("ldbc", scale=0.03)
        before = cache_stats()["rows"]["hits"]
        row1 = characterize("BFS", spec, machine=TEST_MACHINE)
        row2 = characterize("BFS", spec, machine=TEST_MACHINE)
        assert row1 is row2
        assert cache_stats()["rows"]["hits"] == before + 1

    def test_memo_false_bypasses_cache(self):
        from repro.datagen.registry import make
        from repro.harness import characterize, clear_cache
        from repro.arch.machine import TEST_MACHINE

        clear_cache()
        spec = make("ldbc", scale=0.03)
        row1 = characterize("BFS", spec, machine=TEST_MACHINE, memo=False)
        row2 = characterize("BFS", spec, machine=TEST_MACHINE, memo=False)
        assert row1 is not row2

    def test_clear_cache_empties(self):
        from repro.datagen.registry import make
        from repro.harness import characterize, clear_cache
        from repro.harness.runner import _CACHE
        from repro.arch.machine import TEST_MACHINE

        clear_cache()
        characterize("BFS", make("ldbc", scale=0.03),
                     machine=TEST_MACHINE)
        assert len(_CACHE) == 1
        clear_cache()
        assert len(_CACHE) == 0


# -- protocol version handshake ----------------------------------------------

def _one_shot_server(reply: bytes) -> int:
    """A fake peer: accept one connection, read one line, answer
    ``reply`` verbatim.  Returns the bound port."""
    import socket

    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    port = srv.getsockname()[1]

    def serve() -> None:
        conn, _ = srv.accept()
        with conn:
            conn.recv(1 << 16)
            conn.sendall(reply)
        srv.close()

    threading.Thread(target=serve, daemon=True).start()
    return port


class TestVersionHandshake:
    def test_frame_version_mismatch_is_typed(self):
        """A peer speaking a different protocol release raises
        VersionMismatch carrying both versions — not the generic
        undecodable-frame ProtocolError it used to."""
        from repro.core.errors import VersionMismatch

        reply = (json.dumps({"v": 2, "id": "c1", "ok": True,
                             "result": {"pong": True}}) + "\n").encode()
        port = _one_shot_server(reply)
        with ServiceClient("127.0.0.1", port, timeout_s=10) as client:
            with pytest.raises(VersionMismatch) as exc:
                client.request("ping")
        assert isinstance(exc.value, ProtocolError)
        assert exc.value.ours == 1
        assert exc.value.theirs == 2
        assert "version mismatch" in str(exc.value)

    def test_ping_checks_reported_protocol(self):
        """A well-framed ping whose *result* reports a different
        protocol release still fails the handshake, typed."""
        from repro.core.errors import VersionMismatch

        reply = (json.dumps({"v": 1, "id": "c1", "ok": True,
                             "result": {"pong": True,
                                        "protocol": 99}}) + "\n").encode()
        port = _one_shot_server(reply)
        with ServiceClient("127.0.0.1", port, timeout_s=10) as client:
            with pytest.raises(VersionMismatch) as exc:
                client.ping()
        assert exc.value.theirs == 99

    def test_garbage_is_still_plain_protocol_error(self):
        from repro.core.errors import VersionMismatch

        port = _one_shot_server(b"not json at all\n")
        with ServiceClient("127.0.0.1", port, timeout_s=10) as client:
            with pytest.raises(ProtocolError) as exc:
                client.request("ping")
        assert not isinstance(exc.value, VersionMismatch)

    def test_live_server_passes_handshake_and_health(self):
        with ServiceThread(_inline_service()) as st:
            with ServiceClient(st.host, st.port) as client:
                assert client.ping()["pong"] is True
                health = client.health()
                assert health["ok"] is True
                assert health["protocol"] == 1
                # cluster-layer ops are rejected with a *typed* error
                # naming the right layer, not a framing failure
                with pytest.raises(RemoteError) as exc:
                    client.shard_info()
                assert exc.value.kind == "bad-request"
                assert "cluster" in str(exc.value)
