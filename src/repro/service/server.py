"""The graph-query service: a long-lived asyncio TCP server.

Turns the batch characterization machinery into a traffic-serving system:
connections speak the JSON-lines protocol (:mod:`~repro.service.protocol`),
requests flow through the admission-controlled coalescing scheduler
(:mod:`~repro.service.scheduler`) into the isolated worker pool
(:mod:`~repro.service.pool`), and results come back as the same flat row
records the checkpoint journal uses.

The operations are the rows of :data:`~repro.service.protocol.OPS`.

A failure in one request — including a chaos-killed worker subprocess —
becomes a typed error frame on that request's connection; every other
in-flight request proceeds undisturbed.

:class:`FrameServer` is the front door itself — the listen/stop
lifecycle and the frame loop — shared with the cluster router;
:class:`GraphService` is what this node dispatches a parsed request to.
:class:`ServiceThread` hosts the event loop on a background thread for
blocking callers (tests, the load generator, demos).
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from typing import Any

from .. import __version__
from ..core.errors import BadRequest, DeadlineExceeded, ProtocolError
from ..obs.logs import get_logger
from ..obs.metrics import MetricsRegistry
from ..resilience.cell import MACHINES, Cell
from ..resilience.chaos import ChaosSpec
from .cache import CacheTiers
from .pool import PoolConfig, WorkerPool
from .protocol import (
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    Request,
    check_params,
    decode_frame,
    encode_error,
    encode_response,
    identity,
    parse_request,
)
from .scheduler import Scheduler

log = get_logger("service.server")


def workloads_payload() -> list[dict[str, Any]]:
    """The Table 4 registry as JSON-ready rows (shared with ``list
    --json``)."""
    from ..workloads import table4
    return [{"workload": r.workload, "category": r.category,
             "ctype": r.computation_type, "gpu": r.gpu,
             "algorithm": r.algorithm} for r in table4()]


def datasets_payload() -> list[dict[str, Any]]:
    """The dataset registry as JSON-ready rows (shared with ``datasets
    --json``)."""
    from ..datagen.registry import REGISTRY
    return [{"key": key, "name": e.name, "source": e.source.name,
             "paper_vertices": e.paper_vertices,
             "paper_edges": e.paper_edges,
             "default_vertices": e.default_vertices}
            for key, e in REGISTRY.items()]


def cell_from_params(params: dict[str, Any]) -> Cell:
    """Validate request params into a Cell; raise ``BadRequest`` on any
    name or value that can never execute."""
    from ..workloads import WORKLOADS

    workload = params.get("workload")
    if not isinstance(workload, str) or workload not in WORKLOADS:
        raise BadRequest(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(sorted(WORKLOADS))}")
    dataset, scale, seed = identity(params, OPS["run"].scale)
    machine = params.get("machine", "scaled")
    if machine not in MACHINES:
        raise BadRequest(f"unknown machine {machine!r}; "
                         f"choose from {', '.join(sorted(MACHINES))}")
    return Cell(workload=workload, dataset=dataset, scale=scale,
                seed=seed, machine=machine,
                with_gpu=bool(params.get("gpu", False)))


class FrameProtocol(asyncio.Protocol):
    """One end of a hop: the JSON-lines transport a :class:`FrameServer`
    serves each connection with and the cluster router pools toward
    each shard.

    It owns the connection's one byte buffer, split on ``\\n``.  A
    reader awaits one pending future at a time, :meth:`frame`; an
    exchange's timer may fail that future, and the connection is then
    closed by whoever owns it.  Reading pauses while more than
    ``MAX_FRAME_BYTES`` is buffered and resumes as frames are taken;
    :meth:`drain` waits out the transport's ``pause_writing``.  EOF
    leaves the connection half-open, so a last error frame still goes
    out.  ``serve`` (a server's) is started as the connection's task
    once it is made.
    """

    def __init__(self, serve=None):
        self._serve = serve
        self.transport: asyncio.Transport | None = None
        self._buf = bytearray()
        self._waiter: asyncio.Future | None = None
        self._eof = False
        self._error: BaseException | None = None
        self._paused = False
        self._writable: asyncio.Future | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        if self._serve is not None:
            asyncio.get_running_loop().create_task(self._serve(self))

    def data_received(self, data: bytes) -> None:
        self._buf += data
        if len(self._buf) > MAX_FRAME_BYTES and not self._paused:
            self._paused = True
            self.transport.pause_reading()
        self._wake()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True

    def connection_lost(self, exc: Exception | None) -> None:
        self._eof = True
        self._error = exc
        self._wake()
        self.resume_writing()

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        if self._writable is not None:
            self._writable.set_result(None)
            self._writable = None

    def _take(self) -> bytes | None:
        """The next whole frame off the buffer, ``b""`` at a clean EOF,
        None until one of those has arrived; raises ``ProtocolError``
        on an oversize or truncated frame, and the connection's error
        once it is lost."""
        buf = self._buf
        nl = buf.find(b"\n")
        if nl > MAX_FRAME_BYTES or nl < 0 and len(buf) > MAX_FRAME_BYTES:
            raise ProtocolError("frame exceeds size limit")
        if nl >= 0:
            line = bytes(buf[:nl + 1])
            del buf[:nl + 1]
            if self._paused and len(buf) <= MAX_FRAME_BYTES:
                self._paused = False
                self.transport.resume_reading()
            return line
        if self._error is not None:
            raise self._error
        if not self._eof:
            return None
        if buf:
            raise ProtocolError("truncated frame at EOF")
        return b""

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is None or waiter.done():
            return
        try:
            line = self._take()
        except Exception as e:  # noqa: BLE001 — the reader's to raise
            self._waiter = None
            waiter.set_exception(e)
            return
        if line is not None:
            self._waiter = None
            waiter.set_result(line)

    def frame(self) -> asyncio.Future:
        """A future of the next frame: one ``\\n``-ended line, or
        ``b""`` once the peer has closed cleanly between frames."""
        self._waiter = waiter = asyncio.get_running_loop().create_future()
        self._wake()
        return waiter

    async def drain(self) -> None:
        if self._writable is not None:
            await self._writable


class FrameServer:
    """The one front door: a JSON-lines TCP server.

    Owns the listen/stop lifecycle, the connection-task set, the frame
    loop over each connection's :class:`FrameProtocol` (take a frame,
    parse, dispatch, answer — every failure, an oversize or truncated
    frame included, a typed error frame on that connection only)
    and the front-door metric families ``<prefix>_errors_total``,
    ``<prefix>_request_latency_ms``, ``<prefix>_bytes_{received,sent}_
    total`` and ``<prefix>_connections_{total,active}``.  A subclass
    supplies :meth:`_dispatch` and extends :meth:`stop` with its own
    teardown; :class:`ServiceThread` hosts any of them.
    """

    def __init__(self, prefix: str,
                 registry: MetricsRegistry | None = None):
        self._conn_tasks: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None
        self.host: str | None = None
        self.port: int | None = None
        # one registry per serving instance: every layer binds onto it,
        # and the `stats` op / Prometheus scrape read one snapshot
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        reg = self.registry
        self._m_err = reg.counter(
            f"{prefix}_errors_total",
            "error responses, by op and taxonomy kind",
            labels=("op", "kind"))
        self._m_lat = reg.histogram(
            f"{prefix}_request_latency_ms",
            "request handling latency (ms), by op", labels=("op",))
        # .labels() with no arguments resolves an unlabeled family to its
        # sole child, skipping the proxy indirection on every increment
        self._m_rx = reg.counter(
            f"{prefix}_bytes_received_total",
            "request bytes read (flushed when a connection "
            "closes)").labels()
        self._m_tx = reg.counter(
            f"{prefix}_bytes_sent_total",
            "response bytes written (flushed when a connection "
            "closes)").labels()
        self._m_conn = reg.counter(
            f"{prefix}_connections_total", "connections accepted").labels()
        self._m_conn_active = reg.gauge(
            f"{prefix}_connections_active", "currently open connections")
        # resolved per-op histogram children, cached off the hot path
        # (the op set is bounded: the validated OPS plus "_frame")
        self._op_children: dict[str, Any] = {}

    def _op_latency(self, op: str):
        """The latency-histogram child for ``op``, cached."""
        child = self._op_children.get(op)
        if child is None:
            child = self._m_lat.labels(op=op)
            self._op_children[op] = child
        return child

    async def _dispatch(self, req: Request) -> Any:
        """Answer one parsed request (the result goes on the wire; a
        raised exception becomes a typed error frame)."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and listen; returns the bound port (``port=0`` picks one)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: FrameProtocol(self._handle), host, port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening and end every open connection."""
        if self._server is not None:
            self._server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        if self._server is not None:
            # after the connections: from 3.12 this waits for them too
            await self._server.wait_closed()

    # -- connection handling -------------------------------------------------

    async def _handle(self, conn: FrameProtocol) -> None:
        self._m_conn.inc()
        self._m_conn_active.inc()
        log.debug("connection opened")
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        # byte counts accumulate in locals and flush to the registry once
        # at connection close: the counters stay exact without paying two
        # locked increments per request on the hot path
        rx = tx = 0

        def send(data: bytes) -> None:
            nonlocal tx
            conn.transport.write(data)
            tx += len(data)

        try:
            while True:
                try:
                    line = await conn.frame()
                except ProtocolError as e:
                    # oversize, or EOF mid-frame: the peer died mid-write
                    self._m_err.labels(op="_frame", kind=e.kind).inc()
                    send(encode_error(None, e))
                    await conn.drain()
                    break
                if not line:
                    break                      # clean EOF between frames
                rx += len(line)
                req_id: str | None = None
                op = "_frame"                  # until the frame parses
                t0 = time.perf_counter()
                try:
                    req = parse_request(decode_frame(line))
                    req_id = req.id
                    op = req.op
                    result = await self._dispatch(req)
                    send(encode_response(req_id, result))
                except Exception as e:  # noqa: BLE001 — typed onto the wire
                    kind = getattr(e, "kind", None)
                    self._m_err.labels(
                        op=op,
                        kind=kind if isinstance(kind, str)
                        else "internal").inc()
                    send(encode_error(req_id, e))
                finally:
                    self._op_latency(op).observe(
                        (time.perf_counter() - t0) * 1e3)
                await conn.drain()
        except ConnectionError:
            pass                               # peer vanished mid-response
        finally:
            self._m_rx.inc(rx)
            self._m_tx.inc(tx)
            self._m_conn_active.dec()
            log.debug("connection closed")
            conn.transport.close()


class GraphService(FrameServer):
    """One serving instance: caches + pool + scheduler behind the
    :class:`FrameServer` front door."""

    def __init__(self, *, pool_config: PoolConfig | None = None,
                 max_pending: int = 64,
                 caches: CacheTiers | None = None,
                 chaos: ChaosSpec | None = None,
                 registry: MetricsRegistry | None = None,
                 governor: "TenantGovernor | None" = None):
        from ..dynamic import OP_KINDS, DynamicEngine
        from ..query import QueryEngine
        super().__init__("service", registry)
        self.caches = caches if caches is not None else CacheTiers.build()
        self.dynamic = DynamicEngine()
        self.query_engine = QueryEngine(self.dynamic)
        # a capacity-0 row tier means "recompute every request": the
        # harness memo under the pool must not answer in its place
        self.pool = WorkerPool(pool_config, chaos=chaos,
                               caches=self.caches,
                               memoize=self.caches.rows.capacity > 0,
                               registry=self.registry)
        # optional multi-tenant QoS: absent, the scheduler hot path is
        # the single-tenant one unchanged
        self.governor = governor
        self.scheduler = Scheduler(self.pool, self.caches,
                                   max_pending=max_pending,
                                   governor=governor,
                                   registry=self.registry)
        # every request observes exactly one latency sample, so the
        # request counter is the histogram's per-op count — derived at
        # snapshot time instead of paying a second locked increment
        self.registry.register_collector(self._collect_requests)
        self.caches.bind_metrics(self.registry)
        # op name -> handler; an op without one is refused, typed.  A
        # loop handler takes the request (and may be a coroutine), an
        # executor handler is the engine's own method over the params
        self._handlers: dict[str, Any] = {
            "ping": self._ping, "health": self._health,
            "workloads": lambda req: workloads_payload(),
            "datasets": self._datasets,
            "stats": lambda req: self.stats(),
            "run": self._run, "characterize": self._characterize,
            "mutate": self.dynamic.mutate,
            # each mutation kind is also a wire op of its own
            **{kind: functools.partial(self.dynamic.mutate_one, kind)
               for kind in OP_KINDS},
            "dyn_query": self.dynamic.query,
            "query": self.query_engine.query,
            "explain": self.query_engine.explain,
            "dyn_export": self.dynamic.export_dataset,
            "dyn_import": self.dynamic.import_dataset}

    def _collect_requests(self) -> dict[str, Any]:
        samples = [{"labels": s["labels"], "value": float(s["count"])}
                   for s in self._m_lat.snapshot()["samples"]]
        return {"service_requests_total": {
            "type": "counter",
            "help": "requests received, by op (every request lands one "
                    "latency observation; unparseable frames count "
                    "under op=\"_frame\")",
            "samples": samples}}

    async def stop(self) -> None:
        await super().stop()
        await self.scheduler.drain()
        self.pool.shutdown()

    async def _dispatch(self, req: Request, pipeline=None) -> Any:
        """``pipeline``: the parse of a DSL op's text when the caller
        already has it (a shard parses to find the owner), handed to the
        engine so the text is parsed once."""
        op = OPS[req.op]
        handler = self._handlers.get(req.op)
        if handler is None:
            raise BadRequest(f"operation {req.op!r} is served by the "
                             "cluster layer (a shard or router), not a "
                             "standalone service")
        check_params(op, req.params)
        if not op.blocking:
            result = handler(req)
            return await result if asyncio.iscoroutine(result) else result
        # engine ops run on the default executor so the event loop never
        # stalls: a pipeline-DSL query runs whole kernels, a dynamic op
        # — dict-probe cheap as a rule — may pay a first-touch base
        # generation or an incremental refresh, a migration transfer
        # walks a whole store.  The wire deadline sheds already-expired
        # work first.
        if req.expired():
            raise DeadlineExceeded(f"{op.family}-dispatch",
                                   -req.remaining(), 0.0)
        args = (req.params,) if pipeline is None else (req.params, pipeline)
        return await asyncio.get_running_loop().run_in_executor(
            None, handler, *args)

    def _ping(self, req: Request) -> dict[str, Any]:
        return {"pong": True, "protocol": PROTOCOL_VERSION,
                "server": __version__}

    def _health(self, req: Request) -> dict[str, Any]:
        # the cluster liveness probe; a plain service is always "up"
        # while it can answer at all
        return {"ok": True, "protocol": PROTOCOL_VERSION,
                "server": __version__}

    def _datasets(self, req: Request) -> list[dict[str, Any]]:
        return datasets_payload()

    async def _characterize(self, req: Request) -> dict[str, Any]:
        # the wire deadline rides into the scheduler, which sheds
        # already-expired work
        return await self.scheduler.submit(
            cell_from_params(req.params), deadline=req.deadline,
            tenant=req.tenant)

    async def _run(self, req: Request) -> dict[str, Any]:
        # the same execution as characterize; less of the record goes
        # back over the wire
        record = await self._characterize(req)
        return {"workload": record["workload"],
                "dataset": record["dataset"],
                "outputs": record.get("outputs", {}),
                "elapsed_s": record.get("elapsed_s"),
                "served": record.get("served"),
                "attempts": record.get("attempts")}

    def stats(self) -> dict[str, Any]:
        """The ``stats`` answer: the registry snapshot (every counter,
        gauge and histogram) plus the state no family reports."""
        payload = {"protocol": PROTOCOL_VERSION,
                   "server": __version__,
                   "dynamic": self.dynamic.stats(),
                   "query": self.query_engine.stats(),
                   "metrics": self.registry.snapshot()}
        if self.governor is not None:
            payload["tenancy"] = self.governor.stats()
        return payload


class ServiceThread:
    """Host a :class:`FrameServer` (a :class:`GraphService`, a shard, or
    the cluster router) on a daemon thread running its event loop.

    Context-manager: entering starts the loop and binds the socket
    (``host``/``port`` attributes are then live); exiting stops the
    server, drains in-flight work, and joins the thread.  This is the
    serving harness for blocking callers — tests, the load generator,
    the throughput benchmark.
    """

    def __init__(self, service: FrameServer | None = None, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service or GraphService()
        self._want_host = host
        self._want_port = port
        self.host: str | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as e:  # noqa: BLE001 — surfaced on __enter__
            self._error = e
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start(self._want_host, self._want_port)
        self.host, self.port = self.service.host, self.service.port
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
