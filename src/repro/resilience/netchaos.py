"""Network chaos: a deterministic TCP fault-injection proxy.

Where the tests' cell faults (``tests/faults.py``) perturb *execution*
(worker crashes, stalls, OOMs), this module perturbs the *wire*.  A
:class:`ChaosProxy` sits between the router and one shard as
a real TCP interposer — the router dials the proxy, the proxy dials the
shard — and injects the failure modes distributed systems actually meet:

* **latency** — per-chunk forwarding delay with seeded jitter;
* **bandwidth throttling** — pacing sleeps sized to a bits-per-second
  budget;
* **connection resets** — a hard RST (``SO_LINGER 0``) after a seeded
  byte offset mid-stream;
* **payload corruption** — a seeded byte flipped in a forwarded chunk,
  which the JSON-lines protocol must reject as a typed frame error;
* **black-hole partitions** — bytes are read and discarded, nothing is
  ever answered: the connection hangs until the *client's* deadline
  machinery gives up (the fault that distinguishes deadline propagation
  from wishful timeouts);
* **slow-loris half-writes** — the response is forwarded up to a byte
  budget and then stalls, testing the reader's *total-read* deadline
  rather than a per-``recv`` timeout.

Determinism: every connection draws its fault decisions from
``random.Random(f"netchaos:{seed}:{conn_id}")`` where ``conn_id`` is the
proxy's accept counter — the same seed and arrival order reproduce the
same faults, so chaos benchmarks are replayable.

Faults can be swapped at runtime (:meth:`ChaosProxy.set_faults`):
already-open connections pick up the new spec on their next chunk,
which is how a benchmark black-holes a live shard mid-run.

Pure stdlib ``threading`` + ``socket`` — the proxy must keep working
while the router's asyncio loop is saturated, and must interpose the
*real* kernel TCP path, not a mocked stream.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
from dataclasses import dataclass

from ..obs.logs import get_logger

log = get_logger("resilience.netchaos")

#: Forwarding chunk size.  Small enough that latency/bandwidth shaping
#: has sub-frame granularity, large enough to not dominate CPU.
_CHUNK = 2048

#: Pump-loop socket timeout: how quickly a pump notices a fault swap or
#: proxy shutdown.
_TICK_S = 0.05


@dataclass(frozen=True)
class NetFaultSpec:
    """What to do to traffic through one proxy.

    The zero value is a transparent proxy.  Probabilities are per
    connection; byte offsets and delays are drawn from the connection's
    seeded RNG.
    """

    latency_ms: float = 0.0          # per-chunk forwarding delay
    jitter_ms: float = 0.0           # uniform extra, seeded per chunk
    bandwidth_bps: float | None = None   # throttle (bits/second)
    reset_p: float = 0.0             # P(connection gets RST mid-stream)
    reset_after_bytes: int = 4096    # max seeded offset for the RST
    corrupt_p: float = 0.0           # P(one byte flipped per connection)
    blackhole: bool = False          # read and discard; never answer
    stall_after_bytes: int | None = None  # slow-loris: answer then stall

    def __post_init__(self):
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ValueError("latency/jitter must be >= 0")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        for name, p in (("reset_p", self.reset_p),
                        ("corrupt_p", self.corrupt_p)):
            if not 0 <= p <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.stall_after_bytes is not None \
                and self.stall_after_bytes < 0:
            raise ValueError("stall_after_bytes must be >= 0")


class _ConnPlan:
    """Per-connection fault decisions, drawn once from the seeded RNG so
    both pump directions agree on them."""

    def __init__(self, spec: NetFaultSpec, rng: random.Random):
        self.rng = rng
        self.reset_at: int | None = None
        if spec.reset_p > 0 and rng.random() < spec.reset_p:
            self.reset_at = rng.randrange(1, spec.reset_after_bytes + 1)
        self.corrupt = spec.corrupt_p > 0 \
            and rng.random() < spec.corrupt_p
        self.corrupted_yet = False
        self.forwarded = 0               # bytes, both directions


class ChaosProxy:
    """A TCP interposer in front of one upstream address.

    Context-manager; :meth:`start` binds an ephemeral listener and
    returns ``(host, port)`` — point the router at it instead of the
    shard.  A connection to a dead upstream is answered with an
    immediate close (the transport failure the router's failover path
    expects from a down shard).
    """

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 faults: NetFaultSpec | None = None, seed: int = 0,
                 host: str = "127.0.0.1", name: str = ""):
        self.upstream = (upstream_host, upstream_port)
        self.seed = seed
        self.name = name or f"{upstream_host}:{upstream_port}"
        self._faults = faults or NetFaultSpec()
        self._listen_host = host
        self.host: str | None = None
        self.port: int | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._conn_id = 0
        self._open_socks: set[socket.socket] = set()
        self.stats: dict[str, int] = {
            "connections": 0, "bytes_up": 0, "bytes_down": 0,
            "resets": 0, "corrupted": 0, "blackholed_chunks": 0,
            "stalled": 0, "upstream_refused": 0}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._listen_host, 0))
        listener.listen(64)
        listener.settimeout(_TICK_S)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"netchaos-{self.name}",
            daemon=True)
        self._accept_thread.start()
        return self.host, self.port

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            self._listener.close()
        with self._lock:
            socks = list(self._open_socks)
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        if self._listener is None:       # not already started by hand
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- fault control -------------------------------------------------------

    @property
    def faults(self) -> NetFaultSpec:
        with self._lock:
            return self._faults

    def set_faults(self, faults: NetFaultSpec) -> None:
        """Swap the fault spec; live connections see it next chunk."""
        with self._lock:
            self._faults = faults
        log.info("proxy %s faults -> %r", self.name, faults,
                 extra={"proxy": self.name})

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.stats[key] += n

    # -- the proxy machinery -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                self._conn_id += 1
                conn_id = self._conn_id
                self.stats["connections"] += 1
                self._open_socks.add(client)
            threading.Thread(
                target=self._serve_conn, args=(client, conn_id),
                name=f"netchaos-{self.name}-{conn_id}",
                daemon=True).start()

    def _serve_conn(self, client: socket.socket, conn_id: int) -> None:
        rng = random.Random(f"netchaos:{self.seed}:{conn_id}")
        plan = _ConnPlan(self.faults, rng)
        try:
            upstream = socket.create_connection(self.upstream,
                                                timeout=5.0)
        except OSError:
            # dead upstream: the refused/reset the router would have
            # seen dialing the shard directly
            self._count("upstream_refused")
            self._close_rst(client)
            return
        with self._lock:
            self._open_socks.add(upstream)
        up = threading.Thread(
            target=self._pump, args=(client, upstream, plan, "up"),
            daemon=True)
        down = threading.Thread(
            target=self._pump, args=(upstream, client, plan, "down"),
            daemon=True)
        up.start()
        down.start()

    def _close_rst(self, sock: socket.socket) -> None:
        """Close with RST (linger 0) — an abortive close, not FIN."""
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
        with self._lock:
            self._open_socks.discard(sock)

    def _close_pair(self, a: socket.socket, b: socket.socket,
                    rst: bool = False) -> None:
        for sock in (a, b):
            if rst:
                self._close_rst(sock)
            else:
                try:
                    sock.close()
                except OSError:
                    pass
                with self._lock:
                    self._open_socks.discard(sock)

    def _pump(self, src: socket.socket, dst: socket.socket,
              plan: _ConnPlan, direction: str) -> None:
        """Forward src -> dst, applying the live fault spec per chunk.

        ``direction`` is ``"up"`` (client to shard) or ``"down"``
        (shard's response back to the client).
        """
        try:
            src.settimeout(_TICK_S)
        except OSError:      # the peer pump already reset and closed the pair
            return
        sent_down = 0                    # this pump's forwarded bytes
        stalled = False
        while not self._stop.is_set():
            try:
                chunk = src.recv(_CHUNK)
            except socket.timeout:
                continue
            except OSError:
                break
            if not chunk:
                break
            spec = self.faults
            if spec.blackhole:
                # read and discard: the peer sees a live connection
                # that never answers — only a deadline ends the wait
                self._count("blackholed_chunks")
                continue
            if stalled:
                continue                 # slow-loris: swallow the rest
            if spec.latency_ms > 0 or spec.jitter_ms > 0:
                delay = spec.latency_ms / 1e3
                if spec.jitter_ms > 0:
                    delay += plan.rng.uniform(0, spec.jitter_ms) / 1e3
                self._stop.wait(delay)
            if plan.corrupt and not plan.corrupted_yet:
                buf = bytearray(chunk)
                buf[plan.rng.randrange(len(buf))] ^= 0xFF
                chunk = bytes(buf)
                plan.corrupted_yet = True
                self._count("corrupted")
            if direction == "down" and spec.stall_after_bytes is not None:
                room = spec.stall_after_bytes - sent_down
                if room <= 0:
                    stalled = True
                    self._count("stalled")
                    continue
                if len(chunk) > room:
                    chunk = chunk[:room]
                    stalled = True
                    self._count("stalled")
            try:
                dst.sendall(chunk)
            except OSError:
                break
            plan.forwarded += len(chunk)
            sent_down += len(chunk)
            self._count("bytes_up" if direction == "up"
                        else "bytes_down", len(chunk))
            if plan.reset_at is not None \
                    and plan.forwarded >= plan.reset_at:
                self._count("resets")
                self._close_pair(src, dst, rst=True)
                return
            if spec.bandwidth_bps is not None:
                self._stop.wait(len(chunk) * 8 / spec.bandwidth_bps)
        self._close_pair(src, dst)
