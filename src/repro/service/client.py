"""Blocking client for the graph-query service.

One TCP connection, synchronous request/response over the JSON-lines
protocol.  Server-side failures come back as raised exceptions carrying
the wire taxonomy: :class:`~repro.core.errors.AdmissionRejected` for
backpressure, :class:`~repro.core.errors.ProtocolError` for framing
violations, :class:`~repro.core.errors.RemoteError` (with ``kind``
preserved — ``crash``, ``timeout``, ``bad-request`` ...) for everything
else.  A client is single-threaded by design; the load generator opens
one per worker.

``timeout_s`` bounds every request's *whole round trip* — connect, send,
and however many ``recv`` calls the response takes.  The socket timeout
is re-armed with the remaining budget before each blocking operation, so
a peer that dribbles one byte per interval (slow-loris) cannot hold a
request open forever; when the budget runs out the request fails with a
typed :class:`~repro.core.errors.DeadlineExceeded` (stage ``client``)
and the connection — possibly holding a half-read response — is dropped
so the next request starts on a clean stream.

``deadline_s`` on :meth:`request` additionally *propagates* the budget:
the frame carries an absolute deadline the server and router use to shed
work this client will no longer wait for.
"""

from __future__ import annotations

import socket
import time
from typing import Any

from ..core.errors import DeadlineExceeded, ProtocolError, VersionMismatch
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_request,
    payload_to_error,
)

DEFAULT_PORT = 7421

_RECV_CHUNK = 1 << 16


class ServiceClient:
    """Synchronous connection to a :class:`~repro.service.server.GraphService`."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 *, timeout_s: float | None = 300.0,
                 tenant: str | None = None):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        #: optional tenant identity stamped on every request frame —
        #: ``None`` keeps the frames byte-identical to a pre-tenancy
        #: client's
        self.tenant = tenant
        self._sock: socket.socket | None = None
        self._buf = bytearray()
        self._seq = 0

    # -- lifecycle -----------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s)
            self._buf.clear()
        return self

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buf.clear()

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- deadline-bounded transport -------------------------------------------

    def _arm(self, deadline: float | None, budget_s: float,
             t0: float) -> None:
        """Set the socket timeout to the remaining budget, raising the
        typed deadline error when it is already spent."""
        if deadline is None:
            return
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            self.close()
            raise DeadlineExceeded("client", time.monotonic() - t0,
                                   budget_s)
        self._sock.settimeout(remaining)

    def _read_frame(self, deadline: float | None, budget_s: float,
                    t0: float) -> bytes:
        """One ``\\n``-terminated line, re-arming the timeout per recv."""
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[:nl + 1])
                del self._buf[:nl + 1]
                return line
            if len(self._buf) > MAX_FRAME_BYTES:
                self.close()
                raise ProtocolError(
                    f"response frame exceeds {MAX_FRAME_BYTES} bytes")
            self._arm(deadline, budget_s, t0)
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except socket.timeout:
                self.close()
                raise DeadlineExceeded(
                    "client", time.monotonic() - t0, budget_s) from None
            if not chunk:
                self.close()
                if self._buf:
                    raise ProtocolError("truncated response frame")
                raise ProtocolError("connection closed before response")
            self._buf.extend(chunk)

    # -- request/response ----------------------------------------------------

    def request(self, op: str, *, deadline_s: float | None = None,
                **params: Any) -> Any:
        """Send one request, block for its response, return the result.

        Raises the rehydrated typed error if the server answered with a
        failure frame, :class:`ProtocolError` if the connection died or
        the response could not be decoded, or
        :class:`~repro.core.errors.DeadlineExceeded` when the round trip
        outlives the budget (``deadline_s`` if given, else the client's
        ``timeout_s``).  ``deadline_s`` also rides the wire as an
        absolute deadline for downstream shedding.
        """
        t0 = time.monotonic()
        budget = deadline_s if deadline_s is not None else self.timeout_s
        deadline = t0 + budget if budget is not None else None
        wire_deadline = (time.time() + deadline_s
                         if deadline_s is not None else None)
        try:
            self.connect()
        except socket.timeout:
            raise DeadlineExceeded("client", time.monotonic() - t0,
                                   budget) from None
        self._seq += 1
        req_id = f"c{self._seq}"
        payload = encode_request(op, req_id, params,
                                 deadline=wire_deadline,
                                 tenant=self.tenant)
        try:
            self._arm(deadline, budget, t0)
            self._sock.sendall(payload)
        except socket.timeout:
            self.close()
            raise DeadlineExceeded("client", time.monotonic() - t0,
                                   budget) from None
        line = self._read_frame(deadline, budget, t0)
        # decode_frame raises VersionMismatch (a typed ProtocolError
        # subclass carrying both versions) when the server answers in a
        # protocol release this client does not speak — distinct from a
        # garbage/truncation decode failure, so callers can report "the
        # server is a different version" precisely
        frame = decode_frame(line)
        if frame.get("id") not in (req_id, None):
            raise ProtocolError(f"response id {frame.get('id')!r} does not "
                                f"match request id {req_id!r}")
        if frame.get("ok"):
            return frame.get("result")
        error = frame.get("error")
        if not isinstance(error, dict):
            raise ProtocolError(f"malformed failure frame: {frame!r}")
        raise payload_to_error(error)

    # -- convenience ---------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Liveness + version handshake.

        Raises :class:`~repro.core.errors.VersionMismatch` when the
        server *reports* a protocol release other than ours even though
        the frame itself decoded (a forward-compatible server answering
        a downlevel client in the client's framing).
        """
        result = self.request("ping")
        theirs = (result or {}).get("protocol")
        if theirs != PROTOCOL_VERSION:
            raise VersionMismatch(PROTOCOL_VERSION, theirs)
        return result

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def mutate(self, dataset: str, ops: list[dict[str, Any]], *,
               scale: float = 0.05, seed: int = 0,
               strict: bool = False) -> dict[str, Any]:
        """Apply one atomic mutation batch; returns the new version."""
        return self.request("mutate", dataset=dataset, scale=scale,
                            seed=seed, ops=ops, strict=strict)

    def query_lang(self, q: str) -> dict[str, Any]:
        """Execute one pipeline-DSL query (``from twitter | ...``);
        returns the result table plus the plan digest that served it."""
        return self.request("query", q=q)
