"""The one frame transport, :class:`~repro.service.server.FrameProtocol`,
as the router's end of a hop uses it: frames split and joined however
TCP delivers them, truncation and oversize refused, reading paused and
resumed at the frame limit, writes held while the transport is paused,
and a pooled shard connection reused only after a clean exchange."""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.cluster import ShardAddress
from repro.cluster.router import _ShardLink
from repro.core.errors import ProtocolError
from repro.service.protocol import MAX_FRAME_BYTES
from repro.service.server import FrameProtocol


class _Transport:
    """Records what a protocol asks of its transport."""

    def __init__(self):
        self.sent: list[bytes] = []
        self.reading: list[bool] = []          # pause/resume calls, in order
        self.closing = False

    def write(self, data: bytes) -> None:
        self.sent.append(data)

    def pause_reading(self) -> None:
        self.reading.append(False)

    def resume_reading(self) -> None:
        self.reading.append(True)

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True


def _run(scenario):
    """Run ``scenario(conn, transport)`` on a fresh loop."""
    async def main():
        conn, transport = FrameProtocol(), _Transport()
        conn.connection_made(transport)
        return await scenario(conn, transport)
    return asyncio.run(main())


class TestFraming:
    def test_two_frames_in_one_segment(self):
        async def scenario(conn, _):
            conn.data_received(b'{"a":1}\n{"b":2}\n')
            return [await conn.frame(), await conn.frame()]
        assert _run(scenario) == [b'{"a":1}\n', b'{"b":2}\n']

    def test_one_frame_byte_at_a_time(self):
        line = b'{"id":"s-1","ok":true,"result":{"n":7},"v":1}\n'

        async def scenario(conn, _):
            pending = conn.frame()
            for i in range(len(line)):
                assert not pending.done()
                conn.data_received(line[i:i + 1])
            return pending.result()
        assert _run(scenario) == line

    def test_a_truncated_answer_at_eof_is_refused(self):
        async def scenario(conn, _):
            pending = conn.frame()
            conn.data_received(b'{"id":"s-1","ok":tr')
            assert conn.eof_received() is True    # half-open: may answer
            with pytest.raises(ProtocolError, match="truncated"):
                await pending
        _run(scenario)

    def test_a_clean_eof_between_frames_reads_empty(self):
        async def scenario(conn, _):
            conn.data_received(b"{}\n")
            conn.eof_received()
            return [await conn.frame(), await conn.frame()]
        assert _run(scenario) == [b"{}\n", b""]

    def test_a_lost_connection_fails_the_waiting_frame(self):
        async def scenario(conn, _):
            pending = conn.frame()
            conn.connection_lost(ConnectionResetError("reset"))
            with pytest.raises(ConnectionResetError):
                await pending
        _run(scenario)

    def test_reading_pauses_past_the_limit_and_resumes(self):
        half = MAX_FRAME_BYTES // 2
        first = b"x" * half + b"\n"

        async def scenario(conn, transport):
            conn.data_received(first)
            assert transport.reading == []
            conn.data_received(b"y" * (half + 8))     # > limit buffered
            assert transport.reading == [False]
            assert await conn.frame() == first
            assert transport.reading == [False, True]  # room again
            # the rest arrives with no terminator inside the limit
            conn.data_received(b"y" * half)
            assert transport.reading == [False, True, False]
            with pytest.raises(ProtocolError, match="exceeds"):
                await conn.frame()
        _run(scenario)

    def test_a_frame_at_the_limit_passes(self):
        line = b"z" * MAX_FRAME_BYTES + b"\n"

        async def scenario(conn, _):
            conn.data_received(line)
            return await conn.frame()
        assert _run(scenario) == line

    def test_drain_waits_out_paused_writing(self):
        async def scenario(conn, _):
            await conn.drain()                      # not paused: at once
            conn.pause_writing()
            drained = asyncio.ensure_future(conn.drain())
            await asyncio.sleep(0)
            assert not drained.done()
            conn.resume_writing()
            await asyncio.wait_for(drained, 1.0)
        _run(scenario)


# -- a live link against a scripted shard ------------------------------------

@contextmanager
def _shard(answer):
    """A one-connection shard: each request line gets ``answer(frame)``
    (bytes, then the connection is closed when it ends without
    ``\\n``)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as stream:
            for line in stream:
                out = answer(json.loads(line))
                try:
                    conn.sendall(out)
                except OSError:
                    return
                if not out.endswith(b"\n"):
                    return

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with listener:
        yield ShardAddress("shard-0", *listener.getsockname()[:2])
    thread.join(timeout=5)
    assert not thread.is_alive()


def _ok(frame) -> bytes:
    return (json.dumps({"id": frame["id"], "ok": True,
                        "result": {"n": 7}, "v": 1},
                       separators=(",", ":"), sort_keys=True)
            + "\n").encode()


def _calls(addr, n: int):
    """``n`` sequential calls on one link: (outcome per call, idle
    connections after each)."""
    async def main():
        link = _ShardLink(addr)
        outcomes, idle = [], []
        for _ in range(n):
            try:
                outcomes.append((await link.call("ping", {}, 5.0))["result"])
            except ProtocolError as e:
                outcomes.append(type(e).__name__)
            idle.append(len(link._idle))
        link.close()
        return outcomes, idle
    return asyncio.run(main())


class TestLinkPool:
    def test_a_clean_exchange_pools_its_connection_for_the_next(self):
        with _shard(_ok) as addr:
            outcomes, idle = _calls(addr, 3)
        assert outcomes == [{"n": 7}] * 3
        assert idle == [1, 1, 1]                  # one connection, reused

    def test_a_truncated_answer_is_refused_and_never_pooled(self):
        with _shard(lambda frame: _ok(frame)[:-5]) as addr:
            outcomes, idle = _calls(addr, 1)
        assert outcomes == ["ProtocolError"]
        assert idle == [0]

    def test_an_oversize_answer_is_refused_and_never_pooled(self):
        with _shard(lambda frame: b"x" * (MAX_FRAME_BYTES + 10)
                    + b"\n") as addr:
            outcomes, idle = _calls(addr, 1)
        assert outcomes == ["ProtocolError"]
        assert idle == [0]
