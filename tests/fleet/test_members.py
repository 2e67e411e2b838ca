"""Member endpoint parsing, state bookkeeping and the member
connection's protocol (no sockets)."""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.errors import ServiceError
from repro.fleet import (
    FleetRouter,
    MemberConnection,
    MemberSpec,
    MemberState,
    RouterConfig,
    parse_member,
    parse_members,
)
from repro.fleet.members import _MemberProtocol
from repro.service.protocol import MAX_LINE_BYTES, Request, encode_frame
from repro.service.server import RequestRecord


class TestParseMember:
    def test_unix_endpoint(self):
        spec = parse_member("unix:/run/mctopd/m0.sock")
        assert spec == MemberSpec(id="m0", unix_path="/run/mctopd/m0.sock")
        assert spec.endpoint == "unix:/run/mctopd/m0.sock"

    def test_bare_path_is_unix(self):
        assert parse_member("/tmp/a.sock") == \
            MemberSpec(id="a", unix_path="/tmp/a.sock")
        assert parse_member("./b.sock").unix_path == "./b.sock"

    def test_tcp_endpoint(self):
        spec = parse_member("tcp:127.0.0.1:9000")
        assert spec == MemberSpec(id="127.0.0.1:9000", host="127.0.0.1",
                                  port=9000)
        assert spec.endpoint == "tcp:127.0.0.1:9000"

    def test_explicit_id_prefix(self):
        assert parse_member("left=unix:/tmp/x.sock").id == "left"
        assert parse_member("right=tcp:localhost:1234").id == "right"

    @pytest.mark.parametrize("bad", [
        "", "unix:", "tcp:9000", "tcp:host:notaport", "http://x",
    ])
    def test_bad_endpoints_rejected(self, bad):
        with pytest.raises(ServiceError) as exc:
            parse_member(bad)
        assert exc.value.code == "invalid_params"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ServiceError, match="duplicate"):
            parse_members(["unix:/a/m.sock", "unix:/b/m.sock"])
        specs = parse_members(["a=unix:/a/m.sock", "b=unix:/b/m.sock"])
        assert [s.id for s in specs] == ["a", "b"]


class TestMemberState:
    def test_not_in_ring_until_joined(self):
        state = MemberState(parse_member("unix:/tmp/m0.sock"))
        assert not state.in_ring
        assert state.describe()["status"] == "joining"
        state.joined = True
        state.status = "healthy"
        assert state.in_ring
        state.status = "degraded"
        assert state.in_ring  # warn-level drift keeps serving
        state.status = "ejected"
        assert not state.in_ring

    def test_describe_fields(self):
        state = MemberState(parse_member("m0=unix:/tmp/m0.sock"))
        doc = state.describe()
        assert doc["id"] == "m0"
        assert doc["endpoint"] == "unix:/tmp/m0.sock"
        assert doc["consecutive_failures"] == 0
        assert doc["checks"] == 0
        assert doc["last_check_ts"] is None


# ------------------------------------------------------------------------
# A member connection driven through a fake transport.
# ------------------------------------------------------------------------

class MemberTransport(asyncio.Transport):
    """What a member connection writes, and a close that reports the
    connection lost, as a socket transport's does."""

    def __init__(self, protocol):
        super().__init__()
        self.protocol = protocol
        self.written = b""
        self.closing = False

    def write(self, data):
        self.written += data

    def is_closing(self):
        return self.closing

    def close(self):
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(
                self.protocol.connection_lost, None
            )


def connected(spec: MemberSpec) -> MemberConnection:
    """A member connection whose protocol has a fake transport."""
    conn = MemberConnection(spec)
    protocol = _MemberProtocol()
    protocol.connection_made(MemberTransport(protocol))
    conn._protocol = protocol
    return conn


def deliver(conn: MemberConnection, data: bytes) -> None:
    """Hand ``data`` to the connection's protocol as a transport reads
    it: into the buffer the protocol lends, at most its size a time."""
    protocol = conn._protocol
    view = memoryview(data)
    while view:
        buffer = protocol.get_buffer(len(view))
        size = min(len(buffer), len(view))
        buffer[:size] = view[:size]
        protocol.buffer_updated(size)
        view = view[size:]


SPEC = MemberSpec(id="m0", unix_path="/nonexistent/m0.sock")
ANSWER = encode_frame({"id": 1, "ok": True, "result": {"pong": True},
                       "request_id": "0123456789abcdef"})


class TestMemberConnection:
    def test_an_answer_cut_at_every_byte(self):
        async def main():
            for cut in range(1, len(ANSWER)):
                conn = connected(SPEC)
                transport = conn._protocol.transport
                request = asyncio.create_task(conn.request("ping", {}, 5.0))
                await asyncio.sleep(0)
                assert transport.written == encode_frame(
                    {"verb": "ping", "id": 1, "params": {}}
                )
                deliver(conn, ANSWER[:cut])
                await asyncio.sleep(0)
                assert not request.done(), cut
                deliver(conn, ANSWER[cut:])
                assert await request == json.loads(ANSWER), cut
                await conn.close()
                assert transport.closing

        asyncio.run(main())

    def test_a_lost_connection_fails_the_read_at_once(self):
        async def main():
            conn = connected(SPEC)
            conn._protocol.connection_lost(None)
            with pytest.raises(ConnectionResetError,
                               match="m0 closed the connection"):
                await conn.request("ping", {}, 5.0)

        asyncio.run(main())

    def test_an_over_long_answer_fails_over_and_leaves_the_pool(
            self, tmp_path):
        """An answer past the frame limit is a transport error: the
        router fails over (here to no one) and drops the connection."""
        async def main():
            router = FleetRouter(RouterConfig(
                unix_path=str(tmp_path / "router.sock"),
                members=("m0=unix:/nonexistent/m0.sock",),
            ))
            router._candidates = lambda verb, params: ["m0"]
            conn = connected(router.health.states["m0"].spec)
            pool = {"m0": conn}
            rec = RequestRecord("0123456789abcdef", time.perf_counter())
            route = asyncio.create_task(
                router._route(Request(verb="ping"), pool, rec)
            )
            await asyncio.sleep(0)
            deliver(conn, b"x" * (MAX_LINE_BYTES + 1) + b"\n")
            with pytest.raises(ServiceError) as refusal:
                await route
            assert refusal.value.code == "unavailable"
            assert str(refusal.value).endswith(
                "(last: m0: ConnectionResetError: member m0 sent garbage: "
                f"frame exceeds {MAX_LINE_BYTES} bytes)"
            )
            assert pool == {}
            assert conn._protocol is None
            registry = router.obs.registry
            assert registry.value("fleet.forward.failovers") == 1
            assert registry.value("fleet.forward.failures") == 1

        asyncio.run(main())
