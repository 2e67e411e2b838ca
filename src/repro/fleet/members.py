"""Fleet membership: member specs, endpoint parsing and async I/O.

A *member* is one running ``mctopd`` the router can reach.  Its spec is
an id plus an endpoint string in one of two forms::

    unix:/run/mctopd/m0.sock
    tcp:127.0.0.1:9000

(an ``ID=`` prefix names the member explicitly: ``m0=unix:/tmp/a.sock``;
without it the id is derived from the endpoint).  The id — not the
endpoint — is what the consistent-hash ring hashes, so a member can be
re-homed to a new socket without moving its keys.

:class:`MemberState` is the router's live view of one member: its
health status (``healthy``/``degraded``/``ejected``), consecutive
failure count and the last drift severity the health loop saw.

:class:`MemberConnection` is one connection to a member.  Its protocol
splits the member's answers off what it reads with the
:class:`~repro.service.protocol.FrameSplitter` a server splits requests
with, and a request awaits the future the protocol resolves once an
answer is whole.  A connection lost, an answer that is not JSON and an
answer past ``MAX_LINE_BYTES`` all raise ``ConnectionResetError``, a
transport error the router fails over on.
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass, field

from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import FrameSplitter, decode_response, encode_frame
from repro.service.server import bounded

#: Member health statuses.  ``degraded`` members stay in the ring
#: (warn-level drift is a signal, not an outage); ``ejected`` members
#: are out of the ring until the health loop sees them recover.
STATUSES = ("healthy", "degraded", "ejected")


@dataclass(frozen=True)
class MemberSpec:
    """One member's identity and address."""

    id: str
    unix_path: str | None = None
    host: str | None = None
    port: int | None = None

    @property
    def endpoint(self) -> str:
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"tcp:{self.host}:{self.port}"

    def describe(self) -> dict:
        return {"id": self.id, "endpoint": self.endpoint}


def parse_member(text: str) -> MemberSpec:
    """Parse ``[ID=]unix:PATH`` / ``[ID=]tcp:HOST:PORT``.

    A bare filesystem path is accepted as a unix endpoint.  Without an
    explicit id the member is named after the endpoint's tail (socket
    stem or host:port) — stable, human-readable and unique enough for
    hand-built fleets; pass explicit ids when re-homing matters.
    """
    text = text.strip()
    if not text:
        raise ServiceError("empty member endpoint", code="invalid_params")
    member_id: str | None = None
    m = re.match(r"^(?P<id>[A-Za-z0-9_.-]+)=(?P<rest>.+)$", text)
    if m and not text.startswith(("unix:", "tcp:", "/", ".")):
        member_id = m.group("id")
        text = m.group("rest")
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ServiceError(f"empty unix path in {text!r}",
                               code="invalid_params")
        default_id = path.rsplit("/", 1)[-1].removesuffix(".sock")
        return MemberSpec(id=member_id or default_id or path,
                          unix_path=path)
    if text.startswith("tcp:"):
        rest = text[len("tcp:"):]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise ServiceError(
                f"tcp endpoint must be tcp:HOST:PORT, got {text!r}",
                code="invalid_params",
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ServiceError(f"bad port in {text!r}",
                               code="invalid_params") from None
        return MemberSpec(id=member_id or f"{host}:{port}",
                          host=host, port=port)
    if text.startswith(("/", ".")):
        default_id = text.rsplit("/", 1)[-1].removesuffix(".sock")
        return MemberSpec(id=member_id or default_id or text, unix_path=text)
    raise ServiceError(
        f"member endpoint {text!r} is neither unix:PATH nor tcp:HOST:PORT",
        code="invalid_params",
    )


def parse_members(texts: "list[str] | tuple[str, ...]") -> list[MemberSpec]:
    """Parse a list of endpoint strings, rejecting duplicate ids."""
    specs = [parse_member(t) for t in texts]
    seen: set[str] = set()
    for spec in specs:
        if spec.id in seen:
            raise ServiceError(
                f"duplicate member id {spec.id!r}; "
                "disambiguate with ID=ENDPOINT",
                code="invalid_params",
            )
        seen.add(spec.id)
    return specs


class MemberState:
    """The router's mutable view of one member."""

    __slots__ = ("spec", "status", "joined", "consecutive_failures",
                 "drift_severity", "last_check_ts", "checks",
                 "last_error")

    def __init__(self, spec: MemberSpec):
        self.spec = spec
        #: ``None`` until the first successful health check admits the
        #: member to the ring; then one of :data:`STATUSES`.
        self.status: str | None = None
        self.joined = False
        self.consecutive_failures = 0
        self.drift_severity: str | None = None
        self.last_check_ts: float | None = None
        self.checks = 0
        self.last_error: str | None = None

    @property
    def in_ring(self) -> bool:
        return self.joined and self.status != "ejected"

    def describe(self) -> dict:
        return {
            **self.spec.describe(),
            "status": self.status or "joining",
            "in_ring": self.in_ring,
            "consecutive_failures": self.consecutive_failures,
            "drift_severity": self.drift_severity,
            "checks": self.checks,
            "last_check_ts": round(self.last_check_ts, 3)
            if self.last_check_ts is not None else None,
            "last_error": self.last_error,
        }


class _MemberProtocol(asyncio.BufferedProtocol):
    """A member connection's protocol: it splits the member's answers
    off what it reads and wakes the read waiting for one.  It reads into
    a buffer of its own: a plain protocol is handed a fresh 256 KiB
    ``recv`` buffer per read, which cost a router minor page faults on
    every forwarded frame."""

    def __init__(self):
        self.transport: asyncio.Transport | None = None
        self.frames = FrameSplitter()
        self.waiter: asyncio.Future | None = None  # a read awaits it
        self.closed = asyncio.get_running_loop().create_future()
        self._read_buffer = memoryview(bytearray(16 * 1024))

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.frames.feed(self._read_buffer[:nbytes].tobytes())
        self._wake()

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed.set_result(None)
        self._wake()

    def _wake(self) -> None:
        if self.waiter is not None and not self.waiter.done():
            self.waiter.set_result(None)


class MemberConnection:
    """One open NDJSON connection to a member (router-side, asyncio).

    The router keeps one per (client connection, member) so stateful
    verbs (``pool_switch``) keep their per-connection session on the
    member for as long as the client holds its connection.  It carries
    one request at a time, so its write buffer never holds more than
    one frame and a request writes without waiting for a drain.
    """

    def __init__(self, spec: MemberSpec):
        self.spec = spec
        self._protocol: _MemberProtocol | None = None
        self._next_id = 0

    async def _connect(self, timeout: float) -> None:
        if self._protocol is not None:
            return
        loop = asyncio.get_running_loop()
        spec = self.spec
        if spec.unix_path is not None:
            connect = loop.create_unix_connection(_MemberProtocol,
                                                  spec.unix_path)
        else:
            connect = loop.create_connection(_MemberProtocol, spec.host,
                                             spec.port)
        self._protocol = (await bounded(connect, timeout))[1]

    async def request(self, verb: str, params: dict, timeout: float,
                      parent_request_id: str | None = None) -> dict:
        """One round-trip; raises ``OSError``/``TimeoutError`` on
        transport trouble (the caller fails over) and returns the raw
        response document (ok or error) otherwise."""
        await self._connect(timeout)
        self._next_id += 1
        frame_doc = {"verb": verb, "id": self._next_id, "params": params}
        if parent_request_id is not None:
            frame_doc["parent_request_id"] = parent_request_id
        self._protocol.transport.write(encode_frame(frame_doc))
        try:
            doc = decode_response(await bounded(self._read(), timeout))
        except ProtocolError as exc:  # garbage, or an answer too long
            raise ConnectionResetError(
                f"member {self.spec.id} sent garbage: {exc}"
            ) from exc
        if doc.get("id") not in (None, self._next_id):
            raise ConnectionResetError(
                f"member {self.spec.id} response id mismatch"
            )
        return doc

    async def _read(self) -> bytes:
        """The member's next answer frame."""
        protocol = self._protocol
        while (line := protocol.frames.next_frame()) is None:
            if protocol.closed.done():
                raise ConnectionResetError(
                    f"member {self.spec.id} closed the connection"
                )
            protocol.waiter = asyncio.get_running_loop().create_future()
            await protocol.waiter
        return line

    def close_nowait(self) -> None:
        """Start closing the connection (:meth:`close` also waits for
        it)."""
        protocol, self._protocol = self._protocol, None
        if protocol is not None:
            protocol.transport.close()

    async def close(self) -> None:
        protocol = self._protocol
        self.close_nowait()
        if protocol is not None:
            await protocol.closed


async def one_shot_request(spec: MemberSpec, verb: str, params: dict,
                           timeout: float,
                           parent_request_id: str | None = None) -> dict:
    """Connect, ask once, close — what the health loop and the
    router's aggregation fan-out use."""
    conn = MemberConnection(spec)
    try:
        return await conn.request(verb, params, timeout,
                                  parent_request_id=parent_request_id)
    finally:
        await conn.close()
