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
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass, field

from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import MAX_LINE_BYTES, decode_response, encode_frame
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


class _ReaderProtocol(asyncio.StreamReaderProtocol, asyncio.BufferedProtocol):
    """A stream's protocol that reads into a buffer of its own and
    copies each read out.

    A plain protocol is handed a fresh 256 KiB ``recv`` buffer, shrunk
    to what arrived, for every read.  A router reads one member answer
    per forwarded frame, and that allocation cost it minor page faults
    on every one of them.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 loop: asyncio.AbstractEventLoop):
        super().__init__(reader, loop=loop)
        self._buffer = memoryview(bytearray(16 * 1024))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._buffer[:nbytes].tobytes())


async def _open_stream(spec: "MemberSpec"
                       ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """``asyncio.open_(unix_)connection`` to ``spec``, on a
    :class:`_ReaderProtocol`."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
    if spec.unix_path is not None:
        transport, protocol = await loop.create_unix_connection(
            lambda: _ReaderProtocol(reader, loop), spec.unix_path
        )
    else:
        transport, protocol = await loop.create_connection(
            lambda: _ReaderProtocol(reader, loop), spec.host, spec.port
        )
    return reader, asyncio.StreamWriter(transport, protocol, reader, loop)


class MemberConnection:
    """One open NDJSON stream to a member (router-side, asyncio).

    The router keeps one per (client connection, member) so stateful
    verbs (``pool_switch``) keep their per-connection session on the
    member for as long as the client holds its connection.
    """

    def __init__(self, spec: MemberSpec):
        self.spec = spec
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def _connect(self, timeout: float) -> None:
        if self._writer is not None:
            return
        self._reader, self._writer = await bounded(_open_stream(self.spec),
                                                   timeout)

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
        self._writer.write(encode_frame(frame_doc))
        # Each await under its own bound, on this task: no Task per
        # forwarded frame, and no timer for a drain that does not wait.
        await bounded(self._writer.drain(), timeout)
        line = await bounded(self._reader.readline(), timeout)
        if not line:
            raise ConnectionResetError(
                f"member {self.spec.id} closed the connection"
            )
        try:
            doc = decode_response(line)
        except ProtocolError as exc:
            raise ConnectionResetError(
                f"member {self.spec.id} sent garbage: {exc}"
            ) from exc
        if doc.get("id") not in (None, self._next_id):
            raise ConnectionResetError(
                f"member {self.spec.id} response id mismatch"
            )
        return doc

    def close_nowait(self) -> None:
        """Start closing the stream (:meth:`close` also waits for it)."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()

    async def close(self) -> None:
        writer = self._writer
        self.close_nowait()
        if writer is not None:
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


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
