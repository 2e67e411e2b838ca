"""The server core's transport: framing, order, backpressure and ends.

A connection is an ``asyncio.Protocol``: frames are split in
``data_received`` and a frame whose route finishes without suspending is
answered there; a route that suspends finishes in a task of its own,
and the frames behind it are served once it is answered.  These tests
drive both kinds of frame over real sockets (and, where the read
boundaries must be exact, through a fake transport), and check what the
stream server did before: answers in request order, one answer per
frame, the oversized-frame reject, a half-close, a client gone before
its answer, a client that stops reading, and the drain.
"""

from __future__ import annotations

import asyncio
import gc
import json
import re
import socket
import threading
import time
import warnings

import pytest

from repro.errors import ServiceError
from repro.service import MctopClient
from repro.service import protocol as protocol_module
from repro.service import server as server_module
from repro.service.daemon import MctopDaemon, ServeConfig
from repro.service.protocol import (
    MAX_LINE_BYTES,
    decode_response,
    encode_frame,
)
from repro.service.server import _Connection

PLACE = {"machine": "testbox", "seed": 1, "repetitions": 31}


def frame(verb: str, id=None, **params) -> bytes:
    doc = {"verb": verb, "params": params}
    if id is not None:
        doc["id"] = id
    return encode_frame(doc)


def masked(line: bytes) -> bytes:
    """An answer with its request id and ``ms`` masked."""
    line = re.sub(rb'"request_id":"[0-9a-f]{16}"', b'"request_id":"-"', line)
    return re.sub(rb'"ms":[0-9.e-]+', b'"ms":0', line)


def read_lines(sock: socket.socket, count: int) -> list[bytes]:
    reader = sock.makefile("rb")
    try:
        return [reader.readline() for _ in range(count)]
    finally:
        reader.close()


def read_until_eof(sock: socket.socket) -> list[bytes]:
    data = b""
    while True:
        try:
            chunk = sock.recv(1 << 16)
        except ConnectionResetError:
            break
        if not chunk:
            break
        data += chunk
    return data.splitlines(keepends=True)


def wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


def access_lines(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


# ------------------------------------------------------------------------
# Read boundaries, through a fake transport.
# ------------------------------------------------------------------------

class FakeTransport(asyncio.Transport):
    def __init__(self):
        super().__init__()
        self.written = b""
        self.closing = False

    def write(self, data):
        self.written += data

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def test_a_frame_split_at_every_byte_boundary(tmp_path):
    """Three frames (a ping, a warm place and a malformed one) as one
    byte stream, cut in two at every offset: the answers equal those to
    the whole stream, ids and ``ms`` masked."""
    async def main():
        daemon = MctopDaemon(ServeConfig(
            unix_path=str(tmp_path / "unused.sock"), default_repetitions=31,
        ))
        from repro.service.handlers import Session

        await daemon.handlers.infer(dict(PLACE), Session())
        stream = (frame("ping", id=1)
                  + frame("place", id=2, policy="RR_CORE", threads=3,
                          **PLACE)
                  + b'{"verb": "ping", "id": \n')

        def answers(*chunks) -> bytes:
            conn = _Connection(daemon)
            transport = FakeTransport()
            conn.connection_made(transport)
            for chunk in chunks:
                conn.data_received(chunk)
            assert conn.task is None, "a warm frame suspended"
            return masked(transport.written)

        whole = answers(stream)
        assert whole.count(b"\n") == 3
        for cut in range(1, len(stream)):
            assert answers(stream[:cut], stream[cut:]) == whole, cut
        assert answers(*(stream[i:i + 1] for i in range(len(stream)))) \
            == whole

    asyncio.run(main())


async def until_no_frame_runs(conn: _Connection) -> None:
    """Run the loop until no frame of ``conn`` is suspended."""
    for _ in range(1000):
        if conn.task is None:
            return
        await asyncio.sleep(0)
    raise AssertionError("a frame is still suspended")


def test_every_byte_boundary_also_crosses_a_suspended_frame(tmp_path):
    """The stream above with a ``_sleep`` after the ping, cut in two at
    every offset, with the second part sent while the ``_sleep`` runs
    once the cut is past it: each cut goes inline, to the frame's task
    and back inline, and the answers equal those to the whole stream."""
    async def main():
        daemon = MctopDaemon(ServeConfig(
            unix_path=str(tmp_path / "unused.sock"), default_repetitions=31,
            debug_verbs=True,
        ))
        from repro.service.handlers import Session

        await daemon.handlers.infer(dict(PLACE), Session())
        stream = (frame("ping", id=1)
                  + frame("_sleep", id="slept", seconds=0)
                  + frame("place", id=2, policy="RR_CORE", threads=3,
                          **PLACE)
                  + b'{"verb": "ping", "id": \n')

        async def answers(*chunks) -> bytes:
            conn = _Connection(daemon)
            transport = FakeTransport()
            conn.connection_made(transport)
            suspended = False
            for chunk in chunks:
                conn.data_received(chunk)
                suspended |= conn.task is not None
                await asyncio.sleep(0)
            await until_no_frame_runs(conn)
            assert suspended, "the _sleep did not suspend"
            return masked(transport.written)

        whole = await answers(stream)
        assert whole.count(b"\n") == 4
        assert b'"id":"slept","ok":true' in whole.splitlines()[1]
        for cut in range(1, len(stream)):
            assert await answers(stream[:cut], stream[cut:]) == whole, cut
        assert await answers(*(stream[i:i + 1]
                               for i in range(len(stream)))) == whole

    asyncio.run(main())


class ReadingTransport(FakeTransport):
    """A fake transport that keeps whether it is reading."""

    def __init__(self):
        super().__init__()
        self.reading = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def test_bytes_behind_a_suspended_frame_pause_reading(tmp_path, monkeypatch):
    """While a frame's route is suspended, the frames behind it wait;
    reading pauses once more than twice the frame limit of them is
    buffered, and resumes once they are served."""
    limit = 1024
    monkeypatch.setattr(protocol_module, "MAX_LINE_BYTES", limit)
    monkeypatch.setattr(server_module, "MAX_LINE_BYTES", limit)

    async def main():
        daemon = MctopDaemon(ServeConfig(
            unix_path=str(tmp_path / "unused.sock"), debug_verbs=True,
        ))
        release = asyncio.Event()

        async def held(params, session):
            await release.wait()
            return {}

        daemon.handlers._sleep = held
        conn = _Connection(daemon)
        transport = ReadingTransport()
        conn.connection_made(transport)
        conn.data_received(frame("_sleep", id=0))
        assert conn.task is not None
        ping = frame("ping", id=1)
        behind = 0
        while behind + len(ping) <= 2 * limit:
            conn.data_received(ping)
            behind += len(ping)
            assert transport.reading
        conn.data_received(ping)
        assert not transport.reading
        await asyncio.sleep(0)
        assert transport.written == b""
        release.set()
        await until_no_frame_runs(conn)
        assert transport.reading
        docs = [decode_response(line)
                for line in transport.written.splitlines()]
        assert [d["id"] for d in docs] == [0] + [1] * (behind // len(ping)
                                                       + 1)
        assert all(d["ok"] for d in docs)

    asyncio.run(main())


def test_a_connection_made_after_the_drain_is_closed_at_once(tmp_path):
    """A connection the listener accepted before it closed can be made
    after the drain has shut the others; it is closed at once, so no
    transport outlives the server."""
    async def main():
        daemon = MctopDaemon(ServeConfig(unix_path=str(tmp_path / "d.sock"),
                                         drain_timeout=1.0))
        await daemon.start()
        daemon.request_shutdown()
        await daemon.wait_closed()
        conn = _Connection(daemon)
        transport = FakeTransport()
        conn.connection_made(transport)
        assert transport.closing

    asyncio.run(main())


# ------------------------------------------------------------------------
# Real sockets.
# ------------------------------------------------------------------------

@pytest.fixture()
def logged(daemon_factory, tmp_path):
    """A daemon with an access log; ``(harness, log path)``."""
    path = tmp_path / "access.ndjson"
    return daemon_factory(access_log=str(path)), path


def connect(harness) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(harness.config.unix_path)
    return sock


def test_several_frames_in_one_read_answer_in_order(harness):
    frames = [frame("place", id=n, policy="RR_CORE", threads=n, **PLACE)
              for n in range(1, 9)]
    with harness.client() as client:
        client.request("place", policy="RR_CORE", threads=1, **PLACE)
    with connect(harness) as sock:
        sock.sendall(b"".join(frames) + frame("ping", id="last"))
        docs = [decode_response(line) for line in read_lines(sock, 9)]
    assert [d["id"] for d in docs] == [*range(1, 9), "last"]
    assert [d["result"]["n_threads"] for d in docs[:8]] == list(range(1, 9))


@pytest.mark.parametrize("newline", [True, False],
                         ids=["with-newline", "without-newline"])
def test_an_oversized_frame_is_answered_logged_and_dropped(logged, newline):
    harness, log = logged
    body = b'{"verb": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}'
    payload = body + b"\n" if newline else body

    def flood(sock) -> None:
        try:
            sock.sendall(payload)
        except OSError:
            pass  # the daemon drops the connection mid-frame

    with connect(harness) as sock:
        sender = threading.Thread(target=flood, args=(sock,))
        sender.start()
        lines = read_until_eof(sock)
        sender.join(30)
    assert not sender.is_alive()
    assert len(lines) == 1
    doc = decode_response(lines[0])
    assert doc["ok"] is False
    assert doc["error"]["code"] == "bad_request"
    assert doc["error"]["message"] == \
        f"request frame exceeds {MAX_LINE_BYTES} bytes"
    harness.stop()  # drain flushes the log
    entries = access_lines(log)
    assert len(entries) == 1
    assert entries[0]["request_id"] == doc["request_id"]
    assert entries[0]["outcome"] == "bad_request"
    assert entries[0]["verb"] is None


def test_a_suspending_frame_keeps_pipelined_warm_frames_in_order(harness):
    """A ``_sleep`` moves the connection to a task; the warm frames sent
    behind it in the same write wait for it and answer after it."""
    with harness.client() as client:
        client.request("place", policy="RR_CORE", threads=1, **PLACE)
    frames = [frame("_sleep", id=0, seconds=0.2)]
    frames += [frame("place", id=n, policy="RR_CORE", threads=n, **PLACE)
               for n in range(1, 6)]
    frames += [frame("_sleep", id=6, seconds=0.01), frame("ping", id=7)]
    with connect(harness) as sock:
        sock.sendall(b"".join(frames))
        docs = [decode_response(line) for line in read_lines(sock, 8)]
    assert [d["id"] for d in docs] == list(range(8))
    assert all(d["ok"] for d in docs)


@pytest.mark.parametrize("suspending", [False, True],
                         ids=["inline", "task"])
def test_a_half_close_gets_every_answer_then_the_close(harness, suspending):
    with harness.client() as client:
        client.request("place", policy="RR_CORE", threads=1, **PLACE)
    frames = [frame("place", id=n, policy="RR_CORE", threads=n, **PLACE)
              for n in range(1, 6)]
    if suspending:
        frames.insert(2, frame("_sleep", id="slept", seconds=0.05))
    # The last frame has no newline: at EOF it is still a frame.
    frames.append(frame("ping", id="tail").rstrip(b"\n"))
    with connect(harness) as sock:
        sock.sendall(b"".join(frames))
        sock.shutdown(socket.SHUT_WR)
        lines = read_until_eof(sock)
    ids = [decode_response(line)["id"] for line in lines]
    expected = [1, 2, "slept", 3, 4, 5] if suspending else [1, 2, 3, 4, 5]
    assert ids == expected + ["tail"]


def test_a_client_gone_while_its_route_is_suspended(logged):
    """One request count, one access-log line, one trace-store finish,
    and the in-flight gauge and open connections back to 0."""
    harness, log = logged
    with connect(harness) as sock:
        sock.sendall(frame("_sleep", seconds=0.2))
        wait_for(lambda: harness.daemon._inflight == 1)
    registry = harness.daemon.obs.registry
    wait_for(lambda: harness.daemon._inflight == 0)
    wait_for(lambda: registry.value("service.connections.open") == 0)
    assert registry.value("service.queue_depth") == 0
    counted = sum(registry.value(name) for name in registry.names()
                  if name.startswith("service.requests."))
    assert counted == 1
    assert registry.value("trace_store.retained") == 1
    harness.stop()
    assert [e["verb"] for e in access_lines(log)] == ["_sleep"]


def test_a_client_that_stops_reading_stops_being_read(harness):
    """Frames sent without reading any answer: the daemon stops taking
    frames while its write buffer is full, and every answer still
    arrives, in order, once the client reads."""
    with harness.client() as client:
        client.request("place", policy="RR_CORE", threads=1, **PLACE)
    count = 3000
    frames = b"".join(
        frame("place", id=n, policy="RR_CORE", threads=1 + n % 8, **PLACE)
        for n in range(count)
    )
    with connect(harness) as sock:
        sender = threading.Thread(target=sock.sendall, args=(frames,))
        sender.start()
        # ~0.7 KB per answer: far past the socket buffers and the
        # transport's high-water mark, so the daemon must pause.
        time.sleep(0.5)
        docs = [decode_response(line) for line in read_lines(sock, count)]
        sender.join(30)
    assert not sender.is_alive()
    assert [d["id"] for d in docs] == list(range(count))
    assert all(d["ok"] for d in docs)


def test_a_drain_ends_while_a_client_holds_an_idle_connection(harness):
    """The drain shuts the connections before it waits on the
    listeners, which since Python 3.12.1 wait for every accepted
    connection to close: an idle client reads EOF, and the daemon
    exits."""
    with connect(harness) as sock:
        sock.sendall(frame("ping", id=1))
        assert decode_response(read_lines(sock, 1)[0])["ok"] is True
        harness.stop()
        assert read_until_eof(sock) == []


def test_a_drain_ends_while_a_client_stops_reading(daemon_factory):
    """A client that sends without reading its answers keeps its
    connection open with answers unsent; the drain drops them once
    ``drain_timeout`` has passed, and the daemon exits."""
    harness = daemon_factory(drain_timeout=1.0)
    with harness.client() as client:
        client.request("place", policy="RR_CORE", threads=1, **PLACE)
    frames = b"".join(
        frame("place", id=n, policy="RR_CORE", threads=1 + n % 8, **PLACE)
        for n in range(3000)
    )

    def flood(sock) -> None:
        try:
            sock.sendall(frames)
        except OSError:
            pass  # the drain drops the connection mid-write

    with connect(harness) as sock:
        sender = threading.Thread(target=flood, args=(sock,))
        sender.start()
        time.sleep(0.5)
        started = time.monotonic()
        harness.stop()
        assert time.monotonic() - started < 5.0
        read_until_eof(sock)
        sender.join(30)
    assert not sender.is_alive()


def test_a_failed_connect_leaves_no_socket_open(tmp_path):
    missing = str(tmp_path / "no-such.sock")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(ServiceError) as refusal:
            MctopClient(unix_path=missing, timeout=1.0).ping()
        gc.collect()
    assert refusal.value.code == "unavailable"
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] \
        == []
