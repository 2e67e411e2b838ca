"""The server core's transport: framing, order, backpressure and ends.

A connection is an ``asyncio.Protocol``: frames are split in
``data_received`` and a frame whose route finishes without suspending is
answered there; the first route that suspends moves the connection to a
task.  These tests drive both modes over real sockets (and, where the
read boundaries must be exact, through a fake transport), and check what
the stream server did before: answers in request order, one answer per
frame, the oversized-frame reject, a half-close, a client gone before its
answer, and a client that stops reading.
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
