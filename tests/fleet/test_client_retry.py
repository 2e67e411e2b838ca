"""Client-side retry: bounded attempts, exponential backoff, jitter.

Retry policy under test: only ``unavailable`` and ``backpressure``
codes are retried, attempt ``k`` sleeps ``backoff * 2**k`` jittered
±50%, and the original error surfaces once the budget is spent.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.errors import ServiceError
from repro.service import MctopClient


class SleepRecorder:
    """Injectable ``_sleep`` capturing requested delays (never sleeps)."""

    def __init__(self, on_sleep=None):
        self.delays: list[float] = []
        self.on_sleep = on_sleep

    def __call__(self, seconds: float) -> None:
        self.delays.append(seconds)
        if self.on_sleep is not None:
            self.on_sleep(len(self.delays))


class ScriptedServer:
    """A one-connection NDJSON server answering from a script.

    Each script entry is ``"backpressure"``/another error code (an
    error response), ``"ok"`` (an empty-result success), or ``"close"``
    (drop the connection without answering).
    """

    def __init__(self, tmp_path, script):
        self.path = str(tmp_path / "scripted.sock")
        self.script = list(script)
        self.seen: list[dict] = []
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.path)
        self._sock.listen(8)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.script:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as fh:
                while self.script:
                    line = fh.readline()
                    if not line:
                        break  # client reconnects; accept again
                    request = json.loads(line)
                    self.seen.append(request)
                    action = self.script.pop(0)
                    if action == "close":
                        break
                    if action == "ok":
                        doc = {"id": request["id"], "ok": True,
                               "result": {"scripted": True}}
                    else:
                        doc = {"id": request["id"], "ok": False,
                               "error": {"code": action,
                                         "message": action}}
                    conn.sendall(json.dumps(doc).encode() + b"\n")

    def close(self) -> None:
        self._sock.close()


class TestValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            MctopClient(unix_path="/tmp/x.sock", retries=-1)
        with pytest.raises(ValueError):
            MctopClient(unix_path="/tmp/x.sock", backoff=-0.1)


class TestConnectRetry:
    def test_exhausted_retries_surface_unavailable(self, tmp_path):
        sleeper = SleepRecorder()
        client = MctopClient(unix_path=str(tmp_path / "nothing.sock"),
                             retries=3, backoff=0.1, _sleep=sleeper)
        with pytest.raises(ServiceError) as exc:
            client.ping()
        assert exc.value.code == "unavailable"
        assert len(sleeper.delays) == 3
        # Exponential base with ±50% jitter: delay k in
        # [0.5, 1.5] * backoff * 2**k.
        for k, delay in enumerate(sleeper.delays):
            base = 0.1 * (2 ** k)
            assert 0.5 * base <= delay <= 1.5 * base

    def test_retries_zero_fails_immediately(self, tmp_path):
        sleeper = SleepRecorder()
        client = MctopClient(unix_path=str(tmp_path / "nothing.sock"),
                             _sleep=sleeper)
        with pytest.raises(ServiceError):
            client.ping()
        assert sleeper.delays == []

    def test_daemon_appearing_mid_retry_succeeds(self, tmp_path,
                                                 daemon_factory):
        """The 'daemon still booting' race: connect fails, a retry
        lands after the socket shows up."""
        path = str(tmp_path / "late.sock")

        def boot_daemon(attempt):
            if attempt == 1:
                daemon_factory(unix_path=path)

        sleeper = SleepRecorder(on_sleep=boot_daemon)
        client = MctopClient(unix_path=path, retries=3, backoff=0.01,
                             _sleep=sleeper)
        try:
            # Retry wraps request(), not an explicit connect(): the
            # first ping both dials and retries the dial.
            assert client.ping()["pong"] is True
        finally:
            client.close()
        assert len(sleeper.delays) >= 1


class TestRetryableCodes:
    def test_backpressure_retried_then_succeeds(self, tmp_path):
        server = ScriptedServer(
            tmp_path, ["backpressure", "backpressure", "ok"]
        )
        sleeper = SleepRecorder()
        with MctopClient(unix_path=server.path, retries=3, backoff=0.01,
                         _sleep=sleeper) as client:
            result = client.request("infer", machine="testbox")
        assert result == {"scripted": True}
        assert len(sleeper.delays) == 2
        assert [r["verb"] for r in server.seen] == ["infer"] * 3
        server.close()

    def test_server_closing_mid_request_reconnects(self, tmp_path):
        """A dropped connection is ``unavailable``; the retry path
        reconnects from scratch rather than reusing the dead socket."""
        server = ScriptedServer(tmp_path, ["close", "ok"])
        sleeper = SleepRecorder()
        with MctopClient(unix_path=server.path, retries=2, backoff=0.01,
                         _sleep=sleeper) as client:
            result = client.ping()
        assert result == {"scripted": True}
        assert len(sleeper.delays) == 1
        server.close()

    def test_non_retryable_codes_surface_immediately(self, tmp_path):
        server = ScriptedServer(tmp_path, ["invalid_params", "ok"])
        sleeper = SleepRecorder()
        with MctopClient(unix_path=server.path, retries=5, backoff=0.01,
                         _sleep=sleeper) as client:
            with pytest.raises(ServiceError) as exc:
                client.ping()
        assert exc.value.code == "invalid_params"
        assert sleeper.delays == []
        assert len(server.seen) == 1
        server.close()

    def test_budget_exhausted_surfaces_the_last_error(self, tmp_path):
        server = ScriptedServer(tmp_path, ["backpressure"] * 3)
        sleeper = SleepRecorder()
        with MctopClient(unix_path=server.path, retries=2, backoff=0.01,
                         _sleep=sleeper) as client:
            with pytest.raises(ServiceError) as exc:
                client.ping()
        assert exc.value.code == "backpressure"
        assert len(sleeper.delays) == 2
        server.close()


class TestAgainstRealDaemon:
    def test_retry_is_transparent_on_a_healthy_daemon(self, daemon_factory):
        harness = daemon_factory()
        sleeper = SleepRecorder()
        with MctopClient(unix_path=harness.config.unix_path, retries=3,
                         _sleep=sleeper) as client:
            assert client.ping()["pong"] is True
            assert client.infer("testbox", seed=1)["machine"] == "testbox"
        assert sleeper.delays == []
