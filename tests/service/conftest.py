"""Fixtures for the mctopd service tests.

``daemon_factory`` starts a real :class:`MctopDaemon` on a Unix socket
inside a dedicated event-loop thread and tears it down through the
graceful-drain path, so every test exercises the genuine asyncio stack
rather than a mock transport.
"""

from __future__ import annotations

import asyncio
import importlib
import threading

import pytest

from repro.service import MctopClient, MctopDaemon, ServeConfig


class DaemonHarness:
    """A live daemon in a background event-loop thread."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.daemon: MctopDaemon | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            self.daemon = MctopDaemon(self.config)
            self.loop = asyncio.get_running_loop()
            await self.daemon.start()
            self._ready.set()
            await self.daemon.wait_closed()

        asyncio.run(main())

    def start(self) -> "DaemonHarness":
        self._thread.start()
        assert self._ready.wait(10), "daemon failed to start"
        return self

    def stop(self) -> None:
        if self.loop is not None and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.daemon.request_shutdown)
        self._thread.join(15)
        assert not self._thread.is_alive(), "daemon failed to drain"

    def client(self, timeout: float = 30.0) -> MctopClient:
        return MctopClient(unix_path=self.config.unix_path, timeout=timeout)


@pytest.fixture()
def daemon_factory(tmp_path):
    """Start daemons with per-test config overrides; auto-stopped."""
    harnesses: list[DaemonHarness] = []

    def factory(**overrides) -> DaemonHarness:
        config = ServeConfig(
            unix_path=str(tmp_path / f"mctopd{len(harnesses)}.sock"),
            store_dir=str(tmp_path / "store"),
            default_repetitions=31,
            drain_timeout=3.0,
            debug_verbs=True,
            **overrides,
        )
        harness = DaemonHarness(config).start()
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        harness.stop()


@pytest.fixture()
def harness(daemon_factory) -> DaemonHarness:
    return daemon_factory()


@pytest.fixture()
def held_store_write(monkeypatch):
    """Hold every store write until the test lets it go.

    Yields ``(writing, release)``: ``writing`` is set once a write has
    started, and the write goes on once ``release`` is set (or after
    10 s, so a loop blocked by the write cannot hang the test).
    """
    cache_module = importlib.import_module("repro.service.cache")
    writing, release = threading.Event(), threading.Event()
    real_save = cache_module.save_mctop

    def held_save(mctop, path):
        writing.set()
        release.wait(10)
        return real_save(mctop, path)

    monkeypatch.setattr(cache_module, "save_mctop", held_save)
    yield writing, release
    release.set()


@pytest.fixture()
def held_store_load(monkeypatch):
    """Hold every store load until the test lets it go.

    Yields ``(loading, release, loads)``: ``loading`` is set once a load
    has started, the load goes on once ``release`` is set (or after
    10 s, so a loop blocked by the load cannot hang the test), and
    ``loads`` lists the path of every load.
    """
    cache_module = importlib.import_module("repro.service.cache")
    loading, release = threading.Event(), threading.Event()
    loads: list = []
    real_load = cache_module.load_mctop

    def held_load(path):
        loads.append(path)
        loading.set()
        release.wait(10)
        return real_load(path)

    monkeypatch.setattr(cache_module, "load_mctop", held_load)
    yield loading, release, loads
    release.set()
