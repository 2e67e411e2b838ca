"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.hardware import MeasurementContext, get_machine
from repro.service import MctopClient, MctopDaemon, ServeConfig


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden topology fixtures under "
             "tests/fixtures/golden/ instead of comparing against them",
    )


@pytest.fixture(scope="session")
def ivy():
    return get_machine("ivy")


@pytest.fixture(scope="session")
def opteron():
    return get_machine("opteron")


@pytest.fixture(scope="session")
def sparc():
    return get_machine("sparc")


@pytest.fixture(scope="session")
def testbox():
    return get_machine("testbox")


@pytest.fixture()
def testbox_probe(testbox):
    return MeasurementContext(testbox, seed=11)


class _TimeoutTimers:
    """Counts the ``asyncio.timeout`` timers armed on ``loop`` while
    open; ``count`` holds the tally."""

    def __init__(self, loop):
        self.loop = loop
        self.count = 0

    def __enter__(self):
        real = self.loop.call_at

        def call_at(when, callback, *args, **kwargs):
            if isinstance(getattr(callback, "__self__", None),
                          asyncio.Timeout):
                self.count += 1
            return real(when, callback, *args, **kwargs)

        self.loop.call_at = call_at
        return self

    def __exit__(self, *exc):
        del self.loop.call_at


@pytest.fixture()
def timeout_timers():
    """``with timeout_timers(loop) as timers:`` counts the timeouts
    armed on a server's event loop in ``timers.count``."""
    return _TimeoutTimers


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
    """Start live daemons with per-test :class:`ServeConfig` overrides,
    each on a Unix socket in its own event-loop thread; every one is
    stopped through the graceful-drain path."""
    harnesses: list[DaemonHarness] = []

    def factory(**overrides) -> DaemonHarness:
        fields = dict(
            unix_path=str(tmp_path / f"mctopd{len(harnesses)}.sock"),
            store_dir=str(tmp_path / "store"),
            default_repetitions=31,
            drain_timeout=3.0,
            debug_verbs=True,
        )
        fields.update(overrides)
        harness = DaemonHarness(ServeConfig(**fields)).start()
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        harness.stop()
