"""Fixtures for the fleet tests.

``fleet_factory`` runs a real fleet — N member daemons plus the
router, all on Unix sockets in one background event-loop thread — and
tears everything down through the graceful-drain paths.  Members are
peered with each other (``cache_fetch``), each with its own store, so
the tests exercise genuine cross-instance behaviour, not a shared
disk.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.fleet import FleetRouter, RouterConfig
from repro.service import MctopClient, MctopDaemon, ServeConfig


class FleetHarness:
    """N live member daemons + a router in a background loop thread."""

    def __init__(self, tmp_path, n_members: int = 3, peering: bool = True,
                 fail_threshold: int = 1, health_interval: float = 30.0,
                 router_overrides: dict | None = None,
                 member_overrides: dict | None = None):
        self.tmp_path = tmp_path
        endpoints = {
            f"m{i}": str(tmp_path / f"m{i}.sock")
            for i in range(n_members)
        }
        self.member_configs = {}
        for member_id, sock in endpoints.items():
            peers = tuple(
                f"{other}=unix:{path}" for other, path in endpoints.items()
                if other != member_id
            ) if peering else ()
            self.member_configs[member_id] = ServeConfig(
                unix_path=sock,
                store_dir=str(tmp_path / member_id / "store"),
                default_repetitions=31,
                drain_timeout=3.0,
                debug_verbs=True,
                member_id=member_id,
                peers=peers,
                event_log=str(tmp_path / member_id / "events.ndjson"),
                **(member_overrides or {}),
            )
        self.router_config = RouterConfig(
            unix_path=str(tmp_path / "router.sock"),
            members=tuple(
                f"{m}=unix:{s}" for m, s in endpoints.items()
            ),
            default_repetitions=31,
            drain_timeout=3.0,
            fail_threshold=fail_threshold,
            health_interval=health_interval,
            access_log=str(tmp_path / "router-access.ndjson"),
            event_log=str(tmp_path / "router-events.ndjson"),
            **(router_overrides or {}),
        )
        self.daemons: dict[str, MctopDaemon] = {}
        self.router: FleetRouter | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            self.loop = asyncio.get_running_loop()
            for member_id, config in self.member_configs.items():
                daemon = MctopDaemon(config)
                self.daemons[member_id] = daemon
                await daemon.start()
            self.router = FleetRouter(self.router_config)
            await self.router.start()
            self._ready.set()
            await self.router.wait_closed()
            for daemon in self.daemons.values():
                daemon.request_shutdown()
                await daemon.wait_closed()

        asyncio.run(main())

    def start(self) -> "FleetHarness":
        self._thread.start()
        assert self._ready.wait(20), "fleet failed to start"
        return self

    def stop(self) -> None:
        if self.loop is not None and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.router.request_shutdown)
        self._thread.join(20)
        assert not self._thread.is_alive(), "fleet failed to drain"

    def stop_member(self, member_id: str) -> None:
        """Drain one member mid-test (the 'kill a member' scenario)."""
        daemon = self.daemons[member_id]
        self.loop.call_soon_threadsafe(daemon.request_shutdown)
        asyncio.run_coroutine_threadsafe(
            daemon.wait_closed(), self.loop
        ).result(15)

    def client(self, timeout: float = 60.0, **kwargs) -> MctopClient:
        """A client talking to the *router*."""
        return MctopClient(unix_path=self.router_config.unix_path,
                           timeout=timeout, **kwargs)

    def member_client(self, member_id: str,
                      timeout: float = 60.0) -> MctopClient:
        """A client talking to one member directly."""
        return MctopClient(
            unix_path=self.member_configs[member_id].unix_path,
            timeout=timeout,
        )


@pytest.fixture()
def fleet_factory(tmp_path):
    harnesses: list[FleetHarness] = []

    def factory(**overrides) -> FleetHarness:
        harness = FleetHarness(
            tmp_path / f"fleet{len(harnesses)}", **overrides
        ).start()
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        if harness._thread.is_alive():
            harness.stop()


@pytest.fixture()
def fleet(fleet_factory) -> FleetHarness:
    """A running 3-member fleet with cache peering."""
    return fleet_factory()
