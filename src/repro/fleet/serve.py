"""``mctop fleet serve`` — run a whole fleet (or just its router).

Two shapes:

* **in-process fleet** (``--members N``): N member daemons and the
  router share one event loop, each member on its own Unix socket and
  its own cache store under ``state_dir``, peered with the others for
  ``cache_fetch``.  One process, one SIGTERM, a whole fleet — the
  quick-start and test shape.
* **external members** (``--member ENDPOINT`` ...): the router fronts
  already-running ``mctopd`` processes (started with ``mctop serve
  --member-id ... --peer ...``).  This is the production shape, and the
  one the CI smoke test uses so it can kill a member mid-stream.

Both can be combined; spawned members and external members join the
same ring.
"""

from __future__ import annotations

import asyncio
import dataclasses
import signal
from pathlib import Path

from repro.fleet.router import FleetRouter, RouterConfig
from repro.obs import Observability
from repro.service.daemon import MctopDaemon, ServeConfig


def _member_configs(config: RouterConfig, n_members: int,
                    state_dir: str | Path) -> "list[ServeConfig]":
    """Spawned members: socket, store and event log per member, each
    peered with every other member (spawned *and* external)."""
    state = Path(state_dir)
    endpoints = {
        f"m{i}": f"unix:{state / 'members' / f'm{i}.sock'}"
        for i in range(n_members)
    }
    configs = []
    for member_id, endpoint in endpoints.items():
        member_dir = state / "members" / member_id
        peers = tuple(
            f"{other}={ep}" for other, ep in endpoints.items()
            if other != member_id
        ) + tuple(config.members)
        configs.append(ServeConfig(
            unix_path=endpoint[len("unix:"):],
            store_dir=member_dir / "store",
            default_repetitions=config.default_repetitions,
            drain_timeout=config.drain_timeout,
            event_log=member_dir / "events.ndjson",
            member_id=member_id,
            peers=peers,
        ))
    return configs


def run_fleet(config: RouterConfig, n_members: int = 0,
              state_dir: str | Path = "mctop-fleet",
              obs: Observability | None = None,
              ready_callback=None) -> int:
    """Blocking entry point: ``n_members`` spawned members (``m0`` ...,
    sockets, stores and event logs under ``state_dir``) first, then the
    router over them and ``config.members``, then drain everything on
    SIGTERM/SIGINT (router first, so no new work reaches a member that
    is already draining).  A fleet with no member at all is refused
    with a :class:`~repro.errors.ServiceError` before anything binds."""

    async def _main() -> None:
        member_configs = _member_configs(config, n_members, state_dir)
        spawned = tuple(f"{c.member_id}=unix:{c.unix_path}"
                        for c in member_configs)
        router = FleetRouter(
            dataclasses.replace(config,
                                members=spawned + tuple(config.members)),
            obs=obs,
        )
        daemons = [MctopDaemon(c) for c in member_configs]
        for daemon in daemons:
            await daemon.start()
        await router.start()

        def shutdown_all() -> None:
            router.request_shutdown()
            for daemon in daemons:
                daemon.request_shutdown()

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, shutdown_all)
        if ready_callback is not None:
            ready_callback(router, daemons)
        await router.wait_closed()
        for daemon in daemons:
            daemon.request_shutdown()
            await daemon.wait_closed()

    asyncio.run(_main())
    return 0
