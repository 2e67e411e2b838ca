"""``mctopd`` — the asyncio topology-and-placement daemon.

One long-lived process amortizes MCTOP-ALG across every client on the
machine, the way libmctop amortizes it across process lifetimes with
description files.  The daemon runs on the NDJSON server core of
:mod:`repro.service.server` (listeners, framing, backpressure, graceful
drain, request completion), answers the verbs of
:class:`~repro.service.handlers.Handlers`, and serves each connection a
:class:`~repro.service.handlers.Session` of its own.

Every request runs under ``request_timeout`` seconds; the client gets a
``timeout`` error, the underlying single-flight inference keeps running
for later waiters.  The timer is armed only when a request suspends
(:func:`~repro.service.server.bounded`): a warm ``place`` finishes
without suspending, so asyncio could never have interrupted it, and it
pays for no timer.

Everything is observable: request counts and latencies per verb, queue
depth, cache hit/miss/eviction counters and single-flight coalesce
counts all land in the daemon's :class:`~repro.obs.Observability` and
are exported through the ``metrics`` verb.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path

from repro.core.algorithm import LatencyTableConfig
from repro.errors import ServiceError
from repro.obs import Observability
from repro.service.cache import InferenceCache
from repro.service.context import current_request_id
from repro.service.drift import DriftWatcher
from repro.service.handlers import Handlers, Session, prometheus_text
from repro.service.protocol import VERBS, Request
from repro.service.server import (
    NdjsonServer,
    RequestRecord,
    ServerConfig,
    bounded,
    inet_port,
    run_server,
)


@dataclass(frozen=True)
class ServeConfig(ServerConfig):
    """Everything ``mctopd`` needs to run: the shared server fields,
    then the daemon's own."""

    store_dir: str | Path | None = None
    max_memory_entries: int = 32
    #: Serve Prometheus text on ``http://metrics_host:metrics_port/metrics``
    #: when set (0 picks a free port; see ``bound_metrics_port``).
    metrics_port: int | None = None
    metrics_host: str = "127.0.0.1"
    #: Run the background drift watcher every ``watch_interval`` seconds
    #: over ``watch_machines`` when both are set.  Checks use a quick
    #: measurement config (``watch_repetitions``) and diff against the
    #: content-addressed cache's stored baseline; critical drift flips
    #: ``/healthz`` to ``degraded``.
    watch_interval: float | None = None
    watch_machines: tuple[str, ...] = ()
    watch_repetitions: int = 15
    watch_seed: int = 0
    #: Fleet identity + cache peering.  ``member_id`` names this daemon
    #: on the fleet's consistent-hash ring; ``peers`` lists the other
    #: members' endpoints (``[ID=]unix:PATH`` / ``[ID=]tcp:HOST:PORT``)
    #: this daemon may ask for a cached ``.mct.gz`` blob (via the
    #: ``cache_fetch`` verb) before running MCTOP-ALG on a local miss.
    member_id: str | None = None
    peers: tuple[str, ...] = ()
    peer_timeout: float = 5.0
    #: How many ring-adjacent peers to ask per miss.
    peer_fanout: int = 2
    #: SLO burn-rate engine (the ``slo`` verb): per-verb latency +
    #: availability objectives with fast/slow multi-window burn alerts.
    #: ``slo_objectives`` entries are ``VERB:p99=MS[,avail=PCT]``;
    #: empty means :data:`repro.obs.slo.DEFAULT_OBJECTIVES`.
    slo: bool = True
    slo_objectives: tuple[str, ...] = ()
    #: Continuous in-process sampling profiler (the ``profile`` verb):
    #: a background thread walks ``sys._current_frames()`` at
    #: ``profile_hz`` and folds collapsed stacks — tagged with the
    #: dispatching verb and request id — into a store bounded by
    #: ``profile_max_bytes``.  Off by default; cheap enough to leave on
    #: under production load (CI's profile smoke holds the sampler's own
    #: ``overhead_fraction`` at or below 0.05).
    profile: bool = False
    profile_hz: float = 100.0
    profile_max_bytes: int = 2_000_000
    #: Enable the hidden ``_sleep`` verb (tests only).
    debug_verbs: bool = False


class MctopDaemon(NdjsonServer):
    """The server object: ``await start()``, then ``await wait_closed()``."""

    prefix = lifecycle = "service"
    name = "mctopd"

    def __init__(self, config: ServeConfig, obs: Observability | None = None):
        super().__init__(config, obs, member_id=config.member_id)
        self.cache = InferenceCache(
            store_dir=config.store_dir,
            max_memory_entries=config.max_memory_entries,
            obs=self.obs,
            events=self.event_log,
        )
        self.watcher: DriftWatcher | None = None
        if config.watch_interval is not None and config.watch_machines:
            self.watcher = DriftWatcher(
                self.cache,
                self.obs,
                machines=tuple(config.watch_machines),
                interval=config.watch_interval,
                seed=config.watch_seed,
                table=LatencyTableConfig(
                    repetitions=config.watch_repetitions
                ),
                events=self.event_log,
            )
        if config.slo:
            from repro.obs.slo import (
                DEFAULT_OBJECTIVES,
                SloEngine,
                parse_objectives,
            )

            objectives = (
                parse_objectives(config.slo_objectives)
                if config.slo_objectives else DEFAULT_OBJECTIVES
            )
            self.slo_engine = SloEngine(
                objectives, obs=self.obs, events=self.event_log
            )
        if config.profile:
            from repro.obs.profiler import SamplingProfiler

            self.profiler = SamplingProfiler(
                obs=self.obs,
                hz=config.profile_hz,
                max_bytes=config.profile_max_bytes,
                member_id=config.member_id,
                request_id_provider=current_request_id.get,
            )
        peer_specs: tuple = ()
        if config.peers:
            from repro.fleet.members import parse_members

            peer_specs = tuple(parse_members(list(config.peers)))
        self.handlers = Handlers(
            self.cache,
            self.obs,
            default_repetitions=config.default_repetitions,
            watcher=self.watcher,
            member_id=config.member_id,
            peers=peer_specs,
            peer_timeout=config.peer_timeout,
            peer_fanout=config.peer_fanout,
            events=self.event_log,
            trace_store=self.trace_store,
            slo_engine=self.slo_engine,
            profiler=self.profiler,
        )
        self.routes = dict.fromkeys(VERBS, self._call)
        if config.debug_verbs:
            self.routes["_sleep"] = self._call
        # The metrics HTTP listener lives outside the NDJSON listeners
        # so tcp_port keeps answering with the NDJSON port.
        self._metrics_server: asyncio.base_events.Server | None = None

    # ------------------------------------------------------------ lifecycle
    async def _start_components(self) -> dict:
        cfg = self.config
        if cfg.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._serve_metrics_http,
                host=cfg.metrics_host,
                port=cfg.metrics_port,
            )
        if self.watcher is not None:
            self.watcher.start()
        if self.profiler is not None:
            self.profiler.start()
        return {}

    @property
    def bound_metrics_port(self) -> int | None:
        """The bound metrics HTTP port (useful with ``metrics_port=0``)."""
        if self._metrics_server is None:
            return None
        return inet_port([self._metrics_server])

    def request_shutdown(self) -> None:
        if self._metrics_server is not None:
            self._metrics_server.close()
        super().request_shutdown()

    async def _stop_components(self) -> None:
        if self._metrics_server is not None:
            await self._metrics_server.wait_closed()
        if self.profiler is not None:
            self.profiler.stop()
        if self.watcher is not None:
            await self.watcher.stop()

    # ------------------------------------------------------------ verbs
    def _open_connection(self) -> Session:
        return Session()

    async def _call(self, request: Request, session: Session,
                    rec: RequestRecord) -> dict:
        """One :class:`Handlers` verb, under ``request_timeout``."""
        handler = getattr(self.handlers, request.verb)
        try:
            result = await bounded(handler(request.params, session),
                                   self.config.request_timeout)
        except TimeoutError:
            raise ServiceError(
                f"request exceeded {self.config.request_timeout}s",
                code="timeout",
            ) from None
        return self._ok(request, result, rec)

    # ------------------------------------------------------- metrics HTTP
    async def _serve_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Tiny single-purpose HTTP/1.1 responder for Prometheus scrapes.

        ``GET /metrics`` serves the text exposition, ``GET /healthz``
        answers liveness; everything else is 404/405.  One response per
        connection (``Connection: close``) — exactly what a scraper
        needs, with no HTTP framework dependency.
        """
        try:
            request_line = await reader.readline()
            while True:  # drain headers; none of them matter here
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            target = parts[1] if len(parts) > 1 else ""
            ctype = "text/plain; charset=utf-8"
            if method != "GET":
                status, body = "405 Method Not Allowed", b"method not allowed\n"
            elif target.split("?", 1)[0] == "/metrics":
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
                body = prometheus_text(self.obs, self.cache).encode("utf-8")
                self.obs.counter("service.metrics_http.scrapes").inc()
            elif target.split("?", 1)[0] == "/healthz":
                if self._draining:
                    status, body = "200 OK", b"draining\n"
                elif (self.watcher is not None and self.watcher.degraded) \
                        or (self.slo_engine is not None
                            and self.slo_engine.degraded):
                    # Critical topology drift, or an active fast-burn
                    # SLO alert: still serving, but an operator should
                    # look now.
                    status = "503 Service Unavailable"
                    body = b"degraded\n"
                else:
                    status, body = "200 OK", b"ok\n"
            else:
                status, body = "404 Not Found", b"not found\n"
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def run_daemon(config: ServeConfig,
               obs: Observability | None = None,
               ready_callback=None) -> int:
    """Blocking entry point used by ``mctop serve``.

    Runs the daemon until SIGTERM/SIGINT completes the graceful drain.
    ``ready_callback(daemon)`` fires once the listeners are bound.
    """
    return run_server(lambda: MctopDaemon(config, obs=obs), ready_callback)
