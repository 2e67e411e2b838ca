"""One NDJSON server core for ``mctopd`` and the fleet router.

Both servers speak the protocol of :mod:`repro.service.protocol` on a
Unix socket and/or a TCP port, and differ only in the verbs they answer
and what they run beside their listeners.  Everything else lives here,
once: listener binding, connection tracking, framing with the
oversized-frame rejection, request-id minting and the
:data:`~repro.service.context.current_request_id` context, the
draining/backpressure gate, per-verb counters and latency timers, error
mapping, signal handlers, the graceful drain and the blocking entry
point.

Each connection is an asyncio protocol (:class:`_Connection`).  A
frame is split off in ``data_received`` and its dispatch is stepped
right there: a route that finishes without suspending (a warm
``place``, a ``ping``) is answered at once, with no task, no read
future and no drain.  A route that suspends (a cold ``infer``, any
frame the router forwards) finishes in a task of its own, and the
frames behind it wait until its done callback serves them.  So no
frame is taken off a connection before the one ahead of it is
answered, and answers keep request order.

Every answered frame, undecodable and oversized ones included, is
completed by :meth:`NdjsonServer._complete` after its response is
encoded and before it is written: the SLO engine scores it, then the
trace store seals its trace, then the access log writes its line.  A
client that hangs up before its answer therefore still leaves one
count, one trace and one access-log line.

Robustness model:

* **backpressure** — at most ``max_pending`` requests execute at once;
  beyond that the server answers immediately with a ``backpressure``
  error instead of queueing unboundedly.  A client that stops reading
  its answers stops being read: once the transport's write buffer is
  over its high-water mark (``pause_writing``), no further frame is
  served until it drains (``resume_writing``);
* **graceful drain** — SIGTERM/SIGINT stop the listeners, frames on
  connections still open get ``shutting_down``, in-flight requests get
  ``drain_timeout`` seconds to finish, then every connection is closed
  (answers a client has not read by then are dropped) and the loop
  exits cleanly (exit code 0).
"""

from __future__ import annotations

import asyncio
import contextvars
import signal
import time
import types
from dataclasses import dataclass
from pathlib import Path

from repro.errors import MctopError, ProtocolError, ServiceError
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.obs.trace_store import TraceStore
from repro.service.accesslog import AccessLog
from repro.service.context import current_request_id, new_request_id
from repro.service.protocol import (
    MAX_LINE_BYTES,
    VERBS,
    FrameSplitter,
    FrameTooLong,
    Request,
    decode_request,
    encode_response,
    error_response,
    ok_response,
)

#: ``True`` in the context a :class:`_Connection` steps a frame in,
#: outside any task; see :func:`bounded`.
_stepped_inline: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "ndjson_stepped_inline", default=False
)


async def bounded(coro, timeout: float):
    """Await ``coro`` under ``timeout`` seconds, arming a timer only if
    it suspends.

    The deadline is read before the coroutine's first step, when
    ``asyncio.timeout(timeout)`` would read it.  A coroutine that
    finishes without suspending cannot be interrupted by asyncio, so it
    needs no timer: its value is returned and its exception propagates.
    One that suspends goes on under ``asyncio.timeout_at(deadline)``,
    so it times out with ``TimeoutError``, or is cancelled, exactly as
    inside ``async with asyncio.timeout(timeout)``.  A warm ``place``
    never suspends; a cold ``infer`` does.

    The timeout needs a running task.  When a connection steps the
    frame outside any task, the first suspension hands the frame to a
    task first (a bare yield, which the connection answers by finishing
    the frame in a task of its own) and arms the timer once that task
    resumes it.
    """
    deadline = asyncio.get_running_loop().time() + timeout
    try:
        suspended_on = coro.send(None)
    except StopIteration as done:
        return done.value
    entered = False
    try:
        if _stepped_inline.get() and asyncio.current_task() is None:
            await asyncio.sleep(0)
        async with asyncio.timeout_at(deadline):
            entered = True
            return await _resume(coro, suspended_on)
    finally:
        if not entered:
            coro.close()


@types.coroutine
def _resume(coro, suspended_on):
    """``yield from coro`` for a coroutine that has already taken its
    first step: hand the task what it suspended on, then forward what
    the task sends or throws until it returns."""
    while True:
        try:
            sent = yield suspended_on
        except GeneratorExit:
            coro.close()
            raise
        except BaseException as exc:
            try:
                suspended_on = coro.throw(exc)
            except StopIteration as done:
                return done.value
        else:
            try:
                suspended_on = coro.send(sent)
            except StopIteration as done:
                return done.value


@dataclass(frozen=True)
class ServerConfig:
    """The fields every NDJSON server reads: listeners, admission,
    drain, logs and trace store.  :class:`~repro.service.daemon.ServeConfig`
    and :class:`~repro.fleet.router.RouterConfig` extend it."""

    unix_path: str | Path | None = None
    host: str | None = None
    port: int = 0
    request_timeout: float = 60.0
    max_pending: int = 64
    drain_timeout: float = 10.0
    #: A router must use its members' value, or it hashes a different
    #: inference digest than the member caches under.
    default_repetitions: int = 75
    #: Rotating NDJSON access log (one line per request) when set.
    access_log: str | Path | None = None
    #: Structured NDJSON event log when set: a daemon's drift checks,
    #: severity transitions and cache evictions; a router's member
    #: joins, ejects and rebalances.
    event_log: str | Path | None = None
    #: Per-request trace retention (the ``trace`` verb): spans grouped
    #: by request id with tail-based retention — error / SLO-violating
    #: traces and a 1-in-``trace_sample_every`` sample pinned, fast ok
    #: traces evicted first under the count/byte budget + TTL.  On by
    #: default: the whole point is answering "why was request X slow?"
    #: *after* the fact.  perfbench's place-small runs with it on, and
    #: CI's perfbench gate holds that run's daemon CPU per frame within
    #: its bound of the base commit's.  A router's records are the ones
    #: the ``trace`` verb's fleet assembly joins member records under.
    trace_store: bool = True
    trace_max_traces: int = 512
    trace_max_bytes: int = 4_000_000
    trace_ttl: float = 600.0
    trace_sample_every: int = 64


def inet_port(servers) -> int | None:
    """The first bound AF_INET/AF_INET6 port of ``servers``."""
    for server in servers:
        for sock in server.sockets:
            if sock.family.name.startswith("AF_INET"):
                return sock.getsockname()[1]
    return None


@dataclass(slots=True)
class RequestRecord:
    """One answered frame: filled in while it is served, then completed
    once by :meth:`NdjsonServer._complete`."""

    request_id: str
    start: float
    verb: str | None = None
    outcome: str = "ok"
    #: ``"hit"`` / ``"miss"`` for topology verbs, ``None`` otherwise.
    cache: str | None = None
    #: The fleet-wide id a proxy stamped on the frame.
    parent_request_id: str | None = None
    #: The fleet member a router forwarded to, and that round-trip.
    member: str | None = None
    upstream_ms: float | None = None
    #: Per-layer times: frame decode, the route (a router's includes
    #: its upstream round-trip) and response encode; ``None`` when the
    #: layer did not run for this frame.
    decode_ms: float | None = None
    handler_ms: float | None = None
    encode_ms: float | None = None

    def note_cache(self, result) -> None:
        """Record a topology result's ``cached`` flag."""
        cached = result.get("cached") if isinstance(result, dict) else None
        if isinstance(cached, bool):
            self.cache = "hit" if cached else "miss"


class NdjsonServer:
    """The server object: ``await start()``, then ``await wait_closed()``.

    ``config`` is a :class:`ServerConfig`, which a subclass's config
    extends with the fields of its own components.  A subclass
    sets the three names below, fills :attr:`routes` (and optionally
    :attr:`fallback`), and overrides the hooks it needs.  A route is a
    coroutine ``route(request, state, rec)`` that returns the response
    document; ``state`` is what :meth:`_open_connection` returned for
    the frame's connection.  ``member_id`` names the server in its
    trace-store records.
    """

    #: Prefix of the metrics and the root span (``service.requests.ping``).
    prefix: str
    #: Prefix of the lifecycle instants and the ``drained`` event.
    lifecycle: str
    #: How error messages name the server.
    name: str

    def __init__(self, config: ServerConfig,
                 obs: Observability | None = None, *,
                 member_id: str | None = None):
        if config.unix_path is None and config.host is None:
            raise ServiceError(f"{self.name} needs a unix socket path, "
                               "a TCP host, or both")
        self.config = config
        self.obs = obs or Observability()
        self.event_log: EventLog | None = None
        if config.event_log is not None:
            self.event_log = EventLog(
                config.event_log,
                request_id_provider=current_request_id.get,
            )
        self.access_log: AccessLog | None = None
        if config.access_log is not None:
            self.access_log = AccessLog(config.access_log)
        self.trace_store: TraceStore | None = None
        if config.trace_store:
            self.trace_store = TraceStore(
                obs=self.obs,
                member_id=member_id,
                max_traces=config.trace_max_traces,
                max_bytes=config.trace_max_bytes,
                ttl_seconds=config.trace_ttl,
                sample_every=config.trace_sample_every,
            )
            self.obs.tracer.sink = self.trace_store.observe
        #: Optional SLO burn-rate engine and sampling profiler.
        self.slo_engine = None
        self.profiler = None
        #: ``verb -> route``; each of these verbs gets its own request
        #: counter and latency timer.
        self.routes: dict = {}
        #: The route for any other verb; ``None`` answers ``unknown_verb``.
        self.fallback = None
        #: ``verb -> (request counter, latency timer)`` and the queue
        #: depth gauge, each looked up on the first frame that needs it,
        #: so the registry holds what it would with a lookup per frame.
        self._verb_instruments: dict = {}
        self._queue_depth = None
        self._servers: list[asyncio.base_events.Server] = []
        self._connections: set[_Connection] = set()
        #: What every connection's transport reads into; one read is
        #: consumed before the loop runs the next.
        self._receive_buffer = memoryview(bytearray(256 * 1024))
        self._inflight = 0
        self._draining = False
        #: Set once the drain has shut every connection; a connection
        #: accepted before the listeners closed but made after that is
        #: closed at once.
        self._shut = False
        self._drained = asyncio.Event()
        self._drain_task: asyncio.Task | None = None

    # ------------------------------------------------------------ hooks
    async def _start_components(self) -> dict:
        """Start what runs beside the listeners, before they bind;
        returns extra arguments for the ``started`` instant."""
        return {}

    async def _stop_components(self) -> None:
        """Stop it again, once the connections are closed."""

    def _open_connection(self):
        """Per-connection state handed to every route."""
        return None

    def _close_connection(self, state) -> None:
        """Release what :meth:`_open_connection` returned, once the
        connection has ended."""

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind the listeners (idempotent-unfriendly: call once)."""
        started = await self._start_components()
        cfg = self.config
        loop = asyncio.get_running_loop()
        if cfg.unix_path is not None:
            path = Path(cfg.unix_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_socket():
                path.unlink()
            self._servers.append(await loop.create_unix_server(
                lambda: _Connection(self), path=str(path)
            ))
        if cfg.host is not None:
            self._servers.append(await loop.create_server(
                lambda: _Connection(self), host=cfg.host, port=cfg.port
            ))
        self.obs.instant(f"{self.lifecycle}.started", **started)

    @property
    def tcp_port(self) -> int | None:
        """The bound TCP port (useful with ``port=0``)."""
        return inet_port(self._servers)

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_shutdown)

    def request_shutdown(self) -> None:
        """Begin the graceful drain (safe to call from a signal handler)."""
        if self._draining:
            return
        self._draining = True
        self.obs.instant(f"{self.lifecycle}.drain_begin")
        for server in self._servers:
            server.close()
        self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        # Wait for in-flight requests only; idle clients get
        # disconnected as soon as the last response is written.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        if self._inflight > 0:
            self.obs.counter(f"{self.prefix}.drain.aborted_requests").inc(
                self._inflight
            )
        self._shut = True
        connections = list(self._connections)
        for conn in connections:
            conn.shut()
        if connections:
            # A client that stopped reading keeps its connection open
            # until its answers are sent: past the deadline they are
            # dropped.
            await asyncio.wait([conn.closed for conn in connections],
                               timeout=max(0.0, deadline - loop.time()))
            for conn in connections:
                if not conn.closed.done():
                    conn.transport.abort()
        await asyncio.gather(
            *(conn.task for conn in connections if conn.task is not None),
            *(conn.closed for conn in connections),
            return_exceptions=True,
        )
        # Since Python 3.12.1 this waits for every accepted connection
        # to close, so it comes once they are shut.
        for server in self._servers:
            await server.wait_closed()
        await self._stop_components()
        # Flush-and-fsync both NDJSON logs: the final access line and
        # event must be durably on disk before the process exits.
        if self.access_log is not None:
            self.access_log.close()
        if self.event_log is not None:
            self.event_log.emit(f"{self.lifecycle}.drained")
            self.event_log.close()
        if self.config.unix_path is not None:
            path = Path(self.config.unix_path)
            if path.is_socket():
                path.unlink()
        self.obs.instant(f"{self.lifecycle}.drain_end")
        self._drained.set()

    async def wait_closed(self) -> None:
        """Block until the graceful drain completes."""
        await self._drained.wait()

    async def serve_forever(self, ready_callback=None) -> None:
        """start() + signal handlers + block until drained;
        ``ready_callback(self)`` fires once the listeners are bound."""
        await self.start()
        self.install_signal_handlers()
        if ready_callback is not None:
            ready_callback(self)
        await self.wait_closed()

    # ------------------------------------------------------------ answers
    def _encode(self, rec: RequestRecord, response: dict) -> bytes:
        """The answer frame of ``response``, its frame completed."""
        encode_start = time.perf_counter()
        frame = encode_response(response)
        self._complete(rec, len(frame), encode_start)
        return frame

    def _oversized(self) -> bytes:
        """The answer to a frame longer than ``MAX_LINE_BYTES``; the
        connection is dropped after it, since framing is lost."""
        rec = RequestRecord(new_request_id(), time.perf_counter(),
                            outcome="bad_request")
        return self._encode(rec, error_response(
            None, "bad_request",
            f"request frame exceeds {MAX_LINE_BYTES} bytes",
            request_id=rec.request_id,
        ))

    def _complete(self, rec: RequestRecord, bytes_out: int,
                  encode_start: float) -> None:
        """Complete one answered frame, in dependency order: the SLO
        engine scores it first, because its verdict is the tail-sampling
        signal that decides whether the trace store pins the trace; the
        access log writes its line last."""
        now = time.perf_counter()
        rec.encode_ms = (now - encode_start) * 1e3
        duration = now - rec.start
        violation = False
        if self.slo_engine is not None and rec.verb is not None:
            violation = self.slo_engine.observe(
                rec.verb, duration, ok=rec.outcome == "ok"
            )
        if self.trace_store is not None:
            self.trace_store.finish(
                rec.request_id,
                verb=rec.verb,
                outcome=rec.outcome,
                duration_ms=duration * 1e3,
                slo_violation=violation,
                parent_request_id=rec.parent_request_id,
            )
        if self.access_log is not None:
            self.access_log.write(
                request_id=rec.request_id,
                verb=rec.verb,
                outcome=rec.outcome,
                duration_ms=duration * 1e3,
                cache=rec.cache,
                bytes_out=bytes_out,
                member=rec.member,
                upstream_ms=rec.upstream_ms,
                decode_ms=rec.decode_ms,
                handler_ms=rec.handler_ms,
                encode_ms=rec.encode_ms,
            )

    # ------------------------------------------------------------ dispatch
    async def _dispatch(self, line: bytes, state,
                        rec: RequestRecord) -> dict:
        """Decode, admit and route one request frame.

        The record's ``request_id`` is set in :data:`current_request_id`
        for the duration of the dispatch (so every nested span and
        instant can pick it up), recorded on the root span and echoed
        in the response.
        """
        token = current_request_id.set(rec.request_id)
        try:
            try:
                request = decode_request(line)
            except ProtocolError as exc:
                rec.decode_ms = (time.perf_counter() - rec.start) * 1e3
                # Degenerate root span so even a rejected frame's
                # request_id resolves to something in the trace.
                with self.obs.span(f"{self.prefix}.request", verb=None,
                                   request_id=rec.request_id,
                                   outcome="bad_request"):
                    pass
                return self._fail(rec, None, "bad_request", str(exc))
            rec.decode_ms = (time.perf_counter() - rec.start) * 1e3
            rec.verb = request.verb
            rec.parent_request_id = parent = request.parent_request_id
            span_args = {"verb": request.verb, "request_id": rec.request_id}
            if parent is not None:
                span_args["parent_request_id"] = parent
            with self.obs.span(f"{self.prefix}.request", **span_args):
                response = await self._admit(request, state, rec)
            if parent is not None:
                # Echo a proxy's stitched id so the hop is traceable
                # from the response alone (the router's id ties the
                # member's spans/events back to the fleet-wide request).
                response["parent_request_id"] = parent
            return response
        finally:
            current_request_id.reset(token)

    async def _admit(self, request: Request, state,
                     rec: RequestRecord) -> dict:
        """The verb check and the draining/backpressure gate, then the
        route under its per-verb instruments."""
        verb = request.verb
        route = self.routes.get(verb, self.fallback)
        if route is None:
            return self._fail(
                rec, request.id, "unknown_verb",
                f"unknown verb {verb!r} (known: {', '.join(VERBS)})",
            )
        if self._draining:
            # Not counted as an error: every frame gets it during a drain.
            rec.outcome = "shutting_down"
            return error_response(
                request.id, "shutting_down",
                f"{self.name} is draining; no new requests accepted",
                request_id=rec.request_id,
            )
        if self._inflight >= self.config.max_pending:
            return self._fail(
                rec, request.id, "backpressure",
                f"request queue full ({self.config.max_pending} in "
                f"flight); retry later",
            )
        self._inflight += 1
        timer = None
        if verb in self.routes:
            instruments = self._verb_instruments.get(verb)
            if instruments is None:
                instruments = self._verb_instruments[verb] = (
                    self.obs.counter(f"{self.prefix}.requests.{verb}"),
                    self.obs.timer(f"{self.prefix}.latency.{verb}"),
                )
            requests, timer = instruments
            requests.inc()
        queue_depth = self._queue_depth
        if queue_depth is None:
            queue_depth = self._queue_depth = self.obs.gauge(
                f"{self.prefix}.queue_depth"
            )
        queue_depth.set(self._inflight)
        # The sampler thread cannot read the asyncio ContextVar, so
        # publish (verb, rid) for it explicitly around the route.
        profile_handle = None
        if self.profiler is not None:
            profile_handle = self.profiler.begin_dispatch(
                verb, request_id=rec.request_id,
                parent_request_id=rec.parent_request_id,
            )
        start = time.perf_counter()
        try:
            return await route(request, state, rec)
        except ServiceError as exc:
            return self._fail(rec, request.id, exc.code, str(exc))
        except MctopError as exc:
            return self._fail(rec, request.id, "mctop_error", str(exc))
        except RecursionError:
            # Only client input nests this deep: a frame that decoded
            # can still overflow deeper in the stack, where the router
            # re-encodes its params or a refusal message prints one.
            return self._fail(rec, request.id, "bad_request",
                              "request nests too deep to handle")
        except Exception as exc:  # never kill the connection loop
            return self._fail(rec, request.id, "internal",
                              f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            rec.handler_ms = elapsed * 1e3
            self._inflight -= 1
            queue_depth.set(self._inflight)
            if timer is not None:
                timer.observe(elapsed)
                # Label the latency exemplar with the fleet-wide id
                # when the request was forwarded, so a merged metrics
                # doc's slowest-request ids paste straight into
                # ``mctop trace show`` against the router.
                timer.record_exemplar(
                    elapsed, rec.parent_request_id or rec.request_id
                )
            if profile_handle is not None:
                self.profiler.end_dispatch(profile_handle)

    def _fail(self, rec: RequestRecord, client_id, code: str,
              message: str) -> dict:
        """A counted error answer."""
        self.obs.counter(f"{self.prefix}.errors.{code}").inc()
        rec.outcome = code
        return error_response(client_id, code, message,
                              request_id=rec.request_id)

    def _ok(self, request: Request, result: dict,
            rec: RequestRecord) -> dict:
        """The ok answer to ``request`` carrying ``result``."""
        rec.note_cache(result)
        return ok_response(request.id, result, request_id=rec.request_id)


class _Connection(asyncio.BufferedProtocol):
    """One client connection of an :class:`NdjsonServer`.

    Frames are split in :meth:`data_received` and answered there
    (:meth:`_serve_frame`).  A route that suspends finishes in
    :attr:`task`; meanwhile later bytes only accumulate, and reading
    pauses once more than 2 x ``MAX_LINE_BYTES`` of them wait.  The
    task's done callback then serves them, outside any task again.
    Writing backpressure pauses reading and serving.

    The transport reads into the server's one receive buffer and the
    bytes read are copied out at once (:meth:`buffer_updated`): a
    plain protocol is handed a fresh 256 KiB ``recv`` buffer, shrunk to
    what arrived, for every read, which can cost page faults per frame.
    """

    def __init__(self, server: NdjsonServer):
        self.server = server
        self.transport: asyncio.Transport | None = None
        #: What the server's ``_open_connection`` returned.
        self.state = None
        #: The task of the frame whose route suspended, while it runs.
        self.task: asyncio.Task | None = None
        #: Done once the transport has closed.
        self.closed: asyncio.Future | None = None
        #: The context each frame steps in a copy of.
        self._context: contextvars.Context | None = None
        #: Bytes received and not yet served.
        self._frames = FrameSplitter()
        self._write_paused = False

    # ------------------------------------------------------------ protocol
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.closed = asyncio.get_running_loop().create_future()
        self._context = contextvars.copy_context()
        self._context.run(_stepped_inline.set, True)
        server = self.server
        server._connections.add(self)
        server.obs.counter(f"{server.prefix}.connections.accepted").inc()
        server.obs.gauge(f"{server.prefix}.connections.open").set(
            len(server._connections)
        )
        self.state = server._open_connection()
        if server._shut:
            transport.close()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.server._receive_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self.server._receive_buffer[:nbytes].tobytes())

    def data_received(self, data: bytes) -> None:
        self._frames.feed(data)
        self._serve_buffered()

    def eof_received(self) -> bool:
        self._frames.feed_eof()
        self._serve_buffered()
        return True  # closed once every answer is written

    def connection_lost(self, exc: Exception | None) -> None:
        if isinstance(exc, (ConnectionResetError, BrokenPipeError)):
            server = self.server
            server.obs.counter(f"{server.prefix}.connections.reset").inc()
        if self.task is None:
            self._end()
        self.closed.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._serve_buffered()

    # ------------------------------------------------------------ frames
    def _serve_buffered(self) -> None:
        """Serve the whole frames received, in order, until one suspends
        or writing pauses; close the connection after its last answer
        or an oversized frame."""
        transport = self.transport
        if transport.is_closing():
            return
        frames = self._frames
        while self.task is None and not self._write_paused:
            try:
                line = frames.next_frame()
            except FrameTooLong:
                transport.write(self.server._oversized())
                transport.close()
                return
            if line is None:
                transport.resume_reading()
                return
            if not line:  # EOF, and every frame is answered
                transport.close()
                return
            if line.strip():
                self._serve_frame(line)
        if frames.pending > 2 * MAX_LINE_BYTES:
            transport.pause_reading()

    def _serve_frame(self, line: bytes) -> None:
        """Step one frame's dispatch; answer it if its route finished,
        else finish it in a task of its own."""
        server = self.server
        rec = RequestRecord(new_request_id(), time.perf_counter())
        coro = server._dispatch(line, self.state, rec)
        context = self._context.copy()
        try:
            suspended_on = context.run(coro.send, None)
        except StopIteration as done:
            self.transport.write(server._encode(rec, done.value))
            return
        self.task = asyncio.get_running_loop().create_task(
            self._finish(coro, suspended_on, rec), context=context
        )
        self.task.add_done_callback(self._frame_done)

    async def _finish(self, coro, suspended_on, rec: RequestRecord
                      ) -> None:
        """Finish the frame whose route suspended and write its answer."""
        try:
            response = await _resume(coro, suspended_on)
            self.transport.write(self.server._encode(rec, response))
        except BaseException:
            # Cancelled by the drain, or failed: the connection ends.
            self.transport.close()
            raise

    def _frame_done(self, task: asyncio.Task) -> None:
        """Serve the frames behind the finished one, outside any task."""
        self.task = None
        if self.closed.done():
            self._end()
        else:
            self._serve_buffered()

    # ------------------------------------------------------------ end
    def shut(self) -> None:
        """End the connection for the graceful drain."""
        if self.task is not None:
            self.task.cancel()
        self.transport.close()

    def _end(self) -> None:
        """Forget the connection, once its transport is lost and no
        frame of it is running."""
        server = self.server
        server._connections.discard(self)
        server.obs.gauge(f"{server.prefix}.connections.open").set(
            len(server._connections)
        )
        server._close_connection(self.state)


def run_server(factory, ready_callback=None) -> int:
    """Build a server with ``factory()`` inside a fresh event loop and
    serve until SIGTERM/SIGINT completes the graceful drain."""

    async def main() -> None:
        await factory().serve_forever(ready_callback)

    asyncio.run(main())
    return 0
