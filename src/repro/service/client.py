"""Synchronous client for ``mctopd``.

A blocking wrapper over one socket connection: the CLI's ``mctop
query``, tests and any embedding application use it instead of
hand-rolling the NDJSON framing.  The connection is one daemon session
(``pool_switch`` state lives in it) and carries request *pipelining*
via :meth:`request_many` (a sliding window of in-flight frames;
``mctopd`` answers a connection's requests in order, so responses match
up positionally).

::

    with MctopClient(unix_path="/tmp/mctopd.sock") as c:
        c.infer("ivy", seed=1)
        c.place_many("ivy", [{"policy": "RR_CORE", "threads": t}
                             for t in range(1, 21)], seed=1)

Errors come back as :class:`~repro.errors.ServiceError` with the wire
``code`` attached.  Transport failures (refused connect, reset socket,
server gone mid-read) carry ``code="unavailable"``; with ``retries=N``
:meth:`request` absorbs up to N such failures — and ``backpressure``
rejections — itself, sleeping an exponentially growing, jittered
backoff between attempts.  :meth:`request_many` is single-attempt: a
mid-pipeline failure leaves the batch partially processed server-side,
so the caller decides whether re-sending is safe.
"""

from __future__ import annotations

import random
import socket
import time
from collections import deque
from pathlib import Path

from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import (
    MAX_LINE_BYTES,
    decode_response,
    encode_frame,
)


class _Connection:
    """One blocking NDJSON socket (transport only, no retry policy)."""

    def __init__(self, unix_path: str | None, host: str | None,
                 port: int | None, timeout: float):
        self.unix_path = unix_path
        self.host = host
        self.port = port
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self.file = None

    def connect(self) -> "_Connection":
        if self.sock is not None:
            return self
        sock = None
        try:
            if self.unix_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.unix_path)
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise ServiceError(
                f"cannot connect to mctopd at "
                f"{self.unix_path or f'{self.host}:{self.port}'}: {exc}",
                code="unavailable",
            ) from exc
        self.sock = sock
        self.file = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self.file is not None:
            self.file.close()
            self.file = None
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class MctopClient:
    """A blocking NDJSON client: one connection, one session."""

    #: Error codes worth a retry: the server was never reached (or went
    #: away before answering), or it explicitly said "try again later".
    RETRYABLE_CODES = ("unavailable", "backpressure")

    def __init__(
        self,
        unix_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        timeout: float = 120.0,
        retries: int = 0,
        backoff: float = 0.05,
        _sleep=time.sleep,
    ):
        if unix_path is None and host is None:
            raise ServiceError(
                "MctopClient needs a unix socket path or a TCP host"
            )
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.unix_path = str(unix_path) if unix_path is not None else None
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Extra attempts after the first, spent only on
        #: :data:`RETRYABLE_CODES` failures; anything else (bad params,
        #: timeouts, server bugs) surfaces immediately.
        self.retries = retries
        #: Base delay of the exponential backoff (seconds).  Attempt k
        #: sleeps ``backoff * 2**k``, jittered ±50% so a herd of
        #: retrying clients does not re-stampede the daemon in phase.
        self.backoff = backoff
        self._sleep = _sleep
        self._conn = _Connection(self.unix_path, self.host, self.port,
                                 timeout)
        self._next_id = 0
        #: The server-generated ``request_id`` of the most recent
        #: response (success or error), or ``None`` before the first
        #: round-trip / against pre-telemetry daemons.  Quote it when
        #: reporting a slow or failed request — the same id names the
        #: request's root span and its access-log line on the server.
        self.last_request_id: str | None = None
        #: Every server-generated id of the most recent *call*: one
        #: entry for a single request, one per sub-batch when
        #: :meth:`place_many` splits across pipelined frames (where
        #: ``last_request_id`` alone would keep only the final
        #: sub-batch's id and lose the rest for tracing).  On a
        #: mid-pipeline failure it holds the ids read so far.
        self.last_request_ids: list[str] = []
        #: When talking to a fleet router: the ``upstream`` stanza of
        #: the most recent response (``{"member", "request_id", "ms"}``)
        #: — which member served it and how long its round-trip took.
        #: ``None`` against a plain daemon.
        self.last_upstream: dict | None = None

    # ------------------------------------------------------------ plumbing
    def connect(self) -> "MctopClient":
        """Open the connection now (a request opens it otherwise)."""
        self._conn.connect()
        return self

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "MctopClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- request
    def request(self, verb: str, /, **params) -> dict:
        """Send one request, block for its response, return the result.

        ``verb`` is positional-only so wire params that are themselves
        named ``verb`` (the ``profile`` filter) pass through ``params``.

        Raises :class:`ServiceError` (with ``.code``) on error
        responses, :class:`ProtocolError` on framing violations.  With
        ``retries > 0``, :data:`RETRYABLE_CODES` failures are retried
        with exponential backoff before surfacing.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(verb, params)
            except ServiceError as exc:
                if exc.code not in self.RETRYABLE_CODES or \
                        attempt >= self.retries:
                    raise
            delay = self.backoff * (2 ** attempt)
            if delay > 0:
                # Full ±50% jitter so retrying clients desynchronize.
                self._sleep(delay * random.uniform(0.5, 1.5))
            attempt += 1

    def request_many(self, verb: str, params_list, *,
                     window: int = 16) -> list[dict]:
        """Pipeline many requests over one connection; results in order.

        Up to ``window`` frames are kept in flight: the daemon handles
        one request per connection at a time and writes responses in
        order, so the k-th response answers the k-th request.  One
        round-trip of latency is paid once, not per request — this is
        how :meth:`place_many` sends a split batch.

        Single-attempt by design (no retry loop): an error response or
        transport failure closes the connection and raises, because
        earlier requests in the window may already have been processed.
        ``window`` bounds the response bytes parked in kernel buffers;
        keep it modest for verbs with large responses (``place_many``).
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        params_list = list(params_list)
        if not params_list:
            return []
        conn = self._conn.connect()
        results: list[dict] = []
        pending: deque[int] = deque()
        sent = 0
        self.last_request_ids = []
        try:
            while len(results) < len(params_list):
                while sent < len(params_list) and len(pending) < window:
                    self._next_id += 1
                    frame = encode_frame({"verb": verb, "id": self._next_id,
                                          "params": params_list[sent]})
                    try:
                        conn.sock.sendall(frame)
                    except OSError as exc:
                        raise ServiceError(
                            f"mctopd connection failed: {exc}",
                            code="unavailable",
                        ) from exc
                    pending.append(self._next_id)
                    sent += 1
                results.append(self._read_response(conn, pending.popleft()))
        except (ServiceError, ProtocolError):
            # In-flight responses past the failure are unrecoverable on
            # this socket; drop it so the next call reconnects clean.
            conn.close()
            raise
        return results

    def _request_once(self, verb: str, params: dict) -> dict:
        conn = self._conn.connect()
        self._next_id += 1
        request_id = self._next_id
        self.last_request_ids = []
        frame = encode_frame(
            {"verb": verb, "id": request_id, "params": params}
        )
        try:
            conn.sock.sendall(frame)
        except OSError as exc:
            conn.close()
            raise ServiceError(f"mctopd connection failed: {exc}",
                               code="unavailable") from exc
        return self._read_response(conn, request_id)

    def _read_response(self, conn: _Connection, request_id: int) -> dict:
        try:
            line = conn.file.readline(MAX_LINE_BYTES + 1)
        except OSError as exc:
            conn.close()
            raise ServiceError(f"mctopd connection failed: {exc}",
                               code="unavailable") from exc
        if not line:
            conn.close()
            raise ServiceError("mctopd closed the connection",
                               code="unavailable")
        if len(line) > MAX_LINE_BYTES:
            conn.close()
            raise ProtocolError("response frame exceeds the protocol limit")
        doc = decode_response(line)
        self.last_request_id = doc.get("request_id")
        if doc.get("request_id") is not None:
            # Accumulates across one call's pipeline (the caller resets
            # the list), so a split place_many keeps every sub-batch id
            # and a mid-pipeline failure keeps the ids read so far.
            self.last_request_ids.append(doc["request_id"])
        self.last_upstream = doc.get("upstream")
        if doc.get("id") not in (None, request_id):
            raise ProtocolError(
                f"response id {doc.get('id')!r} does not match "
                f"request id {request_id}"
            )
        if not doc["ok"]:
            error = doc.get("error") or {}
            raise ServiceError(
                error.get("message", "unknown server error"),
                code=error.get("code", "internal"),
            )
        return doc.get("result", {})

    # ------------------------------------------------------------ verbs
    def ping(self) -> dict:
        return self.request("ping")

    def infer(self, machine: str, **params) -> dict:
        return self.request("infer", machine=machine, **params)

    def show(self, machine: str, **params) -> dict:
        return self.request("show", machine=machine, **params)

    def place(self, machine: str, policy: str = "CON_HWC",
              **params) -> dict:
        return self.request("place", machine=machine, policy=policy,
                            **params)

    def place_many(self, machine: str, queries, *,
                   include_stats: bool = True, batch: int | None = None,
                   **params) -> dict:
        """Answer a batch of placement queries in one round-trip.

        ``queries`` is a list of per-query dicts (``policy`` /
        ``threads`` / ``sockets``, same as :meth:`place`).  With
        ``batch=N`` an oversized list is split into N-query frames and
        *pipelined* via :meth:`request_many`, then stitched back into
        one response document — the results list stays in query order.
        """
        queries = list(queries)
        if batch is None or len(queries) <= batch:
            return self.request("place_many", machine=machine,
                                queries=queries,
                                include_stats=include_stats, **params)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        frames = [
            dict(machine=machine, queries=queries[i:i + batch],
                 include_stats=include_stats, **params)
            for i in range(0, len(queries), batch)
        ]
        docs = self.request_many("place_many", frames)
        merged = {k: v for k, v in docs[0].items() if k != "results"}
        merged["results"] = [r for d in docs for r in d["results"]]
        merged["n_queries"] = len(merged["results"])
        return merged

    def pool_switch(self, machine: str, policy: str, **params) -> dict:
        return self.request("pool_switch", machine=machine, policy=policy,
                            **params)

    def validate(self, machine: str, **params) -> dict:
        return self.request("validate", machine=machine, **params)

    def metrics(self, **params) -> dict:
        """The daemon's metrics snapshot; pass ``format="prometheus"``
        for the text exposition instead of the JSON document."""
        return self.request("metrics", **params)

    def trace(self, request_id: str) -> dict:
        """A retained per-request trace by request id.

        Against a plain daemon: that daemon's record (``found: false``
        if evicted or never retained, ``enabled: false`` without a
        trace store).  Against a fleet router: the assembled fleet-wide
        document — router record, per-member records, the stitched
        ``timeline`` and ``missing_members``.  Any response's
        ``request_id`` (or a ``/metrics`` exemplar id) is a valid
        argument.
        """
        return self.request("trace", request_id=request_id)

    def slo(self) -> dict:
        """The SLO burn-rate engine's status document.

        Per-verb objectives with burn rates and active alerts;
        ``enabled`` is false on daemons running without the engine.
        Older daemons lacking the verb answer with an ``unknown_verb``
        :class:`~repro.errors.ServiceError`.
        """
        return self.request("slo")

    def drift(self, machine: str | None = None) -> dict:
        """The drift watcher's status (latest per-machine reports).

        Without a machine, every watched machine is reported; the
        result's ``enabled`` is false on daemons running without a
        watcher.  Older daemons lacking the verb answer with an
        ``unknown_verb`` :class:`~repro.errors.ServiceError`.
        """
        params = {} if machine is None else {"machine": machine}
        return self.request("drift", **params)

    def profile(
        self,
        action: str | None = None,
        verb: str | None = None,
        request_id: str | None = None,
        limit: int | None = None,
    ) -> dict:
        """The sampling profiler's snapshot (see the ``profile`` verb).

        Keyword params pass through: ``verb=`` filters to one verb's
        stacks, ``request_id=`` retrieves a per-request profile (fleet-
        wide exemplar ids resolve through the alias index), ``limit=``
        caps the stack entries, ``action="reset"`` clears the store.
        Against a fleet router the result is the member-merged document.
        ``enabled`` is false on daemons running without ``--profile``;
        older daemons lacking the verb answer with an ``unknown_verb``
        :class:`~repro.errors.ServiceError`.
        """
        params = {"action": action, "verb": verb,
                  "request_id": request_id, "limit": limit}
        return self.request(
            "profile", **{k: v for k, v in params.items() if v is not None}
        )
