"""The ``mctopd`` wire protocol: newline-delimited JSON frames.

One request per line, one response per line, UTF-8, ``\\n`` terminated
(NDJSON).  The framing is trivially implementable from any language —
the same reasoning that made libmctop store plain description files
instead of binary blobs.

Request::

    {"verb": "infer", "id": 1, "params": {"machine": "ivy", "seed": 1}}

Response (success / error)::

    {"id": 1, "ok": true,  "result": {...}, "request_id": "a3f9c2e1b4d07788"}
    {"id": 1, "ok": false, "error": {"code": "timeout", "message": "..."},
     "request_id": "..."}

``id`` is an opaque client-chosen correlation value echoed back
verbatim (may be omitted).  ``request_id`` is a *server-generated*
identifier unique to the request: the same value names the request's
root span in the daemon's trace and its line in the access log, so a
slow response can be chased through telemetry end to end.  A proxy
(the fleet router) may stamp ``parent_request_id`` on a forwarded
frame; the server tags its root span with it and echoes it back, so
one fleet-wide request id stitches the router's and the member's
telemetry into one trace.  Unknown top-level request keys are ignored
for forward compatibility.  See ``docs/SERVICE.md`` and
``docs/FLEET.md`` for the full specification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice

from repro.errors import ProtocolError

PROTOCOL_VERSION = 1

#: Hard cap on one NDJSON frame.  A full serialized topology for the
#: largest catalog machine (the 8-socket SPARC) is ~2 MiB, so 16 MiB
#: leaves ample headroom while still bounding a misbehaving peer.
MAX_LINE_BYTES = 16 * 1024 * 1024


class FrameTooLong(ProtocolError):
    """A frame longer than :data:`MAX_LINE_BYTES`: framing is lost."""


class FrameSplitter:
    """NDJSON frames split off a byte stream: the one newline scan and
    :data:`MAX_LINE_BYTES` rule, for a server's requests and the fleet
    router's member answers.  :meth:`feed` what was read, then take
    frames with :meth:`next_frame` until it returns ``None``."""

    __slots__ = ("_buffer", "_start", "_scanned", "_eof")

    def __init__(self) -> None:
        self._buffer: bytes | bytearray = b""
        self._start = 0  # the bytes before it are split off
        self._scanned = 0  # bytes from _start searched for a newline
        self._eof = False

    @property
    def pending(self) -> int:
        """Bytes received and not yet split off."""
        return len(self._buffer) - self._start

    def feed(self, data: bytes) -> None:
        buffer, start = self._buffer, self._start
        if start == len(buffer):
            self._buffer = data
        else:
            if start or type(buffer) is bytes:
                buffer = bytearray(memoryview(buffer)[start:])
            buffer += data
            self._buffer = buffer
        self._start = 0

    def feed_eof(self) -> None:
        self._eof = True

    def next_frame(self) -> bytes | None:
        """The next frame, newline included; ``None`` until one is
        whole.  After :meth:`feed_eof` the unterminated tail comes last,
        as ``StreamReader.readline`` returns it, then ``b""``.  A frame
        past :data:`MAX_LINE_BYTES` raises :class:`FrameTooLong` and
        drops the buffer."""
        buffer, start = self._buffer, self._start
        newline = buffer.find(b"\n", start + self._scanned)
        if newline < 0:
            end = len(buffer)
            if end - start > MAX_LINE_BYTES:
                raise self._too_long()
            if not self._eof:
                self._scanned = end - start
                return None
        elif newline - start > MAX_LINE_BYTES:
            raise self._too_long()
        else:
            end = newline + 1
        self._start, self._scanned = end, 0
        if end == len(buffer):  # hold no reference to what is served
            self._buffer, self._start = b"", 0
        frame = buffer[start:end]
        return frame if type(frame) is bytes else bytes(frame)

    def _too_long(self) -> FrameTooLong:
        self._buffer, self._start, self._scanned = b"", 0, 0
        return FrameTooLong(f"frame exceeds {MAX_LINE_BYTES} bytes")


#: The verbs ``mctopd`` routes.  ``ping`` is the liveness probe;
#: ``place_many`` answers one batch of placement queries against one
#: topology in a single round-trip (the hot-path form of ``place``);
#: ``cache_fetch`` is the fleet cache-peering lookup (a *local-only*
#: cache probe by digest, never an inference trigger); ``trace``
#: retrieves a retained per-request trace by request id (the router
#: assembles a fleet-wide timeline from it); ``slo`` reports the SLO
#: burn-rate engine's status; ``profile`` snapshots (or resets) the
#: in-process sampling profiler, filterable by verb or request id; the
#: rest mirror the CLI subcommands they are named after.
VERBS = (
    "ping",
    "infer",
    "show",
    "place",
    "place_many",
    "pool_switch",
    "validate",
    "metrics",
    "drift",
    "cache_fetch",
    "trace",
    "slo",
    "profile",
)

#: Error codes a response may carry.
ERROR_CODES = (
    "bad_request",      # unparseable frame / missing fields
    "unknown_verb",     # verb not in VERBS
    "invalid_params",   # params failed validation (bad machine, policy, ...)
    "timeout",          # per-request deadline exceeded
    "backpressure",     # request queue full; retry later
    "shutting_down",    # daemon is draining; no new work accepted
    "unavailable",      # no reachable server / no routable fleet member
    "mctop_error",      # the underlying library raised an MctopError
    "internal",         # unexpected server-side failure
)

#: Upper bound on a ``parent_request_id`` a proxy may stamp on a
#: forwarded frame (a router request id is 16 hex chars; the cap just
#: bounds hostile input).
MAX_PARENT_REQUEST_ID = 64


@dataclass(frozen=True)
class Request:
    """A decoded request frame."""

    verb: str
    params: dict = field(default_factory=dict)
    id: object = None
    #: The upstream request id a proxy (the fleet router) stamped on
    #: the frame, so a member's trace spans carry the fleet-wide id and
    #: one fleet request reads as one stitched trace.  ``None`` for
    #: direct clients.
    parent_request_id: str | None = None


#: The encoder of every frame: ``json.dumps(obj, separators=(",", ":"))``
#: builds one like it per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_encode_str = json.encoder.encode_basestring_ascii


def encode_frame(obj: dict) -> bytes:
    """One NDJSON frame: compact JSON + newline."""
    return _ENCODER.encode(obj).encode("utf-8") + b"\n"


class EncodedDoc(dict):
    """A result document that keeps the compact JSON of its first keys.

    ``head`` is what :func:`encode_frame` writes for a dict of the
    document's first ``n_head`` keys, less the closing brace.  A
    memoized ``place`` document is encoded once, when it is memoized;
    an answer built from it with :meth:`extended` adds a few keys of its
    own, which :func:`encode_response` encodes and splices after the
    head.  To any other reader it is the plain dict it holds.
    """

    __slots__ = ("head", "n_head")

    @classmethod
    def of(cls, doc: dict) -> "EncodedDoc":
        """``doc``, with its JSON encoded now."""
        encoded = cls(doc)
        encoded.head = _ENCODER.encode(doc)[:-1]
        encoded.n_head = len(doc)
        return encoded

    def extended(self, **keys) -> "EncodedDoc":
        """A copy with ``keys`` added after the encoded ones."""
        doc = EncodedDoc(self)
        doc.update(keys)
        doc.head = self.head
        doc.n_head = self.n_head
        return doc


def _encode_value(value) -> str:
    """The compact JSON of one value, as :func:`encode_frame` writes it."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return _ENCODER.encode(value)


def encode_response(response: dict) -> bytes:
    """``encode_frame(response)``, byte for byte, with an
    :class:`EncodedDoc` result spliced from its head rather than
    encoded again."""
    result = response.get("result")
    if type(result) is not EncodedDoc:
        return encode_frame(response)
    parts = []
    for key, value in response.items():
        if key == "result":
            text = result.head
            for tail_key, tail_value in islice(result.items(), result.n_head,
                                               None):
                text += (f"{',' if len(text) > 1 else ''}"
                         f"{_encode_str(tail_key)}:"
                         f"{_encode_value(tail_value)}")
            parts.append(f"{_encode_str(key)}:{text}}}")
        else:
            parts.append(f"{_encode_str(key)}:{_encode_value(value)}")
    return f"{{{','.join(parts)}}}\n".encode("utf-8")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("a number is out of float range")
    return value


#: The decoder of every request frame.  Strict JSON: ``NaN`` and
#: ``Infinity``, which ``json.loads`` takes, are refused, and so is a
#: literal past float range such as ``1e999``, which it reads as
#: infinity.  A client ``id`` is echoed back, so an answer stays JSON
#: to a strict parser.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant,
                            parse_float=_finite_float)


def decode_request(line: bytes | str) -> Request:
    """Parse and validate one request line."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"request frame exceeds {MAX_LINE_BYTES} bytes"
            )
        line = line.decode("utf-8", errors="replace")
    try:
        if line.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
            )
        doc = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProtocolError("request nests too deep to decode") from None
    except ValueError as exc:  # an integer longer than int() converts
        raise ProtocolError(f"request cannot be decoded: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("request must be a JSON object")
    verb = doc.get("verb")
    if not isinstance(verb, str) or not verb:
        raise ProtocolError("request lacks a string 'verb' field")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    parent = doc.get("parent_request_id")
    if parent is not None and (
        not isinstance(parent, str)
        or not parent
        or len(parent) > MAX_PARENT_REQUEST_ID
    ):
        raise ProtocolError(
            "'parent_request_id' must be a non-empty string of at most "
            f"{MAX_PARENT_REQUEST_ID} chars"
        )
    return Request(verb=verb, params=params, id=doc.get("id"),
                   parent_request_id=parent)


def ok_response(client_id: object, result: dict,
                request_id: str | None = None) -> dict:
    response = {"id": client_id, "ok": True, "result": result}
    if request_id is not None:
        response["request_id"] = request_id
    return response


def error_response(client_id: object, code: str, message: str,
                   request_id: str | None = None) -> dict:
    assert code in ERROR_CODES, code
    response = {
        "id": client_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        response["request_id"] = request_id
    return response


def decode_response(line: bytes | str) -> dict:
    """Parse one response line (client side)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"response is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "ok" not in doc:
        raise ProtocolError("response lacks an 'ok' field")
    return doc
