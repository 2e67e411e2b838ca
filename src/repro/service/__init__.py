"""repro.service — the ``mctopd`` topology-and-placement service.

The measure-once/serve-many layer of the reproduction: a long-lived
asyncio daemon (:mod:`repro.service.daemon`) that runs MCTOP-ALG at
most once per ``(machine, seed, measurement config)`` content address
(:mod:`repro.service.cache`), serves topology and placement queries
over a newline-delimited JSON protocol (:mod:`repro.service.protocol`)
on TCP and Unix sockets, and keeps a placement-policy pool per client
session (:mod:`repro.service.handlers`).  The blocking
:class:`MctopClient` (:mod:`repro.service.client`) is what the
``mctop query`` subcommand and embedding applications use.
"""

from __future__ import annotations

from repro.service.cache import InferenceCache, SingleFlight, inference_key
from repro.service.client import MctopClient
from repro.service.daemon import MctopDaemon, ServeConfig, run_daemon
from repro.service.drift import DriftWatcher
from repro.service.handlers import (
    Handlers,
    Session,
    decode_mctop_blob,
    encode_mctop_blob,
    parse_inference_params,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    VERBS,
    Request,
    decode_request,
    decode_response,
    encode_frame,
    error_response,
    ok_response,
)

__all__ = [
    "DriftWatcher",
    "Handlers",
    "InferenceCache",
    "MAX_LINE_BYTES",
    "MctopClient",
    "MctopDaemon",
    "PROTOCOL_VERSION",
    "Request",
    "ServeConfig",
    "Session",
    "SingleFlight",
    "VERBS",
    "decode_mctop_blob",
    "decode_request",
    "decode_response",
    "encode_frame",
    "encode_mctop_blob",
    "error_response",
    "inference_key",
    "ok_response",
    "parse_inference_params",
    "run_daemon",
]
