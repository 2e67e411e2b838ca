"""Rotating NDJSON access log for ``mctopd``.

One JSON object per line, one line per request — the service-side
counterpart of the in-process tracer.  Every line carries the same
``request_id`` the response and the request's root span carry, so a
slow request can be chased from the client, through the access log,
into the trace.

Line schema (all keys always present)::

    {"ts": 1754512345.123,        # unix epoch seconds, float
     "request_id": "a3f9c2e1b4d07788",
     "verb": "infer",             # or null for unparseable frames
     "outcome": "ok",             # "ok" or the wire error code
     "duration_ms": 12.5,
     "cache": "hit",              # "hit" | "miss" | null (non-topology)
     "bytes_out": 4096,           # encoded response frame size
     "member": null,              # fleet member the request was proxied
                                  # to ("m0"), null when served locally
     "upstream_ms": null,         # time spent inside that member's
                                  # round-trip; null when served locally
     "decode_ms": 0.021,          # frame decode; null when not decoded
     "handler_ms": 0.35,          # the verb's route (a router's includes
                                  # upstream_ms); null when not routed
     "encode_ms": 0.012}          # response encode

Rotation, per-line flushing and the close-time flush-and-fsync are the
shared :class:`~repro.obs.events.RotatingNdjsonWriter` machinery (the
event log uses the same); ``close()`` runs during the SIGTERM drain,
so the final request's line is durably on disk before exit.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.obs.events import RotatingNdjsonWriter


def _ms(value: float | None) -> float | None:
    return None if value is None else round(value, 3)


class AccessLog:
    """Size-rotated NDJSON writer; ``None``-safe to embed (see daemon)."""

    def __init__(
        self,
        path: str | Path,
        max_bytes: int = 5_000_000,
        backups: int = 3,
    ):
        self._writer = RotatingNdjsonWriter(
            path, max_bytes=max_bytes, backups=backups
        )

    # ------------------------------------------------------------ write
    def write(
        self,
        request_id: str,
        verb: str | None,
        outcome: str,
        duration_ms: float,
        cache: str | None = None,
        bytes_out: int = 0,
        ts: float | None = None,
        member: str | None = None,
        upstream_ms: float | None = None,
        decode_ms: float | None = None,
        handler_ms: float | None = None,
        encode_ms: float | None = None,
    ) -> None:
        self._writer.write_record({
            "ts": round(time.time() if ts is None else ts, 3),
            "request_id": request_id,
            "verb": verb,
            "outcome": outcome,
            "duration_ms": round(duration_ms, 3),
            "cache": cache,
            "bytes_out": bytes_out,
            "member": member,
            "upstream_ms": _ms(upstream_ms),
            "decode_ms": _ms(decode_ms),
            "handler_ms": _ms(handler_ms),
            "encode_ms": _ms(encode_ms),
        })

    # ------------------------------------------------------------ admin
    @property
    def path(self) -> Path:
        return self._writer.path

    @property
    def max_bytes(self) -> int:
        return self._writer.max_bytes

    @property
    def backups(self) -> int:
        return self._writer.backups

    @property
    def lines_written(self) -> int:
        return self._writer.lines_written

    @property
    def rotations(self) -> int:
        return self._writer.rotations

    def close(self) -> None:
        """Flush-and-fsync close (the drain-time durability step)."""
        self._writer.close()

    def __enter__(self) -> "AccessLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
