"""Request-scoped context for ``mctopd``.

The daemon stamps every request with a server-generated ``request_id``
and parks it in a :class:`~contextvars.ContextVar` for the duration of
the dispatch, so every layer the request flows through — cache lookup,
single-flight coalescing, the MCTOP-ALG run itself — can tag its spans
and instants with the id without threading an argument through every
signature.  asyncio propagates the context into tasks spawned by the
request (notably the single-flight leader's inference task), which is
exactly the propagation the trace needs.
"""

from __future__ import annotations

import os
from contextvars import ContextVar

#: The id of the request currently being dispatched, or ``None``
#: outside a request (e.g. daemon startup, tests driving handlers
#: directly).
current_request_id: ContextVar[str | None] = ContextVar(
    "mctopd_request_id", default=None
)


def new_request_id() -> str:
    """A fresh 16-hex-char request id: 64 random bits.

    The server mints one per frame and the drift watcher one per check.
    (A ``uuid4`` hex prefix would carry only 60: its 13th digit is the
    UUID version, always ``4``.)
    """
    return os.urandom(8).hex()
