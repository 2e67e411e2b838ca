"""Structured event tracing: ring-buffered spans with parent/child nesting.

A :class:`Tracer` records *spans* (named intervals with arbitrary
``args``) and *instant events* (zero-duration markers, e.g. a retried
measurement pair).  Spans nest through a context manager::

    with tracer.span("infer", machine="ivy"):
        with tracer.span("lat_table.collect"):
            ...
        tracer.instant("lat_table.retry", pair=(3, 7))

The nesting stack lives in a :class:`contextvars.ContextVar`, so spans
opened by concurrent asyncio tasks (one ``mctopd`` request each) parent
correctly within their own task instead of interleaving on a shared
stack; synchronous code sees the exact pre-contextvar behaviour.

Finished spans land in a bounded ring buffer (oldest dropped first, the
drop count is kept — ``dropped`` for all events, ``dropped_spans`` for
spans specifically, both surfaced by :meth:`Tracer.summary`) so an
always-on tracer can never grow without bound.  Spans recorded by a
*different* process (``jobs=N`` measurement workers) are stitched into
the parent trace with :meth:`Tracer.adopt_span`; adopted spans ride
along in exports but are excluded from the deterministic summary so
``jobs=1`` and ``jobs=8`` runs stay bit-identical.  Timestamps come
from an injectable clock, which the tests replace with a deterministic
counter.
"""

from __future__ import annotations

import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field


@dataclass
class Span:
    """One finished interval of work."""

    id: int
    name: str
    start_us: float
    dur_us: float
    depth: int  # nesting depth; 0 = root
    parent_id: int | None = None
    args: dict = field(default_factory=dict)
    #: True for spans recorded elsewhere (e.g. a ``jobs=N`` worker
    #: process) and stitched in after the fact; excluded from
    #: :meth:`Tracer.summary` so summaries stay mode-independent.
    stitched: bool = False

    def to_dict(self) -> dict:
        doc = {
            "id": self.id,
            "name": self.name,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "depth": self.depth,
            "parent_id": self.parent_id,
            "args": self.args,
        }
        if self.stitched:
            doc["stitched"] = True
        return doc


@dataclass
class Instant:
    """A zero-duration marker event."""

    id: int
    name: str
    ts_us: float
    depth: int
    parent_id: int | None = None
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "ts_us": self.ts_us,
            "depth": self.depth,
            "parent_id": self.parent_id,
            "args": self.args,
        }


class Tracer:
    """Ring-buffered structured tracer.

    Parameters
    ----------
    capacity:
        Maximum number of retained events (spans + instants together).
        When full, the oldest events are dropped and ``dropped`` counts
        them (``dropped_spans`` counts the span subset).
    clock:
        A monotonic clock returning seconds; injectable for tests.
    """

    def __init__(self, capacity: int = 8192, clock=time.perf_counter):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._epoch = clock()
        self.events: deque[Span | Instant] = deque()
        self.dropped = 0
        self.dropped_spans = 0
        self._next_id = 0
        # (span id, name) tuples; per asyncio-task/context so concurrent
        # requests in one daemon never corrupt each other's parenting.
        self._stack_var: ContextVar[tuple[tuple[int, str], ...]] = ContextVar(
            "repro_tracer_stack", default=()
        )
        self.finished_spans = 0
        self.adopted_spans = 0
        self.instants = 0
        #: optional callable invoked with every recorded event, *after*
        #: it enters the ring.  The :class:`~repro.obs.trace_store
        #: .TraceStore` hangs off this to index spans by request id;
        #: the ring's capacity/drop accounting is unaffected by it.
        #: A raising sink never fails the instrumented request: the
        #: exception is swallowed and counted in :attr:`sink_errors`.
        self.sink = None
        self.sink_errors = 0

    # ------------------------------------------------------------ clock
    def _now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    def _record(self, event: Span | Instant) -> None:
        if len(self.events) >= self.capacity:
            evicted = self.events.popleft()
            self.dropped += 1
            if isinstance(evicted, Span):
                self.dropped_spans += 1
        self.events.append(event)
        if self.sink is not None:
            try:
                self.sink(event)
            except Exception:
                self.sink_errors += 1

    # ----------------------------------------------------------- spans
    def span(self, name: str, **args) -> "_OpenSpan":
        """A nested span, as a context manager whose ``__enter__``
        returns the span id."""
        return _OpenSpan(self, name, args)

    def adopt_span(
        self,
        name: str,
        dur_us: float,
        start_us: float | None = None,
        **args,
    ) -> int:
        """Stitch a span measured elsewhere into this trace.

        Used when a ``jobs=N`` worker process (which has no access to
        the parent tracer) reports the timing of its chunk back to the
        parent: the merge loop adopts one child span per chunk, parented
        under whatever span is open at adoption time.  Adopted spans
        appear in exports (Chrome trace, ``to_json``) but never in
        :meth:`summary`, so deterministic summaries are identical for
        every ``jobs`` value.  Returns the new span id.
        """
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack_var.get()
        parent = stack[-1][0] if stack else None
        if start_us is None:
            start_us = self._now_us() - dur_us
        self.adopted_spans += 1
        self._record(
            Span(
                id=span_id,
                name=name,
                start_us=start_us,
                dur_us=dur_us,
                depth=len(stack),
                parent_id=parent,
                args=args,
                stitched=True,
            )
        )
        return span_id

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker at the current position."""
        event_id = self._next_id
        self._next_id += 1
        stack = self._stack_var.get()
        parent = stack[-1][0] if stack else None
        self.instants += 1
        self._record(
            Instant(
                id=event_id,
                name=name,
                ts_us=self._now_us(),
                depth=len(stack),
                parent_id=parent,
                args=args,
            )
        )

    @property
    def active_depth(self) -> int:
        return len(self._stack_var.get())

    # --------------------------------------------------------- queries
    def spans(self) -> list[Span]:
        return [e for e in self.events if isinstance(e, Span)]

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans() if s.name == name]

    def instants_named(self, name: str) -> list[Instant]:
        return [e for e in self.events
                if isinstance(e, Instant) and e.name == name]

    def summary(self) -> dict:
        """Deterministic per-name aggregates (counts; durations summed
        separately so they can be excluded from golden comparisons).
        Stitched (adopted) spans are excluded so the summary does not
        depend on the ``jobs`` fan-out that produced the trace."""
        by_name: dict[str, dict] = {}
        for span in self.spans():
            if span.stitched:
                continue
            agg = by_name.setdefault(
                span.name, {"count": 0, "total_us": 0.0}
            )
            agg["count"] += 1
            agg["total_us"] += span.dur_us
        return {
            "finished_spans": self.finished_spans,
            "instants": self.instants,
            "dropped": self.dropped,
            "dropped_spans": self.dropped_spans,
            "sink_errors": self.sink_errors,
            "by_name": by_name,
        }

    def reset(self) -> None:
        self.events.clear()
        self.dropped = 0
        self.dropped_spans = 0
        self.sink_errors = 0
        self.finished_spans = 0
        self.adopted_spans = 0
        self.instants = 0
        self._stack_var.set(())
        self._epoch = self._clock()


class _OpenSpan:
    """One :meth:`Tracer.span`: the id is taken on entry, and the
    :class:`Span` is recorded on exit, raising or not.  A plain class
    rather than a generator context manager, since the daemon opens
    several spans per frame."""

    __slots__ = ("_tracer", "_name", "_args", "_id", "_parent", "_depth",
                 "_token", "_start")

    def __init__(self, tracer: Tracer, name: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> int:
        tracer = self._tracer
        span_id = self._id = tracer._next_id
        tracer._next_id = span_id + 1
        stack = tracer._stack_var.get()
        self._parent = stack[-1][0] if stack else None
        self._depth = len(stack)
        self._token = tracer._stack_var.set(stack + ((span_id, self._name),))
        self._start = tracer._now_us()
        return span_id

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end = tracer._now_us()
        tracer._stack_var.reset(self._token)
        tracer.finished_spans += 1
        tracer._record(
            Span(
                id=self._id,
                name=self._name,
                start_us=self._start,
                dur_us=end - self._start,
                depth=self._depth,
                parent_id=self._parent,
                args=self._args,
            )
        )
