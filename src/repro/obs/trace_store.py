"""Per-request span index with tail-based retention.

The :class:`~repro.obs.tracer.Tracer` is an export-only ring buffer:
great for "dump everything this process did", useless for "why was
request ``a3f9c2e1b4d07788`` slow?" ten minutes later.  The
:class:`TraceStore` closes that gap.  It hangs off the tracer's
``sink`` hook, groups finished spans and instants by the
``request_id`` they carry, and keeps the interesting traces around
under a bounded budget.

*Tail-based* retention means the keep/drop decision is made when the
request **finishes**, once its outcome is known — the opposite of
head sampling, which must guess up front.  Three classes of trace are
pinned (evicted only as a last resort):

* ``error``  — the request did not end in ``outcome == "ok"``;
* ``slo``    — it violated its verb's latency objective
  (:mod:`repro.obs.slo` decides, the daemon passes the verdict in);
* ``sample`` — every ``sample_every``-th finish, so a baseline of
  perfectly healthy traces survives for comparison.

Everything else is the fast/boring majority and is evicted first,
oldest first, whenever the store exceeds ``max_traces`` or
``max_bytes``; a TTL expires even pinned traces eventually.  The
result: under steady overload the store converges on exactly the
traces an operator will ask for.

Fleet stitching lives here too: :func:`assemble_fleet_timeline` merges
a router's record with the member records fetched by the router's
``trace`` fan-out, aligning each member's spans under the router's
``fleet.forward`` span for that member.  Clocks are per-process
monotonic and unrelated, so alignment is anchor-based, not absolute.
"""

from __future__ import annotations

import json
import math
import time
from collections import OrderedDict

from repro.obs.tracer import Instant, Span

__all__ = [
    "TraceStore",
    "assemble_fleet_timeline",
    "record_timeline",
    "render_timeline",
]

#: pin classes, in eviction-resistance order (sample evicts first).
PIN_KINDS = ("error", "slo", "sample")


class TraceStore:
    """Bounded request-id → trace index fed by a tracer sink.

    Wire-up is two lines::

        store = TraceStore(obs=obs, member_id="m-0")
        obs.tracer.sink = store.observe

    Spans accumulate in an *open* table keyed by their ``request_id``
    argument until :meth:`finish` seals the request with its verb,
    outcome and duration.  ``parent_request_id`` (a router's id on a
    forwarded request) is kept as an alias key so a fleet-wide id
    resolves on the member that served it.

    Sealed records live in two insertion-ordered tables, one for pinned
    records and one for the rest, so every retention step is O(1): a
    budget eviction takes the front of the unpinned table, or the front
    of the pinned table when no unpinned record is left, and the TTL
    expires records from the front of both.  A healthy daemon pins a
    sample every ``sample_every`` finishes, and the TTL expires pins
    too, so its store fills with pins only while frames arrive faster
    than ``max_traces × sample_every / ttl_seconds`` per second (about
    55 with the defaults; error and SLO pins lower that rate).  In that
    state, and only in it, each new unpinned record is the eviction
    victim the moment it arrives.  Such a record is counted
    (``retained``, ``evicted``) but never built: ``observe`` keeps the
    raw :class:`~repro.obs.tracer.Span` /
    :class:`~repro.obs.tracer.Instant` objects, and :meth:`finish`
    converts and sizes only the records it keeps.  Below that rate
    every unpinned record is kept, so built and sized, and the two
    tables save only the walk past older pins.

    All methods are synchronous and allocation-light; ``observe`` runs
    on the hot path of every span exit, so it does one dict lookup and
    one append in the common case.
    """

    def __init__(
        self,
        obs=None,
        member_id: str | None = None,
        max_traces: int = 512,
        max_bytes: int = 4_000_000,
        ttl_seconds: float = 600.0,
        sample_every: int = 64,
        max_open: int = 1024,
        clock=time.monotonic,
    ):
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.member_id = member_id
        self.max_traces = max_traces
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self.sample_every = sample_every
        self.max_open = max_open
        self._clock = clock
        #: request_id -> ([Span, ...], [Instant, ...]) (unsealed, raw)
        self._open: dict[str, tuple[list, list]] = {}
        #: request_id -> {"doc", "size", "ts", "parent"} (sealed, FIFO),
        #: pinned records apart from the unpinned ones evicted first.
        self._pinned: "OrderedDict[str, dict]" = OrderedDict()
        self._unpinned: "OrderedDict[str, dict]" = OrderedDict()
        #: parent_request_id -> local request_id alias index
        self._by_parent: dict[str, str] = {}
        self._bytes = 0
        self._finishes = 0
        # Instruments are resolved once; ``observe``/``finish`` are hot.
        if obs is not None:
            self._c_retained = obs.counter("trace_store.retained")
            self._c_pinned = obs.counter("trace_store.pinned")
            self._c_evicted = obs.counter("trace_store.evicted")
            self._c_expired = obs.counter("trace_store.expired")
            self._c_dropped = obs.counter("trace_store.dropped_events")
            self._g_traces = obs.gauge("trace_store.traces")
            self._g_bytes = obs.gauge("trace_store.bytes")
        else:
            self._c_retained = self._c_pinned = self._c_evicted = None
            self._c_expired = self._c_dropped = None
            self._g_traces = self._g_bytes = None

    # ------------------------------------------------------------ ingest
    def observe(self, event) -> None:
        """Tracer sink: file a finished span/instant under its request.

        Events without a ``request_id`` argument (tooling spans, the
        watcher's own work) are ignored.  The open table is bounded by
        ``max_open``: a span for a brand-new request past that limit is
        dropped and counted, never buffered unboundedly.
        """
        args = getattr(event, "args", None)
        if not args:
            return
        rid = args.get("request_id")
        if not rid:
            return
        record = self._open.get(rid)
        if record is None:
            if len(self._open) >= self.max_open:
                if self._c_dropped is not None:
                    self._c_dropped.inc()
                return
            record = self._open[rid] = ([], [])
        if isinstance(event, Span):
            record[0].append(event)
        elif isinstance(event, Instant):
            record[1].append(event)

    def finish(
        self,
        request_id: str,
        verb: str | None = None,
        outcome: str = "ok",
        duration_ms: float = 0.0,
        slo_violation: bool = False,
        parent_request_id: str | None = None,
    ) -> None:
        """Seal a request's trace and decide its retention class.

        Called once for every answered frame, errors included, by the
        server core's request completion — an error response with no
        recorded spans still yields a (tiny) pinned record, because
        "the trace of the failing request" is exactly what gets asked
        for.

        Retention runs in the order insert, expire, evict; a record
        that expires or is evicted on arrival is counted but never
        built.
        """
        spans, instants = self._open.pop(request_id, None) or ((), ())
        self._finishes += 1
        if outcome != "ok":
            pinned = "error"
        elif slo_violation:
            pinned = "slo"
        elif self._finishes % self.sample_every == 0:
            pinned = "sample"
        else:
            pinned = None
        old = self._pinned.pop(request_id, None)
        if old is None:
            old = self._unpinned.pop(request_id, None)
        if old is not None:
            self._forget(old, request_id)
        ts = self._clock()
        if self._c_retained is not None:
            self._c_retained.inc()
            if pinned is not None:
                self._c_pinned.inc()
        # The new record stands at the back of its table: the TTL
        # reaches it last, and the budget takes it first only when it
        # is the one unpinned record over the count budget.  Then it is
        # dropped before its document is built, and the alias it would
        # have taken over goes with it.
        expired = ts <= self._expire()
        if expired or (pinned is None and not self._unpinned
                       and len(self._pinned) >= self.max_traces):
            if parent_request_id:
                self._by_parent.pop(parent_request_id, None)
            counter = self._c_expired if expired else self._c_evicted
            if counter is not None:
                counter.inc()
        else:
            doc = {
                "request_id": request_id,
                "parent_request_id": parent_request_id,
                "verb": verb,
                "outcome": outcome,
                "duration_ms": round(duration_ms, 3),
                "pinned": pinned,
                "member": self.member_id,
                "spans": [span.to_dict() for span in spans],
                "instants": [inst.to_dict() for inst in instants],
            }
            size = len(json.dumps(doc, separators=(",", ":")))
            table = self._unpinned if pinned is None else self._pinned
            table[request_id] = {"doc": doc, "size": size, "ts": ts,
                                 "parent": parent_request_id}
            self._bytes += size
            if parent_request_id:
                self._by_parent[parent_request_id] = request_id
        self._evict()
        self._update_gauges()

    # ------------------------------------------------------------ lookup
    def get(self, request_id: str) -> dict | None:
        """The sealed record for ``request_id`` (or an alias of it).

        A router's id resolves on the member that served the forwarded
        request through the ``parent_request_id`` alias index.  Expired
        records are pruned on the way in, so a hit is always live.
        """
        self._expire()
        self._evict()
        self._update_gauges()
        entry = self._entry(request_id)
        if entry is None:
            alias = self._by_parent.get(request_id)
            if alias is not None:
                entry = self._entry(alias)
        return entry["doc"] if entry is not None else None

    def _entry(self, request_id: str) -> dict | None:
        entry = self._pinned.get(request_id)
        if entry is None:
            entry = self._unpinned.get(request_id)
        return entry

    def __len__(self) -> int:
        return len(self._pinned) + len(self._unpinned)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def status_doc(self) -> dict:
        """Shape served by the ``trace`` verb when no id matches."""
        return {
            "enabled": True,
            "traces": len(self),
            "bytes": self._bytes,
            "open": len(self._open),
            "max_traces": self.max_traces,
            "max_bytes": self.max_bytes,
            "ttl_seconds": self.ttl_seconds,
            "sample_every": self.sample_every,
        }

    # ----------------------------------------------------------- pruning
    def _forget(self, entry: dict, request_id: str) -> None:
        self._bytes -= entry["size"]
        parent = entry["parent"]
        if parent and self._by_parent.get(parent) == request_id:
            del self._by_parent[parent]

    def _expire(self) -> float:
        """TTL, pins included: each table's front is its oldest record.
        Returns the deadline; records sealed at or before it are gone."""
        if self.ttl_seconds is None:
            return -math.inf
        deadline = self._clock() - self.ttl_seconds
        for table in (self._pinned, self._unpinned):
            while table:
                rid, entry = next(iter(table.items()))
                if entry["ts"] > deadline:
                    break
                del table[rid]
                self._forget(entry, rid)
                if self._c_expired is not None:
                    self._c_expired.inc()
        return deadline

    def _evict(self) -> None:
        """Budget: the oldest unpinned record first, then the oldest pin."""
        pinned, unpinned = self._pinned, self._unpinned
        while (pinned or unpinned) and (
            len(pinned) + len(unpinned) > self.max_traces
            or self._bytes > self.max_bytes
        ):
            # Budget pressure from pinned traces alone gives up the
            # oldest pin rather than grow without bound.
            victim, entry = (unpinned or pinned).popitem(last=False)
            self._forget(entry, victim)
            if self._c_evicted is not None:
                self._c_evicted.inc()

    def _update_gauges(self) -> None:
        if self._g_traces is not None:
            self._g_traces.set(len(self._pinned) + len(self._unpinned))
            self._g_bytes.set(self._bytes)


# ------------------------------------------------------------- stitching
def record_timeline(record: dict, member: str | None = None) -> list[dict]:
    """A record's spans as timeline entries, tagged with their member."""
    member = member if member is not None else record.get("member")
    timeline = []
    for span in record.get("spans", ()):
        entry = dict(span)
        entry["member"] = member
        timeline.append(entry)
    return timeline


def assemble_fleet_timeline(
    router_record: dict | None,
    member_records: dict[str, dict] | None = None,
) -> list[dict]:
    """One stitched timeline from router + member trace records.

    Per-process clocks are unrelated monotonic timebases, so member
    spans are shifted onto the router's timebase using the router's
    ``fleet.forward`` span for that member as the anchor: the member's
    root ``service.request`` span is assumed to start where the
    router's forward to it starts (ignoring network latency, which the
    forward span itself still exposes as the gap between its duration
    and the member root's).  Members with no usable anchor keep their
    own zero-based timebase, ``stitched: false``.  Entries are sorted
    by start time; every entry carries ``member`` ("router" for the
    router's own spans).
    """
    timeline: list[dict] = []
    anchors: dict[str, float] = {}
    if router_record is not None:
        for span in router_record.get("spans", ()):
            entry = dict(span)
            entry["member"] = "router"
            timeline.append(entry)
            args = span.get("args") or {}
            if span.get("name") == "fleet.forward" and args.get("member"):
                # Retries overwrite: the last forward to a member is
                # the one whose response was (or would have been) used.
                anchors[args["member"]] = span.get("start_us", 0.0)
    for member_id, record in sorted((member_records or {}).items()):
        if not record:
            continue
        spans = record.get("spans", ())
        anchor = anchors.get(member_id)
        offset = 0.0
        stitched = False
        if anchor is not None:
            root_start = min(
                (s.get("start_us", 0.0) for s in spans
                 if s.get("name") == "service.request"),
                default=None,
            )
            if root_start is None and spans:
                root_start = min(s.get("start_us", 0.0) for s in spans)
            if root_start is not None:
                offset = anchor - root_start
                stitched = True
        for span in spans:
            entry = dict(span)
            entry["member"] = member_id
            entry["stitched"] = stitched
            entry["start_us"] = span.get("start_us", 0.0) + offset
            timeline.append(entry)
    timeline.sort(key=lambda e: (e.get("start_us", 0.0),
                                 -e.get("dur_us", 0.0)))
    return timeline


def render_timeline(doc: dict) -> str:
    """Human rendering of an assembled trace document.

    Header (id, verb, outcome, duration, pin class), one aligned line
    per span with a member column, and an explicit trailer for members
    the router could not reach — silence about missing spans is how
    stitched traces lie.
    """
    lines: list[str] = []
    record = doc.get("router") or doc.get("record") or {}
    rid = doc.get("request_id") or record.get("request_id") or "?"
    header = f"trace {rid}"
    if record.get("verb"):
        header += f"  verb {record['verb']}"
    if record.get("outcome"):
        header += f"  outcome {record['outcome']}"
    if record.get("duration_ms") is not None:
        header += f"  {record['duration_ms']:.3f} ms"
    if record.get("pinned"):
        header += f"  [pinned: {record['pinned']}]"
    lines.append(header)
    timeline = doc.get("timeline") or []
    if not timeline:
        lines.append("  (no spans recorded)")
    base = min((s.get("start_us", 0.0) for s in timeline), default=0.0)
    ordered = sorted(
        timeline,
        key=lambda s: (s.get("start_us", 0.0), -s.get("dur_us", 0.0)),
    )
    for span in ordered:
        member = span.get("member") or "local"
        start_ms = (span.get("start_us", 0.0) - base) / 1e3
        dur_ms = span.get("dur_us", 0.0) / 1e3
        mark = "" if span.get("stitched", True) else "  (unaligned)"
        lines.append(
            f"  {member:<10} {start_ms:>9.3f}ms +{dur_ms:<9.3f} "
            f"{span.get('name', '?')}{mark}"
        )
    missing = doc.get("missing_members") or []
    if missing:
        lines.append(f"  missing members: {', '.join(missing)}")
    return "\n".join(lines) + "\n"
