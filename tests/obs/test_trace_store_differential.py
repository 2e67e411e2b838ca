"""Differential test: the trace store against the rescanning code it
replaced.

The store keeps pinned and unpinned records in two insertion-ordered
tables, so retention is O(1), and it builds a record's document only
when it keeps the record.  The oracle below is the earlier store, kept
as it was: one table, a scan past every pin to find an unpinned
victim, and every span converted and every record sized on arrival.

Generated sequences of observe, finish, get and clock steps must leave
both stores in the same state after every step: the same retained ids
in the same order, the same documents and alias index, the same
``bytes_used``, ``len`` and ``status_doc()``, and the same
``trace_store.*`` counters and gauges.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.obs.trace_store import TraceStore
from repro.obs.tracer import Instant, Span


# ------------------------------------------------------------ the oracle
class RescanTraceStore:
    """The single-table store, as it was before the two-table rewrite."""

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
        self._open: dict[str, dict] = {}
        self._records: "OrderedDict[str, dict]" = OrderedDict()
        self._by_parent: dict[str, str] = {}
        self._bytes = 0
        self._finishes = 0
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

    def observe(self, event) -> None:
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
            record = {"spans": [], "instants": []}
            self._open[rid] = record
        if isinstance(event, Span):
            record["spans"].append(event.to_dict())
        elif isinstance(event, Instant):
            record["instants"].append(event.to_dict())

    def finish(self, request_id, verb=None, outcome="ok", duration_ms=0.0,
               slo_violation=False, parent_request_id=None) -> None:
        open_record = self._open.pop(request_id, None) \
            or {"spans": [], "instants": []}
        self._finishes += 1
        if outcome != "ok":
            pinned = "error"
        elif slo_violation:
            pinned = "slo"
        elif self._finishes % self.sample_every == 0:
            pinned = "sample"
        else:
            pinned = None
        doc = {
            "request_id": request_id,
            "parent_request_id": parent_request_id,
            "verb": verb,
            "outcome": outcome,
            "duration_ms": round(duration_ms, 3),
            "pinned": pinned,
            "member": self.member_id,
            "spans": open_record["spans"],
            "instants": open_record["instants"],
        }
        size = len(json.dumps(doc, separators=(",", ":")))
        old = self._records.pop(request_id, None)
        if old is not None:
            self._forget(old, request_id)
        self._records[request_id] = {
            "doc": doc, "size": size, "ts": self._clock(),
            "parent": parent_request_id,
        }
        self._bytes += size
        if parent_request_id:
            self._by_parent[parent_request_id] = request_id
        if self._c_retained is not None:
            self._c_retained.inc()
            if pinned is not None:
                self._c_pinned.inc()
        self._prune()
        self._update_gauges()

    def get(self, request_id):
        self._prune()
        self._update_gauges()
        entry = self._records.get(request_id)
        if entry is None:
            alias = self._by_parent.get(request_id)
            if alias is not None:
                entry = self._records.get(alias)
        return entry["doc"] if entry is not None else None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def status_doc(self) -> dict:
        return {
            "enabled": True,
            "traces": len(self._records),
            "bytes": self._bytes,
            "open": len(self._open),
            "max_traces": self.max_traces,
            "max_bytes": self.max_bytes,
            "ttl_seconds": self.ttl_seconds,
            "sample_every": self.sample_every,
        }

    def _forget(self, entry, request_id) -> None:
        self._bytes -= entry["size"]
        parent = entry.get("parent")
        if parent and self._by_parent.get(parent) == request_id:
            del self._by_parent[parent]

    def _prune(self) -> None:
        if self.ttl_seconds is not None:
            deadline = self._clock() - self.ttl_seconds
            while self._records:
                rid, entry = next(iter(self._records.items()))
                if entry["ts"] > deadline:
                    break
                del self._records[rid]
                self._forget(entry, rid)
                if self._c_expired is not None:
                    self._c_expired.inc()
        while self._records and (
            len(self._records) > self.max_traces
            or self._bytes > self.max_bytes
        ):
            victim = None
            for rid, entry in self._records.items():
                if entry["doc"]["pinned"] is None:
                    victim = rid
                    break
            if victim is None:
                victim = next(iter(self._records))
            entry = self._records.pop(victim)
            self._forget(entry, victim)
            if self._c_evicted is not None:
                self._c_evicted.inc()

    def _update_gauges(self) -> None:
        if self._g_traces is not None:
            self._g_traces.set(len(self._records))
            self._g_bytes.set(self._bytes)


# ------------------------------------------------------ generated steps
class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


RIDS = ("r0", "r1", "r2", "r3", "r4", "r5")
PARENTS = ("p0", "p1")

finish = st.tuples(
    st.just("finish"), st.sampled_from(RIDS),
    st.sampled_from(("ok", "ok", "ok", "error")),
    st.sampled_from((False, False, False, True)),
    st.sampled_from((None,) + PARENTS),
)
# Finishes are drawn twice as often as the other steps, so the budgets
# fill up and the evictions start within a short sequence.
step = st.one_of(
    st.tuples(st.just("span"), st.sampled_from(RIDS + (None,)),
              st.integers(0, 40)),
    st.tuples(st.just("instant"), st.sampled_from(RIDS + (None,)),
              st.integers(0, 40)),
    finish,
    finish,
    st.tuples(st.just("get"),
              st.sampled_from(RIDS + PARENTS + ("missing",))),
    st.tuples(st.just("tick"), st.sampled_from((0.0, 1.0, 2.5, 4.0))),
)

config = st.fixed_dictionaries({
    "max_traces": st.integers(1, 5),
    "max_bytes": st.sampled_from((150, 400, 900, 4_000_000)),
    "ttl_seconds": st.sampled_from((None, 0, 3, 5)),
    "sample_every": st.integers(1, 8),
    "max_open": st.integers(1, 4),
})


def trace_store_metrics(obs: Observability) -> dict:
    snapshot = obs.registry.snapshot()
    return {name: doc for name, doc in snapshot.items()
            if name.startswith("trace_store.")}


def assert_same_state(store: TraceStore, oracle: RescanTraceStore,
                      last_finish: dict[str, int]) -> None:
    expected = list(oracle._records)
    pinned = list(store._pinned)
    unpinned = list(store._unpinned)
    # Each table keeps the oracle's order restricted to its class, and
    # merged in finish order the two give the oracle's one table.
    assert pinned == [rid for rid in expected
                      if oracle._records[rid]["doc"]["pinned"] is not None]
    assert unpinned == [rid for rid in expected
                        if oracle._records[rid]["doc"]["pinned"] is None]
    assert sorted(pinned + unpinned, key=last_finish.__getitem__) == expected
    for rid in expected:
        entry = store._entry(rid)
        assert entry["doc"] == oracle._records[rid]["doc"]
        assert entry["size"] == oracle._records[rid]["size"]
    assert store._by_parent == oracle._by_parent
    assert list(store._open) == list(oracle._open)
    assert store.bytes_used == oracle.bytes_used
    assert len(store) == len(oracle)
    assert store.status_doc() == oracle.status_doc()


# The order is insert, then expire, then evict.  With a zero TTL and a
# clock that does not move, the new record expires itself (counted as
# expired, not evicted); a pin that expires makes room for the new
# unpinned record instead of the record being evicted on arrival.
ZERO_TTL = {"max_traces": 1, "max_bytes": 4_000_000, "ttl_seconds": 0,
            "sample_every": 64, "max_open": 4}
PIN_EXPIRES = dict(ZERO_TTL, ttl_seconds=3)
# A record dropped on arrival takes its parent alias with it, even when
# a retained record held that alias before.
NO_TTL = dict(ZERO_TTL, ttl_seconds=None)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(cfg=config, steps=st.lists(step, max_size=60))
@example(cfg=ZERO_TTL, steps=[("span", "r0", 1),
                              ("finish", "r0", "ok", False, "p0"),
                              ("finish", "r1", "error", False, None),
                              ("get", "p0")])
@example(cfg=PIN_EXPIRES, steps=[("finish", "r0", "error", False, None),
                                 ("tick", 4.0),
                                 ("span", "r1", 2),
                                 ("finish", "r1", "ok", False, "p1"),
                                 ("get", "p1")])
@example(cfg=NO_TTL, steps=[("finish", "r0", "error", False, "p0"),
                            ("finish", "r1", "ok", False, "p0"),
                            ("get", "p0")])
def test_two_table_store_matches_the_rescanning_store(cfg, steps):
    clock = FakeClock()
    obs, oracle_obs = Observability(), Observability()
    store = TraceStore(obs=obs, member_id="m0", clock=clock, **cfg)
    oracle = RescanTraceStore(obs=oracle_obs, member_id="m0", clock=clock,
                              **cfg)
    last_finish: dict[str, int] = {}
    for n, (kind, *args) in enumerate(steps):
        if kind == "span":
            rid, start = args
            extra = {"request_id": rid} if rid is not None else {}
            event = Span(id=n, name=f"s{n}", start_us=float(start),
                         dur_us=1.5, depth=0, args={"k": "v" * n, **extra})
            store.observe(event)
            oracle.observe(event)
        elif kind == "instant":
            rid, ts = args
            extra = {"request_id": rid} if rid is not None else {}
            event = Instant(id=n, name=f"i{n}", ts_us=float(ts), depth=1,
                            args=extra)
            store.observe(event)
            oracle.observe(event)
        elif kind == "finish":
            rid, outcome, slo, parent = args
            kwargs = dict(verb="place", outcome=outcome,
                          duration_ms=n / 7, slo_violation=slo,
                          parent_request_id=parent)
            store.finish(rid, **kwargs)
            oracle.finish(rid, **kwargs)
            last_finish[rid] = n
        elif kind == "get":
            assert store.get(args[0]) == oracle.get(args[0])
        else:
            clock.now += args[0]
        assert_same_state(store, oracle, last_finish)
        assert trace_store_metrics(obs) == trace_store_metrics(oracle_obs)


def test_a_store_full_of_pins_builds_no_unpinned_record(monkeypatch):
    """Once the pins fill the count budget, each unpinned finish is the
    eviction victim on arrival: counted, never converted or sized."""
    obs = Observability()
    store = TraceStore(obs=obs, max_traces=64, sample_every=64)
    for i in range(64):
        store.finish(f"pin{i}", outcome="error")
    assert len(store._pinned) == 64 and not store._unpinned
    bytes_before = store.bytes_used

    calls = {"dumps": 0, "to_dict": 0}
    real_dumps = json.dumps
    real_span, real_instant = Span.to_dict, Instant.to_dict

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(json, "dumps", counting("dumps", real_dumps))
    monkeypatch.setattr(Span, "to_dict", counting("to_dict", real_span))
    monkeypatch.setattr(Instant, "to_dict",
                        counting("to_dict", real_instant))
    for i in range(63):
        rid = f"ok{i}"
        store.observe(Span(id=i, name="service.request", start_us=0.0,
                           dur_us=1.0, depth=0, args={"request_id": rid}))
        store.observe(Instant(id=i, name="mark", ts_us=0.0, depth=1,
                              args={"request_id": rid}))
        store.finish(rid, verb="place", parent_request_id=f"parent{i}")
    assert calls == {"dumps": 0, "to_dict": 0}
    assert len(store._pinned) == 64 and not store._unpinned
    assert store.bytes_used == bytes_before
    assert not store._by_parent and not store._open
    registry = obs.registry
    assert registry.value("trace_store.retained") == 64 + 63
    assert registry.value("trace_store.evicted") == 63
