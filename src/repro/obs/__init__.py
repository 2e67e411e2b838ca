"""repro.obs — zero-dependency tracing and metrics.

The observability layer of the reproduction (LIKWID-style always-on
lightweight instrumentation):

* :class:`Registry` — process-local counters, gauges, histograms and
  timers (:mod:`repro.obs.registry`);
* :class:`Tracer` — ring-buffered structured spans with parent/child
  nesting plus instant events (:mod:`repro.obs.tracer`);
* exporters — JSON, Chrome ``trace_event`` files and human-readable
  reports (:mod:`repro.obs.export`);
* :class:`Observability` — the container every instrumented layer
  carries (one per :class:`~repro.hardware.probes.MeasurementContext`
  or :class:`~repro.sim.engine.Engine`).
"""

from __future__ import annotations

import time

from repro.obs.diff import (
    DriftFinding,
    DriftReport,
    DriftThresholds,
    compare_mctops,
)
from repro.obs.events import EventLog, RotatingNdjsonWriter
from repro.obs.merge import (
    merge_cache_stats,
    merge_drift_docs,
    merge_profile_docs,
    merge_registry_snapshots,
    merge_slo_docs,
    merge_trace_summaries,
)
from repro.obs.profiler import (
    ProfileStore,
    SamplingProfiler,
    collapsed_stacks,
    speedscope_doc,
)
from repro.obs.export import (
    render_report,
    timeline_to_chrome,
    to_chrome_trace,
    to_json,
    write_chrome_trace,
)
from repro.obs.prometheus import render_prometheus, sanitize_metric_name
from repro.obs.registry import Counter, Gauge, Histogram, Registry, Timer
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    Objective,
    SloEngine,
    parse_objectives,
)
from repro.obs.trace_store import (
    TraceStore,
    assemble_fleet_timeline,
    record_timeline,
    render_timeline,
)
from repro.obs.tracer import Instant, Span, Tracer


class Observability:
    """One registry + one tracer, travelling together.

    Every instrumented object (measurement context, simulation engine)
    owns — or is handed — an ``Observability``; sharing one instance
    across layers produces a single coherent trace for a whole run.
    """

    def __init__(self, capacity: int = 8192, clock=time.perf_counter):
        self.registry = Registry()
        self.tracer = Tracer(capacity=capacity, clock=clock)

    # Shortcuts so call sites read ``obs.counter("x").inc()``.
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name)

    def timer(self, name: str) -> Timer:
        return self.registry.timer(name)

    def span(self, name: str, **args):
        return self.tracer.span(name, **args)

    def instant(self, name: str, **args) -> None:
        self.tracer.instant(name, **args)

    def summary(self) -> dict:
        """Deterministic run summary (counts only, no wall-clock data) —
        what :class:`~repro.core.mctop.Provenance` carries."""
        trace = self.tracer.summary()
        counters = {
            name: snap["value"]
            for name, snap in self.registry.snapshot().items()
            if snap["kind"] == "counter"
        }
        return {
            "spans": trace["finished_spans"],
            "instants": trace["instants"],
            "dropped_events": trace["dropped"],
            "counters": counters,
        }

    def report(self) -> str:
        return render_report(self.tracer, self.registry)

    def write_chrome_trace(self, path):
        return write_chrome_trace(path, self.tracer, self.registry)


__all__ = [
    "Counter",
    "DEFAULT_OBJECTIVES",
    "DriftFinding",
    "DriftReport",
    "DriftThresholds",
    "EventLog",
    "Gauge",
    "Histogram",
    "Instant",
    "Objective",
    "Observability",
    "ProfileStore",
    "Registry",
    "RotatingNdjsonWriter",
    "SamplingProfiler",
    "SloEngine",
    "Span",
    "Timer",
    "TraceStore",
    "Tracer",
    "assemble_fleet_timeline",
    "collapsed_stacks",
    "compare_mctops",
    "merge_profile_docs",
    "merge_slo_docs",
    "parse_objectives",
    "speedscope_doc",
    "record_timeline",
    "render_prometheus",
    "render_report",
    "render_timeline",
    "sanitize_metric_name",
    "timeline_to_chrome",
    "to_chrome_trace",
    "to_json",
    "write_chrome_trace",
]
