"""The ``mctopd`` drift watcher: continuous topology validation.

The paper validates an inferred topology once (Section 5, Figs. 5-7);
a long-lived daemon serving cached topologies needs the always-on
version: does each cached description still match the machine it
describes?  Google-Wide-Profiling-style, the watcher makes that a
background loop instead of an ad-hoc check.

Every ``interval`` seconds, for every watched machine, the watcher

1. re-runs a *quick-config* inference (the ``watch_repetitions``
   measurement budget, far cheaper than a serving-grade run) in a
   worker thread;
2. loads the baseline from the daemon's content-addressed cache under
   the same ``(machine, seed, table)`` key — the first check primes
   the cache, so the baseline is durable in the on-disk store;
3. diffs baseline vs fresh with
   :func:`~repro.obs.diff.compare_mctops` and publishes the outcome
   everywhere the service exposes state: the metrics registry
   (``service.drift.*`` counters and per-machine severity/age gauges,
   which flow through the existing Registry → Prometheus path), the
   structured event log (``drift.check`` / ``drift.transition`` /
   ``drift.baseline`` / ``watcher.error``), the ``drift`` verb (the
   latest full :class:`~repro.obs.diff.DriftReport` per machine) and
   ``/healthz`` (``degraded`` while any machine is critical).

Each check runs under its own generated request id (set in
:data:`~repro.service.context.current_request_id`), so watcher spans,
events and any cache activity it triggers correlate exactly like a
client request's.
"""

from __future__ import annotations

import asyncio
import time

from repro.core.algorithm import InferenceConfig, LatencyTableConfig
from repro.core.algorithm.inference import infer_topology
from repro.hardware import get_machine, machine_names
from repro.obs import Observability
from repro.obs.diff import (
    DriftReport,
    DriftThresholds,
    compare_mctops,
    severity_rank,
)
from repro.obs.events import EventLog
from repro.service.cache import InferenceCache, inference_key
from repro.service.context import current_request_id, new_request_id


class MachineDriftState:
    """Everything the watcher knows about one watched machine."""

    __slots__ = ("machine", "key", "severity", "report",
                 "last_check_ts", "checks", "errors")

    def __init__(self, machine: str, key: str):
        self.machine = machine
        self.key = key
        self.severity: str | None = None  # None until the first check
        self.report: DriftReport | None = None
        self.last_check_ts: float | None = None
        self.checks = 0
        self.errors = 0

    def status_doc(self, now: float) -> dict:
        return {
            "machine": self.machine,
            "key": self.key,
            "severity": self.severity or "unknown",
            "severity_rank": severity_rank(self.severity)
            if self.severity is not None else None,
            "checks": self.checks,
            "errors": self.errors,
            "last_check_ts": round(self.last_check_ts, 3)
            if self.last_check_ts is not None else None,
            "age_seconds": round(now - self.last_check_ts, 3)
            if self.last_check_ts is not None else None,
            "report": self.report.to_dict()
            if self.report is not None else None,
        }


class DriftWatcher:
    """Periodic re-measure-and-diff over a set of catalog machines."""

    def __init__(
        self,
        cache: InferenceCache,
        obs: Observability,
        machines: tuple[str, ...],
        interval: float = 300.0,
        seed: int = 0,
        table: LatencyTableConfig | None = None,
        thresholds: DriftThresholds | None = None,
        events: EventLog | None = None,
    ):
        if not machines:
            raise ValueError("DriftWatcher needs at least one machine")
        unknown = [m for m in machines if m not in machine_names()]
        if unknown:
            raise ValueError(
                f"unknown watch machines: {', '.join(unknown)} "
                f"(known: {', '.join(machine_names())})"
            )
        if interval <= 0:
            raise ValueError("watch interval must be positive")
        self.cache = cache
        self.obs = obs
        self.interval = float(interval)
        self.seed = int(seed)
        self.table = table or LatencyTableConfig(repetitions=15)
        self.thresholds = thresholds or DriftThresholds()
        self.events = events
        self.states: dict[str, MachineDriftState] = {
            m: MachineDriftState(m, inference_key(m, self.seed, self.table))
            for m in machines
        }
        self._task: asyncio.Task | None = None

    # --------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the background loop (first sweep runs immediately)."""
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def _run(self) -> None:
        while True:
            await self.check_all()
            await asyncio.sleep(self.interval)

    # ------------------------------------------------------------ checks
    async def check_all(self) -> None:
        for machine in self.states:
            try:
                await self.check_one(machine)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # a broken check must not kill the loop
                self._record_error(machine, exc)

    async def check_one(self, machine: str) -> DriftReport:
        """One re-measure-and-diff pass for one machine."""
        state = self.states[machine]
        rid = new_request_id()
        token = current_request_id.set(rid)
        try:
            with self.obs.span("service.drift_check", machine=machine,
                               key=state.key[:12], request_id=rid):
                fresh = await asyncio.to_thread(
                    infer_topology,
                    get_machine(machine),
                    seed=self.seed,
                    config=InferenceConfig(table=self.table),
                )
                baseline = await self.cache.get_async(state.key)
                if baseline is None:
                    # First sight of this machine: the fresh topology
                    # becomes the durable baseline; by definition no
                    # drift yet.
                    await self.cache.put_async(state.key, fresh)
                    report = compare_mctops(fresh, fresh, self.thresholds)
                    self._emit("drift.baseline", machine=machine,
                               key=state.key)
                else:
                    report = compare_mctops(baseline, fresh,
                                            self.thresholds)
            self._publish(state, report)
            return report
        finally:
            current_request_id.reset(token)

    # --------------------------------------------------------- publishing
    def _publish(self, state: MachineDriftState, report: DriftReport,
                 ) -> None:
        machine = state.machine
        previous = state.severity
        state.report = report
        state.severity = report.severity
        state.last_check_ts = time.time()
        state.checks += 1

        self.obs.counter("service.drift.checks").inc()
        self.obs.counter(f"service.drift.checks.{report.severity}").inc()
        self.obs.gauge(f"service.drift.severity.{machine}").set(
            severity_rank(report.severity)
        )
        self.obs.gauge(f"service.drift.findings.{machine}").set(
            len(report.findings)
        )
        self.obs.gauge(f"service.drift.last_check_ts.{machine}").set(
            state.last_check_ts
        )
        counts = report.counts()
        self._emit("drift.check", machine=machine, key=state.key,
                   severity=report.severity, findings=counts["total"],
                   critical=counts["critical"], warn=counts["warn"])
        if previous != report.severity:
            self.obs.counter("service.drift.transitions").inc()
            self.obs.instant("service.drift.transition", machine=machine,
                             previous=previous, severity=report.severity)
            self._emit("drift.transition", machine=machine,
                       previous=previous, severity=report.severity)

    def _record_error(self, machine: str, exc: Exception) -> None:
        state = self.states[machine]
        state.errors += 1
        self.obs.counter("service.drift.errors").inc()
        self.obs.instant("service.drift.error", machine=machine,
                         error=f"{type(exc).__name__}: {exc}")
        self._emit("watcher.error", machine=machine,
                   error=f"{type(exc).__name__}: {exc}")

    def _emit(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    # ------------------------------------------------------------- status
    @property
    def worst_severity(self) -> str:
        """The worst current severity across machines (checked ones)."""
        worst = "ok"
        for state in self.states.values():
            if state.severity is not None and \
                    severity_rank(state.severity) > severity_rank(worst):
                worst = state.severity
        return worst

    @property
    def degraded(self) -> bool:
        return self.worst_severity == "critical"

    def status_doc(self, machine: str | None = None) -> dict:
        """The ``drift`` verb's result document."""
        now = time.time()
        states = self.states
        if machine is not None:
            if machine not in states:
                from repro.errors import ServiceError

                raise ServiceError(
                    f"machine {machine!r} is not watched "
                    f"(watched: {', '.join(sorted(states))})",
                    code="invalid_params",
                )
            states = {machine: states[machine]}
        return {
            "enabled": True,
            "interval": self.interval,
            "seed": self.seed,
            "worst_severity": self.worst_severity,
            "degraded": self.degraded,
            "machines": {
                name: state.status_doc(now)
                for name, state in sorted(states.items())
            },
        }
