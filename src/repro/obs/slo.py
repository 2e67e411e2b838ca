"""Declarative per-verb SLOs with multi-window burn-rate alerting.

An :class:`Objective` states what "good" means for one verb — a p99
latency target and an availability floor — and the :class:`SloEngine`
keeps score: every request is classified good/bad at observe time
(bad = errored *or* slower than the p99 target), counts accumulate in
small fixed-width time buckets, and alerts fire on **burn rate**: the
ratio of the observed bad fraction to the error budget
(``1 - availability``).  A burn rate of 1.0 spends the budget exactly
at the edge of compliance; 14.4 exhausts a 30-day budget in ~2 days.

Following the SRE-workbook multi-window pattern, each severity pairs a
short and a long window that must *both* be burning, which suppresses
the two classic false alarms: a brief spike (fails the long window)
and stale history (fails the short window).  The defaults —
fast = 5m/1h at 14.4×, slow = 30m/6h at 6× — are the canonical pairs,
scaled to whatever traffic fits in the process's uptime.

The engine is deliberately passive: it never spawns tasks.  Burn
evaluation piggybacks on ``observe`` (at most once per second) and on
the read-side accessors, so an idle daemon spends nothing and a busy
one spends O(objectives × buckets) per second.

Outputs, in decreasing order of urgency:

* ``/healthz`` degrades (503) while any fast-burn alert is active;
* ``slo.burn`` / ``slo.recovered`` events with verb + severity;
* ``slo.<verb>.burn_rate.fast|slow`` and ``slo.<verb>.alerting``
  gauges (rendered as ``slo_*`` on ``/metrics``);
* the ``slo`` verb's status document and the ``mctop top`` SLO panel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

__all__ = [
    "DEFAULT_OBJECTIVES",
    "FAST_BURN",
    "Objective",
    "SLOW_BURN",
    "SloEngine",
    "parse_objective",
    "parse_objectives",
]


@dataclass(frozen=True)
class Objective:
    """What "good" means for one verb.

    A request is *bad* when it errors or exceeds ``p99_ms``; the
    objective is met while the bad fraction stays within the error
    budget ``1 - availability``.
    """

    verb: str
    p99_ms: float
    availability: float = 0.999

    def __post_init__(self):
        if not self.verb:
            raise ValueError("objective verb must be non-empty")
        # NaN compares false with everything, so a NaN target would
        # count every request good and put a bare NaN in the slo answer.
        if not (math.isfinite(self.p99_ms) and self.p99_ms > 0):
            raise ValueError("p99_ms must be finite and > 0")
        if not 0.0 < self.availability < 1.0:
            raise ValueError("availability must be in (0, 1)")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.availability

    def to_dict(self) -> dict:
        return {
            "verb": self.verb,
            "p99_ms": self.p99_ms,
            "availability": self.availability,
        }


#: Conservative defaults for the service's three latency-bearing verbs:
#: an indexed placement lookup is sub-millisecond at p50, a split batch
#: amortises over the wire, an inference may legitimately run seconds.
DEFAULT_OBJECTIVES = (
    Objective("place", p99_ms=50.0),
    Objective("place_many", p99_ms=500.0),
    Objective("infer", p99_ms=5000.0, availability=0.99),
)


@dataclass(frozen=True)
class BurnPair:
    """A short/long window pair and the burn rate that trips both."""

    short_seconds: float
    long_seconds: float
    factor: float


#: SRE-workbook pairs: page-worthy fast burn, ticket-worthy slow burn.
FAST_BURN = BurnPair(short_seconds=300.0, long_seconds=3600.0, factor=14.4)
SLOW_BURN = BurnPair(short_seconds=1800.0, long_seconds=21600.0, factor=6.0)

_ALERT_LEVEL = {None: 0, "slow": 1, "fast": 2}


def parse_objective(spec: str) -> Objective:
    """``"VERB:p99=MS[,avail=FRACTION]"`` → :class:`Objective`.

    ``avail`` accepts a fraction (``0.999``) or a percentage
    (``99.9``); anything ≥ 1 is read as a percentage.
    """
    verb, sep, rest = spec.partition(":")
    verb = verb.strip()
    if not sep or not verb:
        raise ValueError(
            f"bad objective {spec!r}: expected VERB:p99=MS[,avail=PCT]"
        )
    p99_ms = None
    availability = 0.999
    for part in rest.split(","):
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"bad objective field {part!r} in {spec!r}")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(
                f"bad objective value {value!r} in {spec!r}"
            ) from None
        if key == "p99":
            p99_ms = number
        elif key == "avail":
            availability = number / 100.0 if number >= 1.0 else number
        else:
            raise ValueError(f"unknown objective field {key!r} in {spec!r}")
    if p99_ms is None:
        raise ValueError(f"objective {spec!r} must set p99=MS")
    return Objective(verb, p99_ms=p99_ms, availability=availability)


def parse_objectives(specs) -> tuple[Objective, ...]:
    objectives = tuple(parse_objective(s) for s in specs)
    seen: set[str] = set()
    for objective in objectives:
        if objective.verb in seen:
            raise ValueError(f"duplicate objective for verb "
                             f"{objective.verb!r}")
        seen.add(objective.verb)
    return objectives


class _VerbState:
    """Rolling good/bad buckets plus the alert latch for one verb."""

    __slots__ = ("objective", "buckets", "alert", "burn",
                 "good_total", "bad_total")

    def __init__(self, objective: Objective):
        self.objective = objective
        #: list of [bucket_index, good, bad]; append-only at the tail,
        #: trimmed at the head once older than the longest window.
        self.buckets: list[list] = []
        self.alert: str | None = None
        self.burn = {"fast": 0.0, "slow": 0.0}
        self.good_total = 0
        self.bad_total = 0

    def window_counts(self, now_index: int, window_buckets: int):
        cutoff = now_index - window_buckets
        good = bad = 0
        for index, g, b in reversed(self.buckets):
            if index <= cutoff:
                break
            good += g
            bad += b
        return good, bad


class SloEngine:
    """Score requests against objectives; latch multi-window alerts."""

    def __init__(
        self,
        objectives=DEFAULT_OBJECTIVES,
        obs=None,
        events=None,
        clock=time.monotonic,
        fast: BurnPair = FAST_BURN,
        slow: BurnPair = SLOW_BURN,
        bucket_seconds: float = 5.0,
        min_requests: int = 10,
        eval_interval: float = 1.0,
    ):
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be > 0")
        self.objectives = tuple(objectives)
        self.obs = obs
        self.events = events
        self.fast = fast
        self.slow = slow
        self.bucket_seconds = bucket_seconds
        self.min_requests = min_requests
        self.eval_interval = eval_interval
        self._clock = clock
        self._states = {o.verb: _VerbState(o) for o in self.objectives}
        self._last_eval = float("-inf")
        self._max_window = max(fast.long_seconds, slow.long_seconds)
        self._gauges: dict[tuple[str, str], object] = {}

    # ----------------------------------------------------------- observe
    def observe(self, verb: str, duration_s: float, ok: bool = True) -> bool:
        """Score one request; returns True when it violated the SLO.

        The return value is the tail-sampling signal: the daemon passes
        it to ``TraceStore.finish`` so SLO-violating traces get pinned.
        Verbs without an objective are not scored and never violate.
        """
        state = self._states.get(verb)
        if state is None:
            return False
        bad = (not ok) or duration_s * 1e3 > state.objective.p99_ms
        index = int(self._clock() / self.bucket_seconds)
        buckets = state.buckets
        if buckets and buckets[-1][0] == index:
            tail = buckets[-1]
            tail[1] += 0 if bad else 1
            tail[2] += 1 if bad else 0
        else:
            buckets.append([index, 0 if bad else 1, 1 if bad else 0])
            self._trim(state, index)
        if bad:
            state.bad_total += 1
        else:
            state.good_total += 1
        self.maybe_evaluate()
        return bad

    def _trim(self, state: _VerbState, now_index: int) -> None:
        horizon = now_index - int(self._max_window / self.bucket_seconds) - 1
        buckets = state.buckets
        drop = 0
        while drop < len(buckets) and buckets[drop][0] <= horizon:
            drop += 1
        if drop:
            del buckets[:drop]

    # ---------------------------------------------------------- evaluate
    def maybe_evaluate(self) -> None:
        if self._clock() - self._last_eval >= self.eval_interval:
            self.evaluate()

    def evaluate(self) -> None:
        """Recompute burn rates and run the alert state machine."""
        now = self._clock()
        self._last_eval = now
        now_index = int(now / self.bucket_seconds)
        for verb, state in self._states.items():
            fast_active = self._pair_burning(state, now_index, self.fast)
            slow_active = self._pair_burning(state, now_index, self.slow)
            state.burn["fast"] = self._burn(state, now_index,
                                            self.fast.short_seconds)
            state.burn["slow"] = self._burn(state, now_index,
                                            self.slow.short_seconds)
            new_alert = ("fast" if fast_active
                         else "slow" if slow_active else None)
            if new_alert != state.alert:
                self._transition(verb, state, new_alert)
            self._export(verb, state)

    def _burn(self, state: _VerbState, now_index: int,
              window_seconds: float) -> float:
        window_buckets = max(1, int(window_seconds / self.bucket_seconds))
        good, bad = state.window_counts(now_index, window_buckets)
        total = good + bad
        if total < self.min_requests:
            return 0.0
        return (bad / total) / state.objective.error_budget

    def _pair_burning(self, state: _VerbState, now_index: int,
                      pair: BurnPair) -> bool:
        return (
            self._burn(state, now_index, pair.short_seconds) >= pair.factor
            and self._burn(state, now_index, pair.long_seconds) >= pair.factor
        )

    def _transition(self, verb: str, state: _VerbState,
                    new_alert: str | None) -> None:
        previous = state.alert
        state.alert = new_alert
        if self.events is None:
            return
        if new_alert is not None:
            self.events.emit(
                "slo.burn", verb=verb, severity=new_alert,
                burn_fast=round(state.burn["fast"], 2),
                burn_slow=round(state.burn["slow"], 2),
                previous=previous,
            )
        else:
            self.events.emit("slo.recovered", verb=verb, previous=previous)

    def _export(self, verb: str, state: _VerbState) -> None:
        if self.obs is None:
            return
        for kind in ("fast", "slow"):
            gauge = self._gauges.get((verb, kind))
            if gauge is None:
                gauge = self.obs.gauge(f"slo.{verb}.burn_rate.{kind}")
                self._gauges[(verb, kind)] = gauge
            gauge.set(round(state.burn[kind], 4))
        gauge = self._gauges.get((verb, "alerting"))
        if gauge is None:
            gauge = self.obs.gauge(f"slo.{verb}.alerting")
            self._gauges[(verb, "alerting")] = gauge
        gauge.set(_ALERT_LEVEL[state.alert])

    # -------------------------------------------------------------- read
    @property
    def degraded(self) -> bool:
        """True while any verb has an active fast-burn alert."""
        self.maybe_evaluate()
        return any(s.alert == "fast" for s in self._states.values())

    def status_doc(self) -> dict:
        """Shape served by the ``slo`` verb and the ``top`` SLO panel."""
        self.evaluate()
        objectives = {}
        for verb, state in self._states.items():
            objectives[verb] = {
                "p99_ms": state.objective.p99_ms,
                "availability": state.objective.availability,
                "alert": state.alert,
                "burn": {
                    "fast": round(state.burn["fast"], 4),
                    "slow": round(state.burn["slow"], 4),
                },
                "good": state.good_total,
                "bad": state.bad_total,
            }
        return {
            "enabled": True,
            "degraded": any(
                s.alert == "fast" for s in self._states.values()
            ),
            "objectives": objectives,
        }

