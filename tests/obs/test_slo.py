"""Unit tests for the SLO objective model and burn-rate engine."""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.obs.merge import merge_slo_docs
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    FAST_BURN,
    Objective,
    SloEngine,
    parse_objective,
    parse_objectives,
)


class FakeClock:
    def __init__(self, now: float = 10_000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class FakeEvents:
    """Captures ``emit`` calls; the engine only needs that much of
    :class:`repro.obs.events.EventLog` (which is file-backed)."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, kind: str, **fields) -> None:
        self.records.append(dict(fields, kind=kind))


# ---------------------------------------------------------------- parsing
def test_parse_objective_full():
    o = parse_objective("place:p99=50,avail=99.9")
    assert o.verb == "place"
    assert o.p99_ms == 50.0
    assert o.availability == pytest.approx(0.999)


def test_parse_objective_fraction_availability():
    assert parse_objective("x:p99=1,avail=0.95").availability == 0.95


@pytest.mark.parametrize("spec", [
    "noseparator", "place:", "place:p99", "place:avail=99",
    "place:p99=abc", "place:bogus=1", "place:p99=nan", "place:p99=inf",
])
def test_parse_objective_rejects(spec):
    with pytest.raises(ValueError):
        parse_objective(spec)


def test_parse_objectives_rejects_duplicates():
    with pytest.raises(ValueError):
        parse_objectives(["place:p99=50", "place:p99=60"])


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective("place", p99_ms=-1.0)
    with pytest.raises(ValueError, match="finite"):
        Objective("place", p99_ms=float("nan"))
    with pytest.raises(ValueError):
        Objective("place", p99_ms=1.0, availability=1.5)
    assert Objective("place", p99_ms=1.0).error_budget > 0


def test_default_objectives_cover_place():
    assert {o.verb for o in DEFAULT_OBJECTIVES} >= {"place", "place_many"}


# ----------------------------------------------------------------- engine
def _engine(**kwargs):
    clock = FakeClock()
    engine = SloEngine(
        objectives=(Objective("place", p99_ms=50.0, availability=0.99),),
        clock=clock,
        min_requests=5,
        **kwargs,
    )
    return engine, clock


def test_observe_returns_violation_verdict():
    engine, _ = _engine()
    assert engine.observe("place", 0.010) is False
    assert engine.observe("place", 0.200) is True  # 200ms > 50ms
    assert engine.observe("place", 0.010, ok=False) is True
    # Verbs without an objective are never scored.
    assert engine.observe("metrics", 99.0) is False


def test_burn_alert_fires_and_recovers():
    events = FakeEvents()
    obs = Observability()
    engine, clock = _engine(events=events, obs=obs)
    # 100% bad traffic for a stretch longer than the fast pair's long
    # window: burn = 1 / 0.01 = 100x >> 14.4.
    for _ in range(int(FAST_BURN.long_seconds / 10) + 10):
        engine.observe("place", 0.500)
        clock.now += 10.0
    engine.evaluate()
    doc = engine.status_doc()
    state = doc["objectives"]["place"]
    assert state["alert"] == "fast"
    assert state["burn"]["fast"] > FAST_BURN.factor
    assert doc["degraded"] is True
    assert engine.degraded is True
    burns = [e for e in events.records if e["kind"] == "slo.burn"]
    assert burns and burns[-1]["severity"] == "fast"
    assert obs.registry.get("slo.place.alerting").value == 2
    # Recovery: a long quiet stretch drains every window.
    for _ in range(700):
        engine.observe("place", 0.001)
        clock.now += 60.0
    engine.evaluate()
    assert engine.status_doc()["objectives"]["place"]["alert"] is None
    assert engine.degraded is False
    recovered = [e for e in events.records
                 if e["kind"] == "slo.recovered"]
    assert recovered and recovered[-1]["verb"] == "place"
    assert obs.registry.get("slo.place.alerting").value == 0


def test_no_alert_below_min_requests():
    engine, clock = _engine()
    engine.observe("place", 0.500)  # bad, but only one request
    clock.now += 2.0
    engine.evaluate()
    assert engine.status_doc()["objectives"]["place"]["alert"] is None


def test_status_doc_counts():
    engine, _ = _engine()
    engine.observe("place", 0.010)
    engine.observe("place", 0.500)
    state = engine.status_doc()["objectives"]["place"]
    assert state["good"] == 1 and state["bad"] == 1
    assert state["p99_ms"] == 50.0


# ------------------------------------------------------------ fleet merge
def test_merge_slo_docs_worst_alert_wins():
    base = {
        "p99_ms": 50.0, "availability": 0.999,
        "burn": {"fast": 0.0, "slow": 0.0}, "good": 10, "bad": 0,
    }
    docs = {
        "m0": {"enabled": True, "degraded": False,
               "objectives": {"place": dict(base, alert=None)}},
        "m1": {"enabled": True, "degraded": True,
               "objectives": {"place": dict(
                   base, alert="fast", burn={"fast": 30.0, "slow": 2.0},
                   good=5, bad=5,
               )}},
        "m2": {"enabled": False},
    }
    merged = merge_slo_docs(docs)
    assert merged["enabled"] is True
    assert merged["degraded"] is True
    place = merged["objectives"]["place"]
    assert place["alert"] == "fast"
    assert place["member"] == "m1"
    assert place["burn"]["fast"] == 30.0
    assert place["good"] == 15 and place["bad"] == 5
    assert merged["members"]["m2"] == {"enabled": False, "degraded": None}


def test_merge_slo_docs_all_disabled():
    assert merge_slo_docs({"m0": {"enabled": False}})["enabled"] is False

