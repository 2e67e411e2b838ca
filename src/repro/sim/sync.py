"""Synchronization primitives for the simulation engine."""

from __future__ import annotations

from repro.errors import SimulationError


class Barrier:
    """A reusable barrier for a fixed set of participants.

    Crossing the barrier costs the coherence round-trip of the farthest
    participant pair — a topology-aware sense-reversing barrier would
    pay exactly that, which makes barrier cost placement-sensitive like
    everything else in the engine.

    ``comm_latency`` is symmetric, so that cost depends only on the
    multiset of waiting contexts: it is worked out once per machine and
    sorted tuple of contexts, not again on every crossing.
    """

    def __init__(self, parties: int, crossing_cost: float | None = None):
        if parties < 1:
            raise SimulationError("a barrier needs at least one party")
        self.parties = parties
        self.crossing_cost = crossing_cost
        self._waiting: list = []
        self._costs: dict[tuple, float] = {}
        self.crossings = 0

    def _arrive(self, engine, thread) -> None:
        self._waiting.append(thread)
        if len(self._waiting) < self.parties:
            engine.block(thread)
            return
        cost = self.crossing_cost
        if cost is None:
            cost = self._pair_max(engine.machine)
        waiters, self._waiting = self._waiting, []
        self.crossings += 1
        for t in waiters:
            engine.wake(t, engine.now + cost)

    def _pair_max(self, machine) -> float:
        """The largest pair latency among the waiting contexts."""
        ctxs = tuple(sorted(t.ctx for t in self._waiting))
        key = (machine, ctxs)
        cost = self._costs.get(key)
        if cost is None:
            cost = 0.0
            if len(ctxs) > 1:
                latency = machine.comm_latency
                cost = float(
                    max(
                        latency(a, b)
                        for i, a in enumerate(ctxs)
                        for b in ctxs[i + 1:]
                    )
                )
            self._costs[key] = cost
        return cost


class Flag:
    """A one-shot signal: waiters block until someone sets it."""

    def __init__(self) -> None:
        self.is_set = False
        self._waiting: list = []
        self._set_time: float | None = None

    def _arrive(self, engine, thread) -> None:
        # Used via BarrierWait duck-typing: Flag can be waited on too.
        if self.is_set:
            engine.wake(thread, engine.now)
        else:
            self._waiting.append(thread)
            engine.block(thread)

    def set(self, engine) -> None:
        """Wake every waiter, paying the signal's coherence latency."""
        self.is_set = True
        self._set_time = engine.now
        waiters, self._waiting = self._waiting, []
        for t in waiters:
            engine.wake(t, engine.now)
