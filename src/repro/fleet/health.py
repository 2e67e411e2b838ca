"""Fleet membership and health: join, degrade, eject, rejoin.

The manager polls every member on an interval and keeps the
consistent-hash ring in sync with what it learns.  A member's health is
two signals, the same two ``/healthz`` serves over HTTP:

* **liveness** — does the member answer ``ping`` at all?  A member that
  misses ``fail_threshold`` consecutive probes (or forwarding attempts,
  which the router reports in between polls) is ejected from the ring.
* **drift severity** — the member's ``drift`` verb, i.e. the same
  worst-severity signal that flips its ``/healthz`` to ``503
  degraded``.  ``critical`` ejects the member (its cached topologies no
  longer describe its machines, so it must not serve them); ``warn``
  marks it degraded but keeps it serving.

Every transition is edge-triggered exactly once: *not seen* → *joined*
emits ``fleet.member_join``, *in ring* → *ejected* emits
``fleet.member_eject``, an ejected member that recovers emits
``fleet.member_join`` again (``rejoin: true``), and every ring rebuild
emits one ``fleet.rebalance`` carrying the old and new member sets.
The ring itself is a pure function of the in-ring member-id set
(:class:`~repro.fleet.ring.HashRing`), so the remap on every rebuild is
deterministic — two routers watching the same fleet agree on every
assignment.
"""

from __future__ import annotations

import asyncio
import time

from repro.errors import ServiceError
from repro.fleet.members import MemberSpec, MemberState, one_shot_request
from repro.fleet.ring import HashRing
from repro.obs import Observability
from repro.obs.diff import severity_rank
from repro.obs.events import EventLog

#: Health-status rank for the per-member gauge (mirrors severity_rank's
#: shape: bigger is worse).
STATUS_RANK = {"healthy": 0, "degraded": 1, "ejected": 2}


async def probe_member(spec: MemberSpec, timeout: float = 5.0) -> dict:
    """The default health probe: ``ping`` for liveness, ``drift`` for
    severity.  Returns ``{"alive": bool, "severity": str|None,
    "error": str|None}``; never raises."""
    try:
        pong = await one_shot_request(spec, "ping", {}, timeout)
    except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
        return {"alive": False, "severity": None,
                "error": f"{type(exc).__name__}: {exc}"}
    if not pong.get("ok"):
        error = (pong.get("error") or {}).get("message", "ping failed")
        return {"alive": False, "severity": None, "error": error}
    try:
        drift = await one_shot_request(spec, "drift", {}, timeout)
    except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
        # Alive but the drift round-trip died mid-flight: treat the
        # severity as unknown rather than flapping the member out.
        return {"alive": True, "severity": None,
                "error": f"{type(exc).__name__}: {exc}"}
    severity = "ok"
    if drift.get("ok"):
        result = drift.get("result", {})
        if result.get("enabled"):
            severity = result.get("worst_severity", "ok")
    return {"alive": True, "severity": severity, "error": None}


class HealthManager:
    """Membership + ring lifecycle for one fleet.

    ``probe`` is injectable (an async ``spec -> dict`` in
    :func:`probe_member`'s shape), so transition logic is testable
    without sockets.  The router reads :attr:`ring` for routing and
    calls :meth:`note_forward_failure` when a forward fails, so a dead
    member is ejected by the data path without waiting a full poll
    interval.
    """

    def __init__(
        self,
        specs: "list[MemberSpec]",
        obs: Observability | None = None,
        events: EventLog | None = None,
        interval: float = 5.0,
        probe_timeout: float = 5.0,
        fail_threshold: int = 2,
        probe=probe_member,
    ):
        if not specs:
            raise ServiceError("a fleet needs at least one member",
                               code="invalid_params")
        if fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")
        self.obs = obs or Observability()
        self.events = events
        self.interval = float(interval)
        self.probe_timeout = float(probe_timeout)
        self.fail_threshold = fail_threshold
        self._probe = probe
        self.states: dict[str, MemberState] = {
            spec.id: MemberState(spec) for spec in specs
        }
        if len(self.states) != len(specs):
            raise ServiceError("duplicate member ids in fleet",
                               code="invalid_params")
        #: The routing ring over in-ring members; empty until the first
        #: member joins.
        self.ring = HashRing([])
        self.rebalances = 0
        self._task: asyncio.Task | None = None

    # ---------------------------------------------------------- lifecycle
    def start(self) -> None:
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
            await self.check_once()
            await asyncio.sleep(self.interval)

    # ------------------------------------------------------------- checks
    async def check_once(self) -> None:
        """One concurrent health sweep over every member."""
        ids = list(self.states)
        results = await asyncio.gather(
            *(self._probe(self.states[i].spec, self.probe_timeout)
              for i in ids),
            return_exceptions=True,
        )
        for member_id, outcome in zip(ids, results):
            if isinstance(outcome, BaseException):
                outcome = {"alive": False, "severity": None,
                           "error": f"{type(outcome).__name__}: {outcome}"}
            self.apply_probe(member_id, outcome)
        self.obs.counter("fleet.health.sweeps").inc()

    def apply_probe(self, member_id: str, outcome: dict) -> None:
        """Fold one probe result into the member's state machine."""
        state = self.states[member_id]
        state.checks += 1
        state.last_check_ts = time.time()
        state.last_error = outcome.get("error")
        alive = bool(outcome.get("alive"))
        severity = outcome.get("severity")
        if severity not in ("ok", "warn", "critical"):
            severity = None
        if severity is not None:
            state.drift_severity = severity

        if not alive:
            state.consecutive_failures += 1
            if state.in_ring and \
                    state.consecutive_failures >= self.fail_threshold:
                self._eject(state, reason="unreachable")
            return

        state.consecutive_failures = 0
        if severity is not None and severity_rank(severity) >= \
                severity_rank("critical"):
            # 503-critical: the member is up but its cached topologies
            # no longer match its machines.
            if state.in_ring:
                self._eject(state, reason="drift_critical")
            return

        new_status = "degraded" if severity == "warn" else "healthy"
        if not state.joined:
            self._join(state, new_status, rejoin=False)
        elif state.status == "ejected":
            self._join(state, new_status, rejoin=True)
        elif state.status != new_status:
            state.status = new_status
            self._publish_status(state)

    def note_forward_failure(self, member_id: str, error: str) -> None:
        """The data path saw a forward to this member fail."""
        state = self.states.get(member_id)
        if state is None:
            return
        state.consecutive_failures += 1
        state.last_error = error
        self.obs.counter("fleet.forward.failures").inc()
        if state.in_ring and \
                state.consecutive_failures >= self.fail_threshold:
            self._eject(state, reason="forward_failure")

    # -------------------------------------------------------- transitions
    def _join(self, state: MemberState, status: str, rejoin: bool) -> None:
        state.joined = True
        state.status = status
        self.obs.counter("fleet.members.joins").inc()
        self._emit("fleet.member_join", member=state.spec.id,
                   endpoint=state.spec.endpoint, status=status,
                   rejoin=rejoin)
        self._publish_status(state)
        self._rebuild_ring(reason="rejoin" if rejoin else "join",
                           member=state.spec.id)

    def _eject(self, state: MemberState, reason: str) -> None:
        state.status = "ejected"
        self.obs.counter("fleet.members.ejects").inc()
        self._emit("fleet.member_eject", member=state.spec.id,
                   endpoint=state.spec.endpoint, reason=reason,
                   error=state.last_error)
        self._publish_status(state)
        self._rebuild_ring(reason=f"eject:{reason}", member=state.spec.id)

    def _rebuild_ring(self, reason: str, member: str) -> None:
        old = self.ring
        new_members = [s.spec.id for s in self.states.values() if s.in_ring]
        self.ring = old.with_members(new_members)
        self.rebalances += 1
        self.obs.counter("fleet.rebalances").inc()
        self.obs.gauge("fleet.members.in_ring").set(len(self.ring))
        self._emit("fleet.rebalance", reason=reason, member=member,
                   previous_members=list(old.members),
                   members=list(self.ring.members))

    def _publish_status(self, state: MemberState) -> None:
        self.obs.gauge(f"fleet.member.status.{state.spec.id}").set(
            STATUS_RANK.get(state.status, -1)
        )

    def _emit(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    # -------------------------------------------------------------- views
    def live_members(self) -> list[MemberState]:
        """In-ring members, ring order (sorted ids — deterministic)."""
        return [self.states[m] for m in self.ring.members]

    @property
    def degraded(self) -> bool:
        """True while no member is routable (the fleet-level 503)."""
        return len(self.ring) == 0

    def status_doc(self) -> dict:
        return {
            "members": {
                member_id: state.describe()
                for member_id, state in sorted(self.states.items())
            },
            "ring": self.ring.describe(),
            "in_ring": len(self.ring),
            "total": len(self.states),
            "rebalances": self.rebalances,
            "interval": self.interval,
            "fail_threshold": self.fail_threshold,
        }
