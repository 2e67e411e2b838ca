"""The fleet router: one NDJSON front-end over many ``mctopd``.

Clients speak to the router exactly as they would to a single daemon —
same protocol, same verbs, same error codes — and the router shards the
work across the fleet by *content address*: every topology verb's
params resolve to the same SHA-256 inference digest the members' caches
are keyed by (:func:`repro.service.cache.inference_key`), and the
digest's owner on the consistent-hash ring serves the request.  Two
clients asking for the same uncached topology therefore always land on
the same member, whose local single-flight runs MCTOP-ALG exactly once
— single-flight holds fleet-wide without any cross-member locking.

Routing rules:

* ``infer``/``show``/``place``/``place_many``/``pool_switch``/
  ``validate`` — hashed by inference digest onto the ring; failover
  walks the digest's
  preference list on *transport* errors only (a member's application
  error is the answer, not a reason to ask someone else).
* ``metrics``/``drift``/``slo`` — fan out to every in-ring member and
  merge (:mod:`repro.obs.merge`): counters summed, histograms merged,
  per-machine drift worst-severity, per-verb worst SLO alert.  The
  merged document keeps the single-daemon shape, so ``mctop top``
  renders a fleet unchanged.
* ``trace`` — answered by assembly: the router's own retained record
  plus a ``trace`` fan-out to the members, stitched into one timeline
  (:func:`repro.obs.trace_store.assemble_fleet_timeline`).
* ``ping``/``fleet`` — answered by the router itself; ``fleet`` is the
  membership/ring/health status document.
* anything else — round-robined to a live member (the member answers
  ``unknown_verb`` itself, so new member verbs work through an old
  router), without per-verb instruments.

Each forwarded frame is stamped with the router's ``request_id`` as
``parent_request_id``; the member tags its root span with it and echoes
it back, so one fleet request reads as one stitched trace.  The
router's access log carries ``member`` and ``upstream_ms`` per line.

The router runs on the same server core as ``mctopd``
(:mod:`repro.service.server`), so it frames, admits, drains and
completes requests exactly as a daemon does.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.errors import ServiceError
from repro.fleet.health import HealthManager, probe_member
from repro.fleet.members import MemberConnection, parse_members, one_shot_request
from repro.obs import Observability
from repro.obs.merge import (
    merge_cache_stats,
    merge_drift_docs,
    merge_profile_docs,
    merge_registry_snapshots,
    merge_slo_docs,
    merge_trace_summaries,
)
from repro.obs.trace_store import assemble_fleet_timeline
from repro.service.handlers import (
    TopologyParamsMemo,
    parse_profile_params,
    parse_trace_params,
)
from repro.service.protocol import PROTOCOL_VERSION, VERBS, Request
from repro.service.server import NdjsonServer, RequestRecord, ServerConfig

#: Verbs routed by inference digest (all resolve machine/seed/table).
#: ``place_many`` shares ``place``'s params shape at the top level, so
#: a whole batch lands on the digest's owner — one member, one index.
DIGEST_VERBS = ("infer", "show", "place", "place_many", "pool_switch",
                "validate")

#: Verbs that fan out to every member and merge.
AGGREGATE_VERBS = ("metrics", "drift", "slo", "profile")

#: Transport failures that trigger failover to the next ring candidate.
#: (``TimeoutError``, what an expired ``asyncio.timeout`` raises, is an
#: ``OSError`` subclass; it is listed for clarity.)
TRANSPORT_ERRORS = (OSError, TimeoutError, ConnectionError)


@dataclass(frozen=True)
class RouterConfig(ServerConfig):
    """Everything the fleet router needs to run: the shared server
    fields, then the router's own."""

    #: Per-member round-trip budget for a forwarded request.  Must
    #: exceed the members' own ``request_timeout`` or slow inferences
    #: fail over and run twice.
    request_timeout: float = 120.0
    #: Member endpoints (``[ID=]unix:PATH`` / ``[ID=]tcp:HOST:PORT``).
    members: tuple[str, ...] = ()
    health_interval: float = 5.0
    probe_timeout: float = 5.0
    fail_threshold: int = 2


class FleetRouter(NdjsonServer):
    """The server object: ``await start()``, then ``await wait_closed()``."""

    prefix = "fleet"
    lifecycle = "fleet.router"
    name = "the fleet router"

    def __init__(self, config: RouterConfig,
                 obs: Observability | None = None):
        # The member list is refused, if at all, before the server core
        # opens its logs, so a refused fleet leaves no file behind.
        self.health = HealthManager(
            parse_members(list(config.members)),
            obs=obs,
            interval=config.health_interval,
            probe_timeout=config.probe_timeout,
            fail_threshold=config.fail_threshold,
            probe=probe_member,
        )
        super().__init__(config, self.health.obs, member_id="router")
        self.health.events = self.event_log
        self._rr = 0
        self._params = TopologyParamsMemo()
        # Only protocol verbs and ``fleet`` get per-verb instruments:
        # any other verb is forwarded without them (its member answers
        # it), so arbitrary verb strings cannot grow the registry.
        self.routes = dict.fromkeys(VERBS, self._route)
        self.routes.update(dict.fromkeys(AGGREGATE_VERBS, self._aggregate),
                           ping=self._ping, fleet=self._fleet,
                           trace=self._assemble_trace)
        self.fallback = self._route

    # ------------------------------------------------------------ lifecycle
    async def _start_components(self) -> dict:
        """One synchronous health sweep runs first, so the ring is
        populated (members joined) before the first client request."""
        await self.health.check_once()
        self.health.start()
        return {"members": len(self.health.states),
                "in_ring": len(self.health.ring)}

    async def _stop_components(self) -> None:
        await self.health.stop()

    def _open_connection(self) -> dict:
        # One upstream connection per (client connection, member), so a
        # client's ``pool_switch`` session lives on the member exactly
        # as long as the client holds its connection to the router.
        return {}

    def _close_connection(self, pool: dict) -> None:
        for conn in pool.values():
            conn.close_nowait()

    # ------------------------------------------------------------ local verbs
    async def _ping(self, request: Request, pool: dict,
                    rec: RequestRecord) -> dict:
        return self._ok(request, {
            "pong": True,
            "protocol": PROTOCOL_VERSION,
            "role": "router",
            "in_ring": len(self.health.ring),
        }, rec)

    async def _fleet(self, request: Request, pool: dict,
                     rec: RequestRecord) -> dict:
        doc = self.health.status_doc()
        doc["protocol"] = PROTOCOL_VERSION
        doc["role"] = "router"
        return self._ok(request, doc, rec)

    # ------------------------------------------------------------ routing
    def _candidates(self, verb: str, params: dict) -> list[str]:
        """The member ids to try for one request, best first."""
        ring = self.health.ring
        if len(ring) == 0:
            raise ServiceError("no fleet member is routable",
                               code="unavailable")
        if verb in DIGEST_VERBS:
            # Catalog validation stays on the member (the router has no
            # business rejecting machines a member might know); the
            # digest only needs the *same* canonicalization.
            key = self._params.resolve(
                params, self.config.default_repetitions
            )[3]
            return ring.preference(key)
        # Stateless / unknown verbs: spread them round-robin, then walk
        # the ring order for failover.
        members = list(ring.members)
        self._rr += 1
        offset = self._rr % len(members)
        return members[offset:] + members[:offset]

    async def _route(self, request: Request, pool: dict,
                     rec: RequestRecord) -> dict:
        verb, rid = request.verb, rec.request_id
        candidates = self._candidates(verb, request.params)
        last_error = "no candidate tried"
        for member_id in candidates:
            state = self.health.states[member_id]
            conn = pool.get(member_id)
            if conn is None:
                conn = pool[member_id] = MemberConnection(state.spec)
            started = time.perf_counter()
            try:
                # The forward span is the fleet-assembly alignment
                # anchor: member clocks are unrelated, so the member's
                # root span is pinned to where this forward started.
                with self.obs.span("fleet.forward", member=member_id,
                                   request_id=rid):
                    doc = await conn.request(
                        verb, request.params, self.config.request_timeout,
                        parent_request_id=rid,
                    )
            except TRANSPORT_ERRORS as exc:
                await conn.close()
                pool.pop(member_id, None)
                last_error = f"{member_id}: {type(exc).__name__}: {exc}"
                self.health.note_forward_failure(member_id, last_error)
                self.obs.counter("fleet.forward.failovers").inc()
                continue
            upstream_ms = (time.perf_counter() - started) * 1e3
            self.obs.counter(f"fleet.forward.to.{member_id}").inc()
            return self._stitch(doc, request, rec, member_id, upstream_ms)
        raise ServiceError(
            f"every candidate member failed (last: {last_error})",
            code="unavailable",
        )

    def _stitch(self, doc: dict, request: Request, rec: RequestRecord,
                member_id: str, upstream_ms: float) -> dict:
        """The member's answer under the router's request id."""
        response = {"id": request.id, "ok": bool(doc.get("ok"))}
        if "result" in doc:
            response["result"] = doc["result"]
        if "error" in doc:
            response["error"] = doc["error"]
        response["request_id"] = rec.request_id
        response["upstream"] = {
            "member": member_id,
            "request_id": doc.get("request_id"),
            "ms": round(upstream_ms, 3),
        }
        rec.member = member_id
        rec.upstream_ms = upstream_ms
        if not response["ok"]:
            code = (doc.get("error") or {}).get("code", "internal")
            rec.outcome = code
            self.obs.counter(f"fleet.upstream_errors.{code}").inc()
        else:
            rec.note_cache(doc.get("result"))
        return response

    # -------------------------------------------------------- aggregation
    async def _fan_out(self, verb: str, params: dict, rid: str) -> dict:
        """``{member_id: result}`` from every in-ring member that
        answered ``ok``; transport failures are reported to the health
        manager and skipped."""
        members = self.health.live_members()
        if not members:
            raise ServiceError("no fleet member is routable",
                               code="unavailable")
        outcomes = await asyncio.gather(
            *(one_shot_request(s.spec, verb, params,
                               self.config.probe_timeout,
                               parent_request_id=rid)
              for s in members),
            return_exceptions=True,
        )
        docs: dict[str, dict] = {}
        for state, outcome in zip(members, outcomes):
            if isinstance(outcome, BaseException):
                self.health.note_forward_failure(
                    state.spec.id,
                    f"{type(outcome).__name__}: {outcome}",
                )
                continue
            if not outcome.get("ok"):
                self.obs.counter("fleet.aggregate.member_errors").inc()
                continue
            docs[state.spec.id] = outcome.get("result", {})
        if not docs:
            raise ServiceError(
                f"no fleet member answered {verb}", code="unavailable"
            )
        return docs

    async def _aggregate(self, request: Request, pool: dict,
                         rec: RequestRecord) -> dict:
        merged = await self._merged(request.verb, request.params,
                                    rec.request_id)
        return self._ok(request, merged, rec)

    async def _merged(self, verb: str, params: dict, rid: str) -> dict:
        if verb == "metrics":
            fmt = params.get("format", "json")
            if fmt != "json":
                raise ServiceError(
                    "fleet metrics supports only the JSON format "
                    "(scrape the members' /metrics individually for "
                    "Prometheus text)", code="invalid_params",
                )
            docs = await self._fan_out("metrics", {}, rid)
            values = list(docs.values())
            return {
                "protocol": PROTOCOL_VERSION,
                "registry": merge_registry_snapshots(
                    [d.get("registry", {}) for d in values]
                ),
                "trace": merge_trace_summaries(
                    [d.get("trace", {}) for d in values]
                ),
                "cache": merge_cache_stats(
                    [d.get("cache", {}) for d in values]
                ),
                "inflight_inferences": sorted({
                    key for d in values
                    for key in d.get("inflight_inferences", [])
                }),
                "fleet": {
                    "responding": sorted(docs),
                    "in_ring": len(self.health.ring),
                    "total": len(self.health.states),
                },
            }
        if verb == "slo":
            docs = await self._fan_out("slo", {}, rid)
            merged = merge_slo_docs(docs)
            merged["protocol"] = PROTOCOL_VERSION
            return merged
        if verb == "profile":
            # Validate up front: a bad filter should come back as
            # invalid_params, not as every member refusing (which the
            # fan-out would report as the fleet being unavailable).
            parse_profile_params(params)
            fan_params = {}
            for key in ("action", "verb", "request_id", "limit"):
                if params.get(key) is not None:
                    fan_params[key] = params[key]
            docs = await self._fan_out("profile", fan_params, rid)
            merged = merge_profile_docs(docs)
            merged["protocol"] = PROTOCOL_VERSION
            return merged
        assert verb == "drift", verb
        fan_params = {}
        machine = params.get("machine")
        if machine is not None:
            fan_params["machine"] = machine
        docs = await self._fan_out("drift", fan_params, rid)
        merged = merge_drift_docs(docs)
        merged["protocol"] = PROTOCOL_VERSION
        return merged

    # ---------------------------------------------------- trace assembly
    async def _assemble_trace(self, request: Request, pool: dict,
                              rec: RequestRecord) -> dict:
        """One stitched fleet timeline for a request id.

        The router's own retained record (found via the id directly)
        supplies the top-level spans; a ``trace`` fan-out to every
        in-ring member collects the member-side records (each member
        resolves the router's id through its ``parent_request_id``
        alias index).  Members that are out of the ring, fail transport
        or answer ``unknown_verb`` are reported in ``missing_members``
        — an assembled trace must say what it could *not* see.
        """
        request_id = parse_trace_params(request.params)
        router_record = None
        if self.trace_store is not None:
            router_record = self.trace_store.get(request_id)
        members = self.health.live_members()
        outcomes = await asyncio.gather(
            *(one_shot_request(s.spec, "trace",
                               {"request_id": request_id},
                               self.config.probe_timeout,
                               parent_request_id=rec.request_id)
              for s in members),
            return_exceptions=True,
        )
        member_docs: dict[str, dict] = {}
        missing = sorted(
            state.spec.id for state in self.health.states.values()
            if not state.in_ring
        )
        for state, outcome in zip(members, outcomes):
            member_id = state.spec.id
            if isinstance(outcome, BaseException):
                self.health.note_forward_failure(
                    member_id, f"{type(outcome).__name__}: {outcome}"
                )
                missing.append(member_id)
                continue
            if not outcome.get("ok"):
                # An older member without the verb (unknown_verb) or a
                # member-side error: reported, never fatal.
                code = (outcome.get("error") or {}).get("code", "internal")
                member_docs[member_id] = {"found": False, "error": code}
                continue
            member_docs[member_id] = outcome.get("result", {})
        member_records = {
            member_id: doc.get("record")
            for member_id, doc in member_docs.items()
            if doc.get("found") and doc.get("record")
        }
        found = router_record is not None or bool(member_records)
        doc = {
            "protocol": PROTOCOL_VERSION,
            "enabled": self.trace_store is not None,
            "role": "router",
            "found": found,
            "request_id": request_id,
            "router": router_record,
            "members": member_docs,
            "missing_members": sorted(missing),
            "timeline": assemble_fleet_timeline(router_record,
                                                member_records),
        }
        if not found and self.trace_store is not None:
            doc["store"] = self.trace_store.status_doc()
        return self._ok(request, doc, rec)

