"""``mctop top`` — a curses-free live dashboard for a running mctopd.

Polls the daemon's ``metrics`` verb and redraws a plain-text panel:
request rates and latency quantiles per verb, cache hit ratio,
in-flight depth, single-flight coalesces and tracer health.  No curses,
no third-party TUI — just ANSI clear-screen between frames (suppressed
with ``--no-clear``, e.g. when piping to a file), so it works in any
terminal the daemon's logs work in.

Rates are derived client-side: two consecutive ``metrics`` snapshots
and the wall time between them give per-verb req/s, the way ``top``
itself derives %CPU from two ``/proc`` reads.
"""

from __future__ import annotations

import time

#: ANSI: erase display, cursor home.
CLEAR = "\x1b[2J\x1b[H"

_REQ_PREFIX = "service.requests."
_LAT_PREFIX = "service.latency."


def _counter(registry: dict, name: str) -> float:
    snap = registry.get(name)
    return float(snap.get("value") or 0) if snap else 0.0


def _gauge(registry: dict, name: str):
    snap = registry.get(name)
    return snap.get("value") if snap else None


def _verbs(registry: dict) -> list[str]:
    return sorted(
        key[len(_REQ_PREFIX):]
        for key in registry
        if key.startswith(_REQ_PREFIX)
    )


def _ms(seconds) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1e3:.1f}"


def _rate(cur: float, prev_value: float | None, dt: float | None) -> str:
    if prev_value is None or dt is None or dt <= 0:
        return "-"
    return f"{max(0.0, cur - prev_value) / dt:.1f}"


def render_drift_lines(drift: dict) -> list[str]:
    """The dashboard's per-machine drift status lines.

    One line per watched machine — severity plus last-check age — from
    a ``drift`` verb document; empty when the watcher is disabled (or
    the daemon predates the verb), so the dashboard simply omits the
    section.
    """
    if not drift or not drift.get("enabled"):
        return []
    lines = [f"drift   worst {drift.get('worst_severity', 'ok')}"]
    for name, state in sorted(drift.get("machines", {}).items()):
        age = state.get("age_seconds")
        age_text = f"checked {age:.0f}s ago" if age is not None \
            else "not checked yet"
        lines.append(
            f"  {name:<12} {state.get('severity', 'unknown'):<9} "
            f"({age_text})"
        )
    return lines


def render_slo_lines(slo: dict) -> list[str]:
    """The dashboard's SLO burn-rate panel.

    One line per objective verb — target, fast/slow burn rates, alert
    state, good/bad counts — from an ``slo`` verb document (single
    daemon or fleet-merged, same shape); empty when the engine is
    disabled or the daemon predates the verb, so the section is simply
    omitted.
    """
    if not slo or not slo.get("enabled"):
        return []
    header = "slo     "
    header += "DEGRADED (fast burn)" if slo.get("degraded") else "ok"
    lines = [header]
    for verb, state in sorted((slo.get("objectives") or {}).items()):
        burn = state.get("burn") or {}
        alert = state.get("alert") or "-"
        member = f"  ({state['member']})" if state.get("member") and \
            state.get("alert") else ""
        lines.append(
            f"  {verb:<12} p99<{state.get('p99_ms', 0):g}ms"
            f"  burn fast {burn.get('fast', 0):.2f}"
            f" slow {burn.get('slow', 0):.2f}"
            f"  alert {alert:<5}"
            f"  good {state.get('good', 0)} bad {state.get('bad', 0)}"
            f"{member}"
        )
    return lines


def render_slowest_lines(registry: dict) -> list[str]:
    """The dashboard's slowest-requests list.

    The latency exemplars of every ``service.latency.*`` timer —
    request id + observed duration, slowest first — each id pasteable
    straight into ``mctop trace show``.  Empty on daemons that record
    no exemplars (older or ``--no-trace-store``), so the section
    disappears rather than breaking the dashboard.
    """
    slowest: list[tuple[float, str, str]] = []
    for key, snap in registry.items():
        if not key.startswith(_LAT_PREFIX):
            continue
        verb = key[len(_LAT_PREFIX):]
        for value, label in snap.get("exemplars") or []:
            slowest.append((float(value), verb, str(label)))
    if not slowest:
        return []
    slowest.sort(reverse=True)
    lines = ["slowest requests (mctop trace show <id>)"]
    for value, verb, label in slowest[:5]:
        lines.append(f"  {label:<18} {verb:<12} {value * 1e3:9.1f}ms")
    return lines


def render_profile_lines(profile: dict, top: int = 5) -> list[str]:
    """The dashboard's hot-functions panel.

    The ``top`` hottest *leaf* frames — where samples actually landed —
    with their share of all samples, from a ``profile`` verb document
    (single daemon or fleet-merged, same shape).  Empty when the
    profiler is disabled or the daemon predates the verb, so the
    section is simply omitted.
    """
    if not profile or not profile.get("enabled"):
        return []
    samples = int(profile.get("samples") or 0)
    header = f"profile {samples} samples"
    hz = profile.get("hz")
    if hz:
        header += f" @ {hz:g}Hz"
    dropped = int(profile.get("dropped") or 0)
    if dropped:
        header += f"  dropped {dropped}"
    overhead = profile.get("overhead_fraction")
    if overhead is not None:
        header += f"  overhead ~{overhead:.2%}"
    lines = [header]
    if not samples:
        return lines
    leaves: dict[str, int] = {}
    for entry in profile.get("stacks") or []:
        stack = entry.get("stack") or []
        if not stack:
            continue
        count = int(entry.get("count") or 0)
        leaves[stack[-1]] = leaves.get(stack[-1], 0) + count
    hottest = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, count in hottest[:max(1, top)]:
        lines.append(f"  {count / samples:>5.1%}  {name}")
    return lines


def render_fleet_lines(fleet: dict) -> list[str]:
    """The dashboard's fleet membership lines (``--fleet``).

    One line per member — status, drift severity, failure count — from
    a router's ``fleet`` verb document; empty when the target is not a
    router (or the section was not requested).
    """
    if not fleet or "members" not in fleet:
        return []
    lines = [
        f"fleet   {fleet.get('in_ring', 0)}/{fleet.get('total', 0)} "
        f"in ring  rebalances {fleet.get('rebalances', 0)}"
    ]
    for member_id, state in sorted(fleet.get("members", {}).items()):
        severity = state.get("drift_severity") or "-"
        failures = state.get("consecutive_failures", 0)
        extra = f"  failures {failures}" if failures else ""
        lines.append(
            f"  {member_id:<12} {state.get('status', 'unknown'):<9} "
            f"drift {severity:<9}{extra}"
        )
    return lines


def render_place_lines(registry: dict, prev_registry: dict | None,
                       dt: float | None) -> list[str]:
    """The dashboard's placement-index section.

    Index hit ratio, lookup rate, builds and the ``place_many``
    batch-size spread — from the ``service.place.*`` instruments;
    empty on a daemon that has served no placement traffic (or
    predates the index), so the section simply disappears.
    """
    hits = _counter(registry, "service.place.index_hits")
    misses = _counter(registry, "service.place.index_misses")
    builds = _counter(registry, "service.place.index_builds")
    if not (hits or misses or builds):
        return []
    ratio = f"{hits / (hits + misses):.0%}" if hits + misses else "-"
    prev_hits = (
        _counter(prev_registry, "service.place.index_hits")
        + _counter(prev_registry, "service.place.index_misses")
    ) if prev_registry is not None else None
    lines = [
        f"place   index hit ratio {ratio} "
        f"({int(hits)} hit / {int(misses)} miss)"
        f"  lookups/s {_rate(hits + misses, prev_hits, dt)}"
        f"  builds {int(builds)}"
    ]
    batch = registry.get("service.place.batch_size")
    if batch and batch.get("count"):
        lines.append(
            f"  batches {batch['count']}"
            f"  size p50 {batch.get('p50', 0):.0f}"
            f"  p99 {batch.get('p99', 0):.0f}"
            f"  max {batch.get('max', 0):.0f}"
        )
    return lines


def render_dashboard(
    doc: dict, prev: dict | None = None, dt: float | None = None,
    drift: dict | None = None, fleet: dict | None = None,
    slo: dict | None = None, profile: dict | None = None,
) -> str:
    """One dashboard frame from a ``metrics`` verb document.

    ``prev``/``dt`` (the previous document and the seconds since it)
    turn monotonic counters into rates; the first frame shows ``-``.
    ``drift`` optionally adds the drift watcher's status section (a
    ``drift`` verb document); ``fleet`` the router's membership section
    (a ``fleet`` verb document); ``slo`` the burn-rate panel (an
    ``slo`` verb document); ``profile`` the hot-functions panel (a
    ``profile`` verb document).  The slowest-requests list renders from the
    metrics document's latency exemplars with no extra polling.  Pure:
    two fixed documents always render the same text, which is what the
    tests pin.
    """
    registry = doc.get("registry", {})
    prev_registry = (prev or {}).get("registry", {})
    trace = doc.get("trace", {})
    cache = doc.get("cache", {})
    lines: list[str] = []

    total = sum(_counter(registry, _REQ_PREFIX + v) for v in _verbs(registry))
    prev_total = sum(
        _counter(prev_registry, _REQ_PREFIX + v)
        for v in _verbs(prev_registry)
    ) if prev is not None else None
    lines.append(
        f"mctopd  requests {int(total)}  "
        f"req/s {_rate(total, prev_total, dt)}  "
        f"in-flight {_gauge(registry, 'service.queue_depth') or 0}  "
        f"connections {_gauge(registry, 'service.connections.open') or 0}"
    )

    hits = (_counter(registry, "service.cache.hits.memory")
            + _counter(registry, "service.cache.hits.disk"))
    misses = _counter(registry, "service.cache.misses")
    ratio = f"{hits / (hits + misses):.0%}" if hits + misses else "-"
    lines.append(
        f"cache   hit ratio {ratio} ({int(hits)} hit / {int(misses)} miss)"
        f"  entries {cache.get('memory_entries', 0)}"
        f"  coalesced {int(_counter(registry, 'service.singleflight.coalesced'))}"
        f"  inferences {int(_counter(registry, 'service.inference.runs'))}"
    )
    lines.extend(render_place_lines(
        registry, prev_registry if prev is not None else None, dt
    ))
    lines.append(
        f"trace   spans {trace.get('finished_spans', 0)}"
        f"  instants {trace.get('instants', 0)}"
        f"  dropped_spans {trace.get('dropped_spans', 0)}"
    )

    lines.append("")
    lines.append(f"{'VERB':<12}{'REQS':>8}{'REQ/S':>8}"
                 f"{'P50MS':>9}{'P95MS':>9}{'P99MS':>9}")
    for verb in _verbs(registry):
        reqs = _counter(registry, _REQ_PREFIX + verb)
        prev_reqs = (
            _counter(prev_registry, _REQ_PREFIX + verb)
            if prev is not None else None
        )
        lat = registry.get(_LAT_PREFIX + verb, {})
        lines.append(
            f"{verb:<12}{int(reqs):>8}{_rate(reqs, prev_reqs, dt):>8}"
            f"{_ms(lat.get('p50')):>9}{_ms(lat.get('p95')):>9}"
            f"{_ms(lat.get('p99')):>9}"
        )

    inflight = doc.get("inflight_inferences") or []
    if inflight:
        lines.append("")
        lines.append(
            "inferring: " + ", ".join(key[:12] for key in inflight)
        )
    slowest_lines = render_slowest_lines(registry)
    if slowest_lines:
        lines.append("")
        lines.extend(slowest_lines)
    profile_lines = render_profile_lines(profile or {})
    if profile_lines:
        lines.append("")
        lines.extend(profile_lines)
    slo_lines = render_slo_lines(slo or {})
    if slo_lines:
        lines.append("")
        lines.extend(slo_lines)
    drift_lines = render_drift_lines(drift or {})
    if drift_lines:
        lines.append("")
        lines.extend(drift_lines)
    fleet_lines = render_fleet_lines(fleet or {})
    if fleet_lines:
        lines.append("")
        lines.extend(fleet_lines)
    return "\n".join(lines) + "\n"


def run_top(
    client,
    interval: float = 2.0,
    count: int | None = None,
    clear: bool = True,
    write=None,
    fleet: bool = False,
) -> int:
    """The poll-render loop behind ``mctop top``.

    ``count`` bounds the number of frames (``None`` = until ^C);
    ``write`` defaults to stdout and is injectable for tests.
    ``fleet=True`` additionally polls the router's ``fleet`` verb for
    the membership section (silently dropped against a plain daemon,
    which answers ``unknown_verb``).
    """
    if write is None:
        def write(text: str) -> None:
            print(text, end="", flush=True)

    from repro.errors import ServiceError

    prev: dict | None = None
    prev_t: float | None = None
    drift_supported = True
    slo_supported = True
    profile_supported = True
    fleet_supported = fleet
    frames = 0
    try:
        while count is None or frames < count:
            doc = client.metrics()
            drift: dict | None = None
            if drift_supported:
                try:
                    drift = client.drift()
                except (ServiceError, AttributeError):
                    # Older daemon (unknown_verb) or older client shim:
                    # drop the section rather than the dashboard.
                    drift_supported = False
            slo_doc: dict | None = None
            if slo_supported:
                try:
                    slo_doc = client.slo()
                except (ServiceError, AttributeError):
                    # Same fallback as drift: a daemon predating the
                    # verb (or started --no-slo behind an old router)
                    # loses the panel, never the dashboard.
                    slo_supported = False
            profile_doc: dict | None = None
            if profile_supported:
                try:
                    profile_doc = client.profile(limit=500)
                except (ServiceError, AttributeError):
                    # Daemons predating the verb lose the hot-functions
                    # panel, never the dashboard.
                    profile_supported = False
            fleet_doc: dict | None = None
            if fleet_supported:
                try:
                    fleet_doc = client.request("fleet")
                except ServiceError:
                    fleet_supported = False
            now = time.monotonic()
            dt = now - prev_t if prev_t is not None else None
            frame = render_dashboard(doc, prev, dt, drift=drift,
                                     fleet=fleet_doc, slo=slo_doc,
                                     profile=profile_doc)
            write((CLEAR if clear else "") + frame)
            prev, prev_t = doc, now
            frames += 1
            if count is not None and frames >= count:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
