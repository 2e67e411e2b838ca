"""Merging observability documents across fleet members.

The fleet router's ``metrics`` and ``drift`` verbs fan out to every
live member and answer with *one* document in the same shape a single
daemon produces, so every existing consumer — ``mctop top`` and the
Prometheus renderer — works unchanged against a fleet.

Merge semantics per instrument kind:

* **counter** — summed.  ``service.inference.runs`` across the fleet is
  the fleet-wide MCTOP-ALG run count, which is exactly what the
  single-flight acceptance check reads.
* **gauge** — summed by default (queue depths, open connections and
  cache entries add up); gauges whose name carries a rank or timestamp
  semantic (``.severity.`` in the name, or a ``_ts`` / ``.last_check_ts``
  suffix) take the **max**, because "worst" and "most recent" are the
  meaningful fleet aggregates.
* **histogram / timer** — count/total summed, min of mins, max of
  maxes; the standard deviation is recombined exactly through the sum
  of squares (recovered from each member's count/mean/stdev); bucket
  counts are summed per bound; the p50/p95/p99 estimates take the max
  across members — a deliberately conservative fleet quantile (no
  member's tail is hidden by another's fast traffic).

Drift documents merge per machine: when two members watch the same
machine, the worst severity wins and the report notes which member it
came from.
"""

from __future__ import annotations

import math

from repro.obs.diff import severity_rank

#: Gauge-name fragments that switch the merge rule from sum to max.
#: Burn rates and alert levels are rank semantics: the fleet is burning
#: as fast as its worst member, not the sum of everyone's rates.
_MAX_GAUGE_MARKERS = (".severity.", ".burn_rate.")
_MAX_GAUGE_SUFFIXES = ("_ts", ".last_check_ts", ".alerting")

#: SLO alert severities in increasing order for merge ranking.
_ALERT_RANK = {None: 0, "slow": 1, "fast": 2}


def _rank(severity: object) -> int:
    """severity_rank that tolerates ``"unknown"``/missing values (-1)."""
    try:
        return severity_rank(severity)
    except (ValueError, TypeError):
        return -1


def _gauge_takes_max(name: str) -> bool:
    return any(m in name for m in _MAX_GAUGE_MARKERS) or \
        any(name.endswith(s) for s in _MAX_GAUGE_SUFFIXES)


def _merge_gauge(name: str, snaps: "list[dict]") -> dict:
    values = [s.get("value") for s in snaps if s.get("value") is not None]
    if not values:
        return {"kind": "gauge", "value": None}
    value = max(values) if _gauge_takes_max(name) else sum(values)
    return {"kind": "gauge", "value": value}


def _merge_counter(snaps: "list[dict]") -> dict:
    return {"kind": "counter",
            "value": sum(s.get("value") or 0 for s in snaps)}


def _sumsq(snap: dict) -> float:
    """Recover a member's sum of squares from count/mean/stdev."""
    count = snap.get("count") or 0
    mean = snap.get("mean") or 0.0
    stdev = snap.get("stdev") or 0.0
    return count * (stdev * stdev + mean * mean)


def _merge_histogram(kind: str, snaps: "list[dict]") -> dict:
    snaps = [s for s in snaps if s.get("count")]
    if not snaps:
        return {"kind": kind, "count": 0, "total": 0.0, "min": None,
                "max": None, "mean": 0.0, "stdev": 0.0,
                "p50": None, "p95": None, "p99": None, "buckets": []}
    count = sum(s["count"] for s in snaps)
    total = sum(s.get("total") or 0.0 for s in snaps)
    sumsq = sum(_sumsq(s) for s in snaps)
    mean = total / count if count else 0.0
    var = sumsq / count - mean * mean if count else 0.0
    merged: dict = {
        "kind": kind,
        "count": count,
        "total": total,
        "min": min(s["min"] for s in snaps if s.get("min") is not None),
        "max": max(s["max"] for s in snaps if s.get("max") is not None),
        "mean": mean,
        "stdev": math.sqrt(max(var, 0.0)),
    }
    for q in ("p50", "p95", "p99"):
        values = [s.get(q) for s in snaps if s.get(q) is not None]
        merged[q] = max(values) if values else None
    buckets: dict[object, int] = {}
    order: list[object] = []
    for snap in snaps:
        for le, n in snap.get("buckets") or []:
            if le not in buckets:
                buckets[le] = 0
                order.append(le)
            buckets[le] += n
    merged["buckets"] = [[le, buckets[le]] for le in order]
    exemplars: list[list] = []
    for snap in snaps:
        exemplars.extend(snap.get("exemplars") or [])
    if exemplars:
        # Fleet-wide slowest requests: union, largest first, same slot
        # budget a single member keeps.
        exemplars.sort(key=lambda e: e[0], reverse=True)
        merged["exemplars"] = [list(e) for e in exemplars[:5]]
    return merged


def merge_registry_snapshots(snapshots: "list[dict]") -> dict:
    """Merge :meth:`~repro.obs.registry.Registry.snapshot` documents.

    Instruments missing from some members merge over the members that
    have them; a name registered with different kinds on different
    members keeps the majority kind and skips the others (defensive —
    it cannot happen inside one fleet version).
    """
    names: list[str] = []
    seen: set[str] = set()
    for snapshot in snapshots:
        for name in snapshot:
            if name not in seen:
                seen.add(name)
                names.append(name)
    merged: dict[str, dict] = {}
    for name in sorted(names):
        snaps = [s[name] for s in snapshots if name in s]
        kinds = [s.get("kind") for s in snaps]
        kind = max(set(kinds), key=kinds.count)
        snaps = [s for s in snaps if s.get("kind") == kind]
        if kind == "counter":
            merged[name] = _merge_counter(snaps)
        elif kind == "gauge":
            merged[name] = _merge_gauge(name, snaps)
        elif kind in ("histogram", "timer"):
            merged[name] = _merge_histogram(kind, snaps)
        else:  # unknown future kind: keep the first member's view
            merged[name] = snaps[0]
    return merged


def merge_trace_summaries(summaries: "list[dict]") -> dict:
    """Sum the tracer health counts across members."""
    keys = ("finished_spans", "instants", "dropped", "dropped_spans")
    return {k: sum(int(s.get(k) or 0) for s in summaries) for k in keys}


def merge_cache_stats(stats: "list[dict]") -> dict:
    """Sum the numeric cache stats; ``store_dir`` becomes the list of
    distinct member stores (or ``None`` when no member has one)."""
    merged: dict = {}
    for key in ("memory_entries", "max_memory_entries", "hits_memory",
                "hits_disk", "misses", "evictions"):
        merged[key] = sum(int(s.get(key) or 0) for s in stats)
    dirs = sorted({s["store_dir"] for s in stats if s.get("store_dir")})
    merged["store_dir"] = dirs or None
    return merged


def merge_drift_docs(docs: "dict[str, dict]") -> dict:
    """Merge per-member ``drift`` verb documents (``{member: doc}``).

    Per machine the *worst* severity wins and the merged state records
    the member it came from; ``worst_severity``/``degraded`` cover the
    whole fleet.  Members running without a watcher contribute nothing
    but are listed, so a dashboard can tell "no watcher" from "ok".
    """
    machines: dict[str, dict] = {}
    members: dict[str, dict] = {}
    enabled = False
    for member_id, doc in sorted(docs.items()):
        member_enabled = bool(doc.get("enabled"))
        members[member_id] = {
            "enabled": member_enabled,
            "worst_severity": doc.get("worst_severity") if member_enabled
            else None,
        }
        if not member_enabled:
            continue
        enabled = True
        for name, state in (doc.get("machines") or {}).items():
            state = dict(state)
            state["member"] = member_id
            current = machines.get(name)
            if current is None or _rank(state.get("severity", "ok")) > \
                    _rank(current.get("severity", "ok")):
                machines[name] = state
    worst = "ok"
    for state in machines.values():
        severity = state.get("severity", "ok")
        if _rank(severity) > _rank(worst):
            worst = severity
    return {
        "enabled": enabled,
        "worst_severity": worst,
        "degraded": worst == "critical",
        "machines": machines,
        "members": members,
    }


def merge_slo_docs(docs: "dict[str, dict]") -> dict:
    """Merge per-member ``slo`` verb documents (``{member: doc}``).

    Per verb the *worst* alert wins (fast > slow > none) and the merged
    objective records the member it came from; burn rates take the max
    member-wise (the fleet burns as fast as its worst member); good/bad
    counts sum.  Members answering ``enabled: false`` are listed but
    contribute nothing, same contract as :func:`merge_drift_docs`.
    """
    objectives: dict[str, dict] = {}
    members: dict[str, dict] = {}
    enabled = False
    for member_id, doc in sorted(docs.items()):
        member_enabled = bool(doc.get("enabled"))
        members[member_id] = {
            "enabled": member_enabled,
            "degraded": bool(doc.get("degraded")) if member_enabled
            else None,
        }
        if not member_enabled:
            continue
        enabled = True
        for verb, state in (doc.get("objectives") or {}).items():
            state = dict(state)
            state["burn"] = dict(state.get("burn") or {})
            current = objectives.get(verb)
            if current is None:
                state["member"] = member_id
                objectives[verb] = state
                continue
            if _ALERT_RANK.get(state.get("alert"), 0) > \
                    _ALERT_RANK.get(current.get("alert"), 0):
                current["alert"] = state.get("alert")
                current["member"] = member_id
            for kind in ("fast", "slow"):
                current["burn"][kind] = max(
                    current["burn"].get(kind) or 0.0,
                    state["burn"].get(kind) or 0.0,
                )
            current["good"] = (current.get("good") or 0) + \
                (state.get("good") or 0)
            current["bad"] = (current.get("bad") or 0) + \
                (state.get("bad") or 0)
    return {
        "enabled": enabled,
        "degraded": any(
            o.get("alert") == "fast" for o in objectives.values()
        ),
        "objectives": objectives,
        "members": members,
    }


def merge_profile_docs(docs: "dict[str, dict]") -> dict:
    """Merge per-member ``profile`` verb documents (``{member: doc}``).

    Stack counts sum across members per ``(verb, stack)`` pair and each
    merged entry keeps a per-member breakdown keyed by member id;
    sample/drop totals and per-verb totals sum.  A per-request lookup's
    ``found`` is true when *any* member found the id (each member only
    profiled its own share of a fleet-wide request).  Members answering
    ``enabled: false`` are listed but contribute nothing, same contract
    as :func:`merge_drift_docs`.
    """
    members: dict[str, dict] = {}
    merged: dict[tuple, dict] = {}
    verbs: dict[str, int] = {}
    enabled = False
    samples = 0
    dropped = 0
    request_id = None
    found = None
    for member_id, doc in sorted(docs.items()):
        member_enabled = bool(doc.get("enabled"))
        members[member_id] = {
            "enabled": member_enabled,
            "samples": doc.get("samples") if member_enabled else None,
            "hz": doc.get("hz") if member_enabled else None,
            "running": doc.get("running") if member_enabled else None,
        }
        if not member_enabled:
            continue
        enabled = True
        samples += doc.get("samples") or 0
        dropped += doc.get("dropped") or 0
        for verb, count in (doc.get("verbs") or {}).items():
            verbs[verb] = verbs.get(verb, 0) + count
        if "request_id" in doc:
            request_id = doc["request_id"]
            found = bool(found) or bool(doc.get("found"))
        for entry in doc.get("stacks") or []:
            stack = tuple(entry.get("stack") or ())
            if not stack:
                continue
            key = (entry.get("verb"), stack)
            slot = merged.get(key)
            if slot is None:
                slot = merged[key] = {
                    "stack": list(stack),
                    "count": 0,
                    "verb": entry.get("verb"),
                    "members": {},
                }
            count = int(entry.get("count") or 0)
            slot["count"] += count
            slot["members"][member_id] = (
                slot["members"].get(member_id, 0) + count
            )
    stacks = sorted(
        merged.values(), key=lambda e: (-e["count"], e["stack"])
    )
    out = {
        "enabled": enabled,
        "samples": samples,
        "dropped": dropped,
        "distinct_stacks": len(stacks),
        "verbs": dict(sorted(verbs.items())),
        "stacks": stacks,
        "members": members,
    }
    if request_id is not None:
        out["request_id"] = request_id
        out["found"] = bool(found)
    return out
