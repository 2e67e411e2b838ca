"""Bench history and the performance-regression gate.

Two pieces that make ``mctop bench`` a trend, not a single data point:

* **history** — every bench run can append one JSONL record per
  ``(machine, mode)`` to ``BENCH_HISTORY.jsonl`` (timestamp, git sha,
  wall time and the metrics that mode measures), so the cost of the
  measurement engine is traceable commit over commit;
* **gate** — ``compare_bench`` diffs a current bench document against
  a baseline per ``(machine, mode)`` and flags any metric that moved
  past a threshold in the losing direction, which ``mctop bench
  --compare`` turns into a non-zero exit for CI.

The default gate metric is ``speedup_vs_scalar``: a *ratio of two
timings from the same run on the same host*, so a checked-in baseline
stays meaningful on differently-powered CI runners where absolute
wall seconds would not.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Any

#: Metrics the gate knows, mapped to whether smaller values win.
#: ``place_qps`` / ``p99_ms`` come from ``mctop loadgen`` (placement
#: service throughput and tail latency); the rest from ``mctop bench``.
GATE_METRICS = {
    "speedup_vs_scalar": False,
    "samples_per_sec": False,
    "machines_per_sec": False,
    "wall_seconds": True,
    "place_qps": False,
    "p99_ms": True,
}

#: Per-mode stats carried into a history record besides the gate
#: metrics, when the mode has them — the loadgen mode's latency
#: percentiles and rates ride the same history file as bench records.
OPTIONAL_STATS = (
    "p50_ms",
    "p999_ms",
    "achieved_rate",
    "target_rate",
)

DEFAULT_METRIC = "speedup_vs_scalar"
DEFAULT_THRESHOLD = 0.15
DEFAULT_HISTORY = "BENCH_HISTORY.jsonl"


def git_sha(cwd: str | Path | None = None) -> str | None:
    """The current short commit sha, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


# ---------------------------------------------------------------- history
def history_records(
    doc: dict, ts: float | None = None, sha: str | None = None
) -> list[dict[str, Any]]:
    """Flatten one bench document into per-(machine, mode) records.

    Every record carries ``wall_seconds``; beyond it, only the
    :data:`GATE_METRICS` and :data:`OPTIONAL_STATS` its mode measured.
    """
    ts = time.time() if ts is None else ts
    records = []
    for entry in doc.get("machines", []):
        for mode, stats in sorted(entry.get("modes", {}).items()):
            record = {
                "ts": round(ts, 3),
                "sha": sha,
                "machine": entry["machine"],
                "mode": mode,
                "wall_seconds": stats["wall_seconds"],
                "repetitions": entry.get("repetitions"),
                "quick": doc.get("quick", False),
                "seed": doc.get("seed"),
                "jobs": stats.get("jobs"),
            }
            for name in (*GATE_METRICS, *OPTIONAL_STATS):
                if name in stats:
                    record[name] = stats[name]
            records.append(record)
    return records


def append_history(
    doc: dict,
    path: str | Path,
    ts: float | None = None,
    sha: str | None = None,
) -> int:
    """Append the document's records to the JSONL history file.

    Append-only by design — the file is a log, the way BENCH_*.json
    files are snapshots.  Returns the number of records written.
    """
    if sha is None:
        sha = git_sha()
    records = history_records(doc, ts=ts, sha=sha)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return len(records)


def read_history(path: str | Path) -> list[dict]:
    """Every record of a JSONL history file, oldest first."""
    records = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), 1
    ):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: corrupt history line: {exc}"
            ) from None
    return records


# ------------------------------------------------------------------ gate
def _flatten(doc: dict) -> dict[tuple[str, str], dict]:
    """``{(machine, mode): stats}`` from either supported shape."""
    if doc.get("format") == "mctop-bench" or "machines" in doc:
        return {
            (entry["machine"], mode): stats
            for entry in doc.get("machines", [])
            for mode, stats in entry.get("modes", {}).items()
        }
    raise ValueError("not a bench document (missing 'machines')")


def load_baseline(path: str | Path) -> dict[tuple[str, str], dict]:
    """A baseline from a bench JSON document *or* a JSONL history file.

    History files contribute their **latest** record per
    ``(machine, mode)``, so pointing ``--compare`` at
    ``BENCH_HISTORY.jsonl`` gates against the previous run.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    # A one-record JSONL history is itself valid JSON; only treat the
    # file as a bench snapshot when it actually has the bench shape.
    if isinstance(doc, dict) and (
            doc.get("format") == "mctop-bench" or "machines" in doc):
        return _flatten(doc)
    baseline: dict[tuple[str, str], dict] = {}
    for record in read_history(path):
        if "machine" not in record or "mode" not in record:
            raise ValueError(
                "not a bench document (missing 'machines') and not a "
                "history record (missing 'machine'/'mode')"
            )
        baseline[(record["machine"], record["mode"])] = record
    if not baseline:
        raise ValueError(f"baseline {path} holds no bench records")
    return baseline


def compare_bench(
    current: dict,
    baseline: dict[tuple[str, str], dict],
    metric: str = DEFAULT_METRIC,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, Any]:
    """Per-(machine, mode) regression verdicts for one metric.

    A pair regresses when the metric moved past ``threshold``
    (fractionally) in its losing direction — below the baseline for
    higher-is-better metrics, above it for ``wall_seconds``.  Pairs
    present on only one side, or lacking the metric on either side
    (each mode reports only the metrics it measures), are reported in
    ``missing`` but never fail the gate (machine catalogs legitimately
    grow).
    """
    if metric not in GATE_METRICS:
        raise ValueError(
            f"unknown gate metric {metric!r} "
            f"(known: {', '.join(sorted(GATE_METRICS))})"
        )
    if not 0 <= threshold < 1:
        raise ValueError("threshold must be in [0, 1)")
    smaller_wins = GATE_METRICS[metric]
    current_flat = _flatten(current)
    shared = set(current_flat) & set(baseline)
    measured = {
        key for key in shared
        if metric in current_flat[key] and metric in baseline[key]
    }
    rows = []
    for key in sorted(measured):
        base_value = float(baseline[key][metric])
        cur_value = float(current_flat[key][metric])
        if base_value == 0:
            delta = 0.0
        elif smaller_wins:
            delta = (cur_value - base_value) / base_value
        else:
            delta = (base_value - cur_value) / base_value
        rows.append({
            "machine": key[0],
            "mode": key[1],
            "baseline": base_value,
            "current": cur_value,
            # positive delta == got worse, whatever the direction
            "delta": round(delta, 4),
            "regressed": delta > threshold,
        })
    missing = sorted(
        set(current_flat).symmetric_difference(baseline)
        | (shared - measured)
    )
    regressions = [r for r in rows if r["regressed"]]
    return {
        "metric": metric,
        "threshold": threshold,
        "rows": rows,
        "regressions": regressions,
        "missing": [list(pair) for pair in missing],
        "ok": bool(rows) and not regressions,
    }


def render_verdict_table(comparison: dict) -> str:
    """The human-readable gate verdict ``mctop bench --compare`` prints."""
    metric = comparison["metric"]
    threshold = comparison["threshold"]
    lines = [
        f"{'MACHINE':<12}{'MODE':<10}{'BASELINE':>12}{'CURRENT':>12}"
        f"{'DELTA':>9}  VERDICT"
    ]
    for row in comparison["rows"]:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"{row['machine']:<12}{row['mode']:<10}"
            f"{row['baseline']:>12.3f}{row['current']:>12.3f}"
            f"{row['delta']:>8.1%}  {verdict}"
        )
    for machine, mode in comparison["missing"]:
        lines.append(f"{machine:<12}{mode:<10}{'-':>12}{'-':>12}"
                     f"{'-':>9}  (not on both sides)")
    n_reg = len(comparison["regressions"])
    if comparison["ok"]:
        lines.append(
            f"gate: ok — no {metric} regression beyond {threshold:.0%} "
            f"across {len(comparison['rows'])} (machine, mode) pairs"
        )
    elif not comparison["rows"]:
        lines.append(f"gate: FAILED — baseline and current share no "
                     f"(machine, mode) pairs with {metric}")
    else:
        lines.append(
            f"gate: FAILED — {n_reg} of {len(comparison['rows'])} "
            f"(machine, mode) pairs regressed {metric} beyond "
            f"{threshold:.0%}"
        )
    return "\n".join(lines)
