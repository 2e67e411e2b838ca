"""Cold-inference benchmark harness: the BENCH_*.json trajectory.

Times a full MCTOP-ALG run (latency table + clustering + topology +
plugins + validation) on catalog machines across the three measurement
engine modes:

``scalar``
    Pair-seeded sampling, everything per sample (coherence pricing,
    DVFS stepping, one RNG draw per value) — the pre-batching engine's
    cost model.
``batched``
    The vectorized engine: one numpy batch per measurement attempt.
``jobs``
    The vectorized engine fanned out over worker processes.

All three run the order-independent ``pair`` sampling scheme, so the
inferred topologies are bit-identical across modes — the harness
verifies that by digesting each run's serialized description and
refuses to report a speedup for runs that diverge.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.algorithm.inference import (
    InferenceConfig,
    InferenceReport,
    infer_topology,
)
from repro.core.algorithm.lat_table import LatencyTableConfig
from repro.core.serialize import mctop_to_dict
from repro.hardware import get_machine, machine_names

#: engine modes in reporting order; "scalar" is the speedup baseline.
MODES = ("scalar", "batched", "jobs")

DEFAULT_OUT = "BENCH_3.json"


def default_jobs() -> int:
    """Worker count for the ``jobs`` mode: the box's cores, capped."""
    return max(2, min(8, os.cpu_count() or 2))


def mode_table_config(
    mode: str, repetitions: int, jobs: int
) -> LatencyTableConfig:
    """The :class:`LatencyTableConfig` one bench mode runs under."""
    if mode == "scalar":
        return LatencyTableConfig(
            repetitions=repetitions, sampling="pair", vectorized=False
        )
    if mode == "batched":
        return LatencyTableConfig(
            repetitions=repetitions, sampling="pair", vectorized=True
        )
    if mode == "jobs":
        return LatencyTableConfig(
            repetitions=repetitions, sampling="pair", vectorized=True,
            jobs=jobs,
        )
    raise ValueError(f"unknown bench mode {mode!r}")


def _topology_digest(mctop) -> str:
    blob = json.dumps(
        mctop_to_dict(mctop), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def bench_machine(
    name: str,
    repetitions: int = 75,
    seed: int = 1,
    jobs: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Cold inference on one machine across all modes.

    Returns the machine's entry of the BENCH document: per-mode wall
    time, samples/second and speedup vs the scalar baseline, plus
    whether every mode produced a byte-identical topology.
    """
    jobs = jobs or default_jobs()
    machine = get_machine(name)
    say = progress or (lambda _msg: None)
    modes: dict[str, dict[str, Any]] = {}
    digests: dict[str, str] = {}
    for mode in MODES:
        config = InferenceConfig(
            table=mode_table_config(mode, repetitions, jobs)
        )
        report = InferenceReport()
        start = time.perf_counter()
        mctop = infer_topology(machine, seed=seed, config=config,
                               report=report)
        wall = time.perf_counter() - start
        digests[mode] = _topology_digest(mctop)
        modes[mode] = {
            "wall_seconds": round(wall, 3),
            "samples": report.samples_taken,
            "samples_per_sec": round(report.samples_taken / wall),
            "jobs": jobs if mode == "jobs" else 1,
        }
        say(f"  {name:>10} {mode:>8}: {wall:7.2f}s "
            f"({modes[mode]['samples_per_sec']:>9,} samples/s)")
    scalar_wall = modes["scalar"]["wall_seconds"]
    for mode in MODES:
        modes[mode]["speedup_vs_scalar"] = round(
            scalar_wall / modes[mode]["wall_seconds"], 2
        )
    return {
        "machine": name,
        "n_contexts": machine.spec.n_contexts,
        "repetitions": repetitions,
        "modes": modes,
        "topologies_identical": len(set(digests.values())) == 1,
        "topology_digest": digests["scalar"],
        "batched_speedup": modes["batched"]["speedup_vs_scalar"],
        "jobs_speedup": modes["jobs"]["speedup_vs_scalar"],
    }


def run_bench(
    machines: list[str] | None = None,
    repetitions: int | None = None,
    seed: int = 1,
    jobs: int | None = None,
    quick: bool = False,
    out: str | Path | None = DEFAULT_OUT,
    progress: Callable[[str], None] | None = None,
    history: str | Path | None = None,
) -> dict[str, Any]:
    """The full benchmark: every requested machine, every mode.

    ``quick`` drops the sample count so CI smoke jobs finish in
    seconds.  Writes the BENCH document to ``out`` (unless ``None``)
    and returns it.  ``history`` names a JSONL file to append one
    per-(machine, mode) record to (see :mod:`repro.obs.history`), so
    repeated runs accumulate a queryable performance trend.
    """
    if repetitions is None:
        repetitions = 25 if quick else 75
    jobs = jobs or default_jobs()
    names = list(machines) if machines else list(machine_names())
    unknown = [n for n in names if n not in machine_names()]
    if unknown:
        raise ValueError(
            f"unknown machine(s): {', '.join(unknown)} "
            f"(known: {', '.join(machine_names())})"
        )
    results = [
        bench_machine(n, repetitions=repetitions, seed=seed, jobs=jobs,
                      progress=progress)
        for n in names
    ]
    doc = {
        "format": "mctop-bench",
        "bench": 3,
        "seed": seed,
        "jobs": jobs,
        "quick": quick,
        "modes": list(MODES),
        "machines": results,
        "all_topologies_identical": all(
            r["topologies_identical"] for r in results
        ),
        "all_batched_faster": all(
            r["batched_speedup"] >= 1.0 for r in results
        ),
    }
    if out is not None:
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if history is not None:
        from repro.obs.history import append_history

        append_history(doc, history)
    return doc


def run_fuzz_bench(
    count: int = 25,
    seed: int = 0,
    jobs: int | None = None,
    quick: bool = True,
    repetitions: int | None = None,
    out: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    history: str | Path | None = None,
) -> dict[str, Any]:
    """Fuzz-throughput benchmark: machines/second through the full loop.

    Runs the property-based fuzz harness (generate → measure → infer →
    oracle, see :mod:`repro.fuzz`) over ``count`` seeded machines and
    reports throughput as a bench document with one ``"fuzz"`` mode, so
    the record lands in ``BENCH_HISTORY.jsonl`` next to the inference
    benches and joins the ``--compare`` regression gate (metric
    ``machines_per_sec``).
    """
    from repro.fuzz import run_fuzz

    jobs = jobs or default_jobs()
    say = progress or (lambda _msg: None)

    def on_case(case: dict) -> None:
        verdict = "ok" if case["ok"] else "FAIL"
        say(f"  synth:{case['seed']:<6} {case['n_contexts']:>3} ctx "
            f"{case['interconnect']:>10}: {verdict}")

    doc = run_fuzz(count=count, seed=seed, jobs=jobs, quick=quick,
                   repetitions=repetitions, progress=on_case)
    wall = doc["wall_seconds"]
    samples = sum(c.get("samples_taken") or 0 for c in doc["cases"])
    contexts = sum(c.get("n_contexts") or 0 for c in doc["cases"])
    stats = {
        "wall_seconds": round(wall, 3),
        "samples": samples,
        "samples_per_sec": round(samples / wall) if wall else 0,
        "machines_per_sec": doc["machines_per_sec"],
        "jobs": jobs,
    }
    bench_doc = {
        "format": "mctop-bench",
        "bench": 3,
        "kind": "fuzz",
        "seed": seed,
        "jobs": jobs,
        "quick": quick,
        "modes": ["fuzz"],
        "machines": [{
            "machine": "synth-fleet",
            "n_contexts": contexts,
            "count": count,
            "repetitions": doc["repetitions"],
            "modes": {"fuzz": stats},
            "topologies_identical": True,
            "topology_digest": doc["digest"],
        }],
        "fuzz_ok": doc["ok"],
        "fuzz_digest": doc["digest"],
    }
    if out is not None:
        Path(out).write_text(
            json.dumps(bench_doc, indent=1, sort_keys=True) + "\n"
        )
    if history is not None:
        from repro.obs.history import append_history

        append_history(bench_doc, history)
    return bench_doc
