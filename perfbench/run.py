"""The repository's benchmark: one command, four workloads.

::

    python3 perfbench/run.py --workload place-small --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  Servers are started from the
checkout's ``src`` tree as separate processes; every answer is checked
by an oracle.  The human-readable lines come first; the last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"latency_ms": {"value": ..., "unit": "ms"}, ...}}

Every workload prints the same metrics, as ``BENCHMARK.json`` declares
them: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run (spans recorded around each
client call, per-process ``/proc`` CPU, in-process replays of the layer
chain), whose spans are written as a Chrome trace to
``.perfbench/trace-<workload>.json``.  Each workload's own layer
metrics (``details`` in ``perfbench/model.json``) are printed as
``detail name = value unit`` lines above the result line.
``perfbench/model.json`` holds each workload's traffic model;
``perfbench/README.md`` explains it all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

from harness import load_model

ROOT = Path(__file__).resolve().parent.parent


def _on_sigterm(signum, frame) -> None:
    # Turn a stop request into an exception so every ``finally`` runs
    # and the servers this run started are stopped and reaped.
    raise SystemExit(128 + signum)


def _module(workload: str):
    if workload == "infer-miss":
        import inference
        return inference
    if workload == "sim-apps":
        import sim
        return sim
    import serving
    return serving


def measure(workload: str, seed: int, seconds: float, traced: bool,
            model: dict | None = None, tamper=None):
    """Run one workload; returns ``(report, expected metric names)``.

    ``model`` replaces ``model.json`` (the self-tests shrink it) and
    ``tamper(index, line)`` rewrites answers before the oracle sees
    them (the self-tests corrupt one).
    """
    from harness import CLIENT_CPU, CPUS, RUN_ROOT, Report, host_steal_s, \
        pin, probe_loop_s, run_dir_path

    pin(0, CLIENT_CPU)
    model = model or load_model()
    report = Report()
    tracer = None
    if traced:
        from repro.obs import Observability

        tracer = Observability(capacity=50_000).tracer
    probe = probe_loop_s()
    steal, start = host_steal_s(), time.perf_counter()
    try:
        with tracer.span("run", workload=workload, seed=seed) if traced \
                else contextlib.nullcontext():
            _module(workload).run(workload, seed, seconds, traced, model,
                                  report, tracer, tamper)
    finally:
        shutil.rmtree(run_dir_path(workload), ignore_errors=True)
    wall = time.perf_counter() - start
    stolen = host_steal_s() - steal
    report.note(f"host: {stolen:.2f} s of CPU stolen by the hypervisor in "
                f"{wall:.1f} s on {len(CPUS)} CPUs "
                f"({stolen / (wall * len(CPUS)) * 100:.2f}%); probe loop "
                f"(best of 3) {probe:.3f} s before the run, "
                f"{probe_loop_s():.3f} s after")
    if traced:
        from repro.obs.export import write_chrome_trace

        RUN_ROOT.mkdir(exist_ok=True)
        path = write_chrome_trace(RUN_ROOT / f"trace-{workload}.json",
                                  tracer)
        report.note(f"spans written to {path}")
    return report, declared_names(traced)


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_names(traced: bool) -> list[str]:
    """The metrics every workload prints in one mode, in order."""
    return [m["name"] for m in _manifest()["per_layer" if traced
                                            else "end_to_end"]]


def declared_units() -> dict:
    doc = _manifest()
    return {m["name"]: m["unit"]
            for m in doc["end_to_end"] + doc["per_layer"]}


def result_line(report, expected: list[str]) -> dict:
    """The final JSON document; refuses a run that misses a declared
    metric or reports one in another unit."""
    units = declared_units()
    missing = [name for name in expected if name not in report.metrics]
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    for name, metric in report.metrics.items():
        if name in units and units[name] != metric["unit"]:
            raise RuntimeError(f"{name}: unit {metric['unit']!r} differs "
                               f"from the declared {units.get(name)!r}")
    if report.attempted < 1:
        raise RuntimeError("no operation was attempted")
    return {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: report.metrics[name] for name in expected},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(load_model()["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              f"(no src/repro or BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        report, expected = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
        doc = result_line(report, expected)
    except Exception:
        traceback.print_exc()
        print("perfbench: the run failed; no result", file=sys.stderr)
        return 1
    for line in report.notes:
        print(line)
    for problem in report.problems:
        print(f"PROBLEM: {problem}")
    for name, metric in report.metrics.items():
        if name not in expected:
            print(f"detail {name} = {metric['value']:.6g} {metric['unit']}")
    for name in expected:
        metric = report.metrics[name]
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {doc['attempted']}, failed {doc['failed']}, "
          f"correct {doc['correct']}")
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
