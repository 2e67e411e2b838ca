"""The ``sim-apps`` workload: the four application studies.

Figures 8, 9, 10 and 12 (locks, mergesort, Metis, OpenMP) on the
``ivy`` topology the figure benchmarks use (``repetitions=31``; the
served topology of the serving workloads), in a worker process of
their own so its peak RSS and CPU are the studies' alone.  One
operation is a round of the four studies; rounds repeat until the
run's seconds are spent (at least ``min_rounds``), and ``latency_ms``
and ``cpu_ms`` are the median round's wall and CPU time.  Each
study's result digest must equal the value recorded in
``model.json``.  The studies' inputs are the recorded figure
configurations, so the seed does not change them.

Run as a script this file is the worker::

    python3 perfbench/sim.py --setup-only
    python3 perfbench/sim.py --seconds 10 --min-rounds 2
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

STUDIES = ("fig08", "fig09", "fig10", "fig12")


# -------------------------------------------------------------- worker
def _studies(machine, mctop) -> dict:
    from repro.apps.locks import LockExperimentConfig, run_figure8
    from repro.apps.mapreduce import run_figure10
    from repro.apps.openmp import GraphScale, run_figure12
    from repro.apps.sort import run_figure9

    return {
        "fig08": lambda: run_figure8(
            machine, mctop, cfg=LockExperimentConfig(iterations=80)),
        "fig09": lambda: run_figure9(machine, mctop),
        "fig10": lambda: run_figure10(machine, mctop),
        "fig12": lambda: run_figure12(machine, mctop,
                                      scale=GraphScale.paper()),
    }


def worker(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/sim.py")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-rounds", type=int, default=1)
    args = parser.parse_args(argv)

    from harness import load_model, peak_rss_mb
    from stages import inference_config, topology_digest

    from repro.core.algorithm import infer_topology
    from repro.core.serialize import mctop_to_dict
    from repro.hardware import get_machine

    name, seed, _, config = inference_config(load_model()["served_topology"])
    machine = get_machine(name)
    mctop = infer_topology(machine, seed=seed, config=config)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    studies = _studies(machine, mctop)
    rounds: list[dict] = []
    cpu: list[float] = []
    digests: list[dict] = []
    start = time.perf_counter()
    while len(rounds) < args.min_rounds \
            or time.perf_counter() - start < args.seconds:
        times, hashes = {}, {}
        cpu0 = time.process_time()
        for name in STUDIES:
            t0 = time.perf_counter()
            result = studies[name]()
            times[name] = time.perf_counter() - t0
            hashes[name] = hashlib.sha256(
                result.table().encode()).hexdigest()
        cpu.append(time.process_time() - cpu0)
        rounds.append(times)
        digests.append(hashes)
    print(json.dumps({"rounds": rounds, "cpu": cpu, "digests": digests,
                      "topology": topology_digest(mctop_to_dict(mctop)),
                      "rss_mb": peak_rss_mb(os.getpid())}), flush=True)
    return 0


# -------------------------------------------------------------- parent
def run(workload: str, seed: int, seconds: float, traced: bool,
        model: dict, report, tracer=None, tamper=None) -> None:
    from harness import BENCH_DIR, CLIENT_CPU, ROOT, SERVER_CPU, median, \
        percentile, pin, server_env, span_cost_us
    from stages import replay_inference, report_stages

    spec = model["workloads"][workload]
    setups = []
    doc = None
    for attempt in range(model["setup_repeats"]):
        last = attempt + 1 == model["setup_repeats"]
        argv = [sys.executable, str(BENCH_DIR / "sim.py")]
        argv += (["--seconds", str(seconds), "--min-rounds",
                  str(spec["min_rounds"])] if last else ["--setup-only"])
        launched = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=server_env(),
                                stdout=subprocess.PIPE, text=True)
        pin(proc.pid, SERVER_CPU)
        try:
            ready = proc.stdout.readline()
            setups.append(time.perf_counter() - launched)
            if ready.strip() != "ready":
                raise RuntimeError("sim worker failed to set up")
            if last:
                me0 = time.process_time()
                doc = json.loads(proc.stdout.readline())
                client_s = time.process_time() - me0
        finally:
            proc.stdout.close()
            if proc.wait(timeout=170) != 0:
                raise RuntimeError(f"sim worker exited {proc.returncode}")

    expected = model["study_digests"]
    for hashes in doc["digests"]:
        for name in STUDIES:
            report.attempted += 1
            if hashes[name] != expected[name]:
                report.failed += 1
                report.problems.append(f"{name} digest {hashes[name][:16]}"
                                       f" != recorded {expected[name][:16]}")
    totals = [sum(r.values()) for r in doc["rounds"]]
    report.note(f"sim: {len(totals)} rounds of {', '.join(STUDIES)}; "
                f"round seconds " + ", ".join(f"{t:.3f}" for t in totals))
    report.note(f"setup_s per set-up: "
                + ", ".join(f"{s:.3f}" for s in setups))
    report.add("setup_s", median(setups), "s")
    report.add("rss_mb", doc["rss_mb"], "MiB")
    report.add("latency_ms", median(totals) * 1e3, "ms")
    report.add("p99_ms", percentile(totals, 99) * 1e3, "ms")
    report.add("cpu_ms", median(doc["cpu"]) * 1e3, "ms")
    report.add("client.cpu_us_per_op", client_s / len(totals) * 1e6, "us")
    for name in STUDIES:
        report.add(f"{name}_s", median(r[name] for r in doc["rounds"]), "s")
    if not traced:
        return
    for times in doc["rounds"]:
        for name in STUDIES:
            tracer.adopt_span(f"study.{name}", times[name] * 1e6)
    spans = len(doc["rounds"]) * len(STUDIES)
    report.add("trace.overhead_pct",
               span_cost_us(tracer) * spans / (sum(totals) * 1e6) * 100, "%")
    # The worker's set-up inference, stage by stage, where it ran.
    stages: dict = {}
    stats: dict = {}
    pin(0, SERVER_CPU)
    with tracer.span("phase.replay.inference"):
        for _ in range(model["stage_replays"]):
            digest = replay_inference(model["served_topology"], stages,
                                      stats, tracer)
            report.check(digest == doc["topology"],
                         "replayed set-up inference digest differs from "
                         "the study worker's topology")
    pin(0, CLIENT_CPU)
    report_stages(stages, stats, report)


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1:]))
