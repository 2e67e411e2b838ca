"""The ``infer-miss`` workload: the daemon's write path.

A fixed count of cold ``infer`` requests on fresh seeds against one
machine, from a fresh store, with daemon defaults: each is MCTOP-ALG,
the ``.mct.gz`` store write, the placement-index build and its sidecar
write.  The count is fixed rather than the duration, because the
daemon's cache (and so its memory) grows with every miss.  The count
overflows the 32-entry memory LRU, so evictions are exercised too.

The traced run replays ``infer_topology``'s stage order in-process on
some of the same seeds, then ``InferenceCache.put`` and
``ensure_index`` on a temporary store; the replayed topology's digest
must equal the one the daemon served.
"""

from __future__ import annotations

import contextlib
import math
import random
import time

from harness import Conn, Report, cpu_seconds, make_run_dir, median, \
    peak_rss_mb, percentile, span_cost_us
from serving import (
    registry_value,
    repeated_setup,
    report_setup,
    served_params,
    start_daemon,
    warm_all,
)
from stages import CACHE_STAGES, STAGES, local_topology_digest, \
    replay_inference, report_stages, topology_digest


def run(workload: str, seed: int, seconds: float, traced: bool,
        model: dict, report: Report, tracer=None, tamper=None) -> None:
    spec = model["workloads"][workload]
    run_dir = make_run_dir(workload)
    servers, setups = repeated_setup(
        lambda tag: [start_daemon(run_dir, tag, served_params(model))],
        model["setup_repeats"])
    server = servers[0]
    try:
        warmup_s, warm_frames = warm_all([server.sock])
        rng = random.Random(seed)
        seeds = rng.sample(range(1, 2 ** 31), spec["count"])
        times: list[float] = []
        cpu0 = cpu_seconds(server.pid)
        me0 = time.process_time()
        start = time.perf_counter()
        with Conn(server.sock, timeout=300) as conn:
            for infer_seed in seeds:
                report.attempted += 1
                with tracer.span("client.infer", seed=infer_seed) \
                        if traced else contextlib.nullcontext():
                    problem, elapsed = _cold_infer(conn, spec["machine"],
                                                   infer_seed)
                if problem is None:
                    times.append(elapsed)
                else:
                    times.append(math.inf)
                    report.failed += 1
                    report.problems.append(problem)
            wall = time.perf_counter() - start
            client_s = time.process_time() - me0
            daemon_cpu = cpu_seconds(server.pid) - cpu0
            # The newest misses are still in the memory LRU: what the
            # daemon inferred, not a reload of the description file.
            checked = spec["replay_seeds"] if traced else 1
            served = {s: conn.call("infer", machine=spec["machine"], seed=s,
                                   include_topology=True)["topology"]
                      for s in seeds[-checked:]}
            registry = conn.call("metrics")["registry"]
        report.add("rss_mb", peak_rss_mb(server.pid), "MiB")
    finally:
        server.stop()

    report_setup(report, setups, warmup_s, warm_frames)
    report.note(f"infer: {len(seeds)} cold infers of {spec['machine']} "
                f"one at a time on 1 connection, "
                f"{len(seeds) - report.failed} answered, {wall:.2f} s")
    report.add("latency_ms", percentile(times, 50) * 1e3, "ms")
    report.add("p99_ms", percentile(times, 99) * 1e3, "ms")
    report.add("cpu_ms", daemon_cpu / len(seeds) * 1e3, "ms")
    report.add("client.cpu_us_per_op", client_s / len(seeds) * 1e6, "us")
    report.add("cache.evictions",
               registry_value(registry, "service.cache.evictions"), "count")
    if not traced:
        last = seeds[-1]
        local = local_topology_digest({"machine": spec["machine"],
                                       "seed": last})
        report.check(topology_digest(served[last]) == local,
                     "served topology digest differs from in-process "
                     "infer_topology")
        return

    report.add("trace.overhead_pct",
               span_cost_us(tracer) * len(seeds) / (wall * 1e6) * 100, "%")
    stages: dict[str, list[float]] = {}
    stats: dict[str, list[float]] = {}
    for infer_seed, doc in served.items():
        with tracer.span("replay.infer", seed=infer_seed):
            digest = replay_inference(
                {"machine": spec["machine"], "seed": infer_seed}, stages,
                stats, tracer, store_dir=run_dir / "replay-store")
        report.check(digest == topology_digest(doc),
                     f"replayed topology digest differs for seed "
                     f"{infer_seed}")
    report_stages(stages, stats, report)
    report.add("infer.dispatch_s", median(times) - sum(
        median(stages[name]) for name in STAGES + CACHE_STAGES), "s")


def _cold_infer(conn: Conn, machine: str, seed: int
                ) -> tuple[str | None, float]:
    start = time.perf_counter()
    try:
        result = conn.call("infer", machine=machine, seed=seed)
    except RuntimeError as exc:
        return str(exc), 0.0
    elapsed = time.perf_counter() - start
    if result.get("cached") is not False:
        return f"infer seed {seed} answered cached={result.get('cached')}", \
            elapsed
    if result.get("machine") != machine:
        return f"infer seed {seed} answered machine " \
               f"{result.get('machine')}", elapsed
    return None, elapsed
