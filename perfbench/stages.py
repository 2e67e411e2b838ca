"""MCTOP-ALG stage by stage, in-process, for the traced runs.

Every workload infers a topology: the serving workloads and the study
worker infer the served ``ivy`` topology during set-up, and
``infer-miss`` infers a cold ``opteron`` topology per operation.
``replay_inference`` repeats one such inference through the public
stage functions in ``infer_topology``'s order, timing each, and returns
the topology's digest so the replay can be checked against what the
system under test inferred.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from pathlib import Path

from harness import median

#: ``infer_topology``'s stages, in order.
STAGES = ("lat_table_s", "clusters_s", "normalize_s", "components_s",
          "topology_s", "plugins_s", "validate_s")
#: The daemon's work after a cold inference: store write, placement
#: index build and sidecar write.
CACHE_STAGES = ("cache_put_s", "index_build_s", "index_save_s")


def topology_digest(doc: dict) -> str:
    """Digest of a serialized topology, minus the run's trace summary
    (which counts observability events, not topology facts)."""
    doc = dict(doc)
    doc["provenance"] = {k: v for k, v in doc["provenance"].items()
                         if k != "trace_summary"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def inference_config(params: dict):
    """An ``infer`` request's params, canonicalized the daemon's own way
    (defaults and all): ``(machine, seed, table, InferenceConfig)``."""
    from repro.core.algorithm import InferenceConfig
    from repro.service.handlers import parse_inference_params

    machine, seed, table = parse_inference_params(params)
    return machine, seed, table, InferenceConfig(table=table)


def local_topology_digest(params: dict) -> str:
    """Digest of an in-process ``infer_topology`` for one ``infer``
    request's params."""
    from repro.core.algorithm import infer_topology
    from repro.core.serialize import mctop_to_dict
    from repro.hardware import get_machine

    machine, seed, _, config = inference_config(params)
    mctop = infer_topology(get_machine(machine), seed=seed, config=config)
    return topology_digest(mctop_to_dict(mctop))


def replay_inference(params: dict, stages: dict, stats: dict, tracer=None,
                     store_dir: Path | None = None) -> str:
    """``infer_topology``'s stages one by one for one request's params,
    appending each stage's seconds to ``stages[name]`` and the latency
    table's sample counts to ``stats``; with ``store_dir``, then the
    daemon's cache insert (``InferenceCache.put`` + ``ensure_index``)
    into a store there.  Returns the topology's digest."""
    from repro.core.algorithm.clustering import find_clusters, \
        normalize_table
    from repro.core.algorithm.components import build_components
    from repro.core.algorithm.lat_table import collect_latency_table
    from repro.core.algorithm.topology import build_topology
    from repro.core.algorithm.validation import compare_with_os, \
        validate_structure
    from repro.core.mctop import Provenance
    from repro.core.plugins import run_plugins
    from repro.core.serialize import mctop_to_dict
    from repro.hardware import get_machine
    from repro.hardware.probes import MeasurementContext
    from repro.obs import Observability
    from repro.service.cache import InferenceCache, inference_key

    machine, seed, table, config = inference_config(params)
    probe = MeasurementContext(get_machine(machine), seed=seed, solo=True)
    obs = probe.obs

    def stage(label, fn, *args, **kwargs):
        start = time.perf_counter()
        with tracer.span(f"replay.{label}") if tracer is not None \
                else nullcontext():
            value = fn(*args, **kwargs)
        stages.setdefault(label, []).append(time.perf_counter() - start)
        return value

    result = stage("lat_table_s", collect_latency_table, probe,
                   config.table)
    clusters = stage("clusters_s", find_clusters, result.table,
                     config.clustering, obs=obs)
    normalized, _ = stage("normalize_s", normalize_table, result.table,
                          clusters, obs=obs)
    hierarchy = stage("components_s", build_components, normalized,
                      [c.median for c in clusters], obs=obs)
    provenance = Provenance(machine=machine, seed=seed,
                            samples_taken=result.samples_taken,
                            repetitions=result.repetitions)
    mctop = stage("topology_s", build_topology, probe, hierarchy, clusters,
                  normalized, name=machine, provenance=provenance,
                  cfg=config.topology)
    stage("plugins_s", run_plugins, mctop, probe, config.plugins)

    def validate():
        validate_structure(mctop)
        compare_with_os(mctop, probe.os)

    stage("validate_s", validate)
    stats.setdefault("samples", []).append(result.samples_taken)
    stats.setdefault("retried", []).append(result.retried_pairs)
    stats.setdefault("kept", []).append(
        1 - result.discarded_samples / max(result.samples_taken, 1))

    if store_dir is not None:
        cache_obs = Observability()
        cache = InferenceCache(store_dir=store_dir, obs=cache_obs)
        key = inference_key(machine, seed, table)
        stage("cache_put_s", cache.put, key, mctop)
        start = time.perf_counter()
        with tracer.span("replay.ensure_index") if tracer is not None \
                else nullcontext():
            cache.ensure_index(key, mctop)
        ensure = time.perf_counter() - start
        build = cache_obs.registry.snapshot()[
            "service.place.index_build_seconds"]["total"]
        stages.setdefault("index_build_s", []).append(build)
        stages.setdefault("index_save_s", []).append(ensure - build)
    return topology_digest(mctop_to_dict(mctop))


def report_stages(stages: dict, stats: dict, report) -> None:
    """The median of each replayed stage, and the latency table's
    probing rate, as metrics of ``report``."""
    for name, values in stages.items():
        report.add(name, median(values), "s")
    samples = median(stats["samples"])
    report.add("lat_table.samples", samples, "count")
    report.add("probe.samples_per_s",
               samples / median(stages["lat_table_s"]), "1/s")
    report.add("lat_table.retried_pairs", median(stats["retried"]),
               "count")
    report.add("lat_table.kept_ratio", median(stats["kept"]), "ratio")
