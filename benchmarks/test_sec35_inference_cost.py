"""Section 3.5, "Performance": the cost of MCTOP-ALG itself.

The paper: ~3 seconds on the smallest platform (Ivy, 40 contexts), 96
seconds on Westmere (160 contexts, with DVFS).  Our simulated probe has
different absolute costs, but the quadratic growth with the context
count — the actual systems claim — must hold, and we report both the
wall-clock time and the number of samples taken.

The measurement engine's batched and multi-process modes must produce
the same topology as the per-sample scalar engine, faster; the scalar
engine stays as that check's oracle.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from repro.core.algorithm import (
    InferenceConfig,
    InferenceReport,
    LatencyTableConfig,
    infer_topology,
)
from repro.fuzz import topology_digest
from repro.hardware import get_machine

#: library-default repetitions for this bench (the cost benchmark is
#: the one place where the measurement effort is the subject)
_CFG = InferenceConfig(table=LatencyTableConfig(repetitions=75))


@pytest.mark.benchmark(group="sec3.5 inference cost")
@pytest.mark.parametrize("platform", ["ivy", "haswell", "westmere"])
def test_inference_cost(benchmark, platform):
    machine = get_machine(platform)
    report = InferenceReport()

    def run():
        return infer_topology(
            machine, seed=2, config=_CFG, report=report
        )

    mctop = benchmark.pedantic(run, rounds=1, iterations=1)
    n = machine.spec.n_contexts
    print(
        f"\n{platform}: {n} contexts, {report.samples_taken} samples, "
        f"{report.retried_pairs} retried pairs, "
        f"{report.discarded_samples} discarded"
    )
    benchmark.extra_info["contexts"] = n
    benchmark.extra_info["samples"] = report.samples_taken
    # Sample count grows with the number of context pairs.
    n_pairs = n * (n - 1) // 2
    assert report.samples_taken >= n_pairs * 75
    assert mctop.n_contexts == n
    # The always-on instrumentation saw the whole run: every pair
    # counted, every step spanned, and the provenance digest agrees.
    registry = report.obs.registry
    assert registry.value("lat_table.pairs") == n_pairs
    assert registry.value("lat_table.samples") == report.samples_taken
    span_names = {s.name for s in report.obs.tracer.spans()}
    assert {"lat_table.collect", "infer.clustering", "infer.topology",
            "infer"} <= span_names
    assert mctop.provenance.trace_summary["counters"][
        "lat_table.pairs"
    ] == n_pairs


#: The engine modes, all on the order-independent ``pair`` sampling
#: scheme, so every mode must infer a byte-identical topology.
_ENGINE_MODES = {
    "scalar": dict(vectorized=False),
    "batched": dict(vectorized=True),
    "jobs": dict(vectorized=True, jobs=2),
}

#: Speedups over the scalar engine in ``bench_quick_baseline.json``, the
#: quick-mode baseline (25 repetitions, seed 1, two jobs, testbox then
#: ivy in one fresh interpreter) that the engine-mode gate compared
#: against before it became this test.  A mode fails below half of its
#: ratio: a lost vectorization shows up as a 5-15x collapse, runner
#: jitter does not reach 2x.
_BASELINE_SPEEDUP = {
    "testbox": {"batched": 5.86, "jobs": 1.17},
    "ivy": {"batched": 5.68, "jobs": 4.15},
}


def time_engine_modes(platform: str) -> dict:
    """Wall seconds and topology digest of one inference per mode."""
    machine = get_machine(platform)
    runs = {}
    for mode, knobs in _ENGINE_MODES.items():
        config = InferenceConfig(table=LatencyTableConfig(
            repetitions=25, sampling="pair", **knobs
        ))
        start = time.perf_counter()
        mctop = infer_topology(machine, seed=1, config=config)
        runs[mode] = {"wall": time.perf_counter() - start,
                      "digest": topology_digest(mctop)}
    return runs


def test_engine_modes_agree_and_batched_is_faster():
    # Measured as the baseline was: in a fresh interpreter, machines in
    # the same order, so each machine's scalar run is its first
    # inference and carries the same one-time warm-up.  On a warm
    # interpreter testbox's batched ratio reads 2-3x, not 5.86x: its
    # 8 contexts leave the fixed per-inference cost dominant.
    out = subprocess.run(
        [sys.executable, __file__, *_BASELINE_SPEEDUP],
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    results = json.loads(out.splitlines()[-1])
    for platform, runs in results.items():
        wall = {mode: run["wall"] for mode, run in runs.items()}
        speedups = {mode: wall["scalar"] / wall[mode] for mode in wall}
        print(f"\n{platform}: " + ", ".join(
            f"{mode} {wall[mode]:.3f} s ({speedups[mode]:.2f}x)"
            for mode in wall
        ))
        digests = {mode: run["digest"] for mode, run in runs.items()}
        assert len(set(digests.values())) == 1, (platform, digests)
        assert wall["batched"] < wall["scalar"], (platform, wall)
        for mode, ratio in _BASELINE_SPEEDUP[platform].items():
            assert speedups[mode] >= 0.5 * ratio, (
                f"{platform} {mode} is {speedups[mode]:.2f}x the scalar "
                f"engine, below half the baseline's {ratio}x"
            )


if __name__ == "__main__":
    print(json.dumps({name: time_engine_modes(name)
                      for name in sys.argv[1:]}))
