"""Self-tests of the benchmark harness, at minimal sizes.

::

    python3 perfbench/selftest.py            # everything (~2 minutes)
    python3 perfbench/selftest.py corrupt    # tests whose name matches

Each workload runs end to end in both modes and must print every
declared metric with the declared unit, and its own layer metrics; a corrupted answer must be
caught by the oracle and counted as failed; the traffic model and the
layer predictions must cover every workload and metric; and the
benchmark must refuse to run outside a checkout.  The functions are
also plain pytest tests.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402


def small_model() -> dict:
    """``model.json`` shrunk so each workload takes a few seconds."""
    model = copy.deepcopy(harness.load_model())
    model["setup_repeats"] = 1
    model["stage_replays"] = 1
    model["min_frames"] = 200
    model["verb_warmup_s"] = 0.1
    workloads = model["workloads"]
    for name in ("place-small", "fleet-small"):
        workloads[name]["distinct_frames"] = 256
        workloads[name]["replay_frames"] = 100
    workloads["infer-miss"]["count"] = 3
    workloads["infer-miss"]["replay_seeds"] = 1
    workloads["sim-apps"]["min_rounds"] = 1
    return model


def _run(workload: str, traced: bool, tamper=None):
    report, expected = run.measure(workload, 7, 1.0, traced,
                                   model=small_model(), tamper=tamper)
    return report, run.result_line(report, expected)


def _check_metric_set(workload: str) -> None:
    declared = run.declared_units()
    details = harness.load_model()["workloads"][workload]["details"]
    for traced in (False, True):
        report, doc = _run(workload, traced)
        assert doc["correct"], report.problems
        assert doc["failed"] == 0 and doc["attempted"] >= 1
        assert list(doc["metrics"]) == run.declared_names(traced)
        for name, metric in doc["metrics"].items():
            assert metric["unit"] == declared[name]
            assert math.isfinite(metric["value"]) and metric["value"], name
        if traced:
            assert set(details) <= set(report.metrics), \
                set(details) - set(report.metrics)


def test_place_small_metric_set():
    _check_metric_set("place-small")


def test_fleet_small_metric_set():
    _check_metric_set("fleet-small")


def test_infer_miss_metric_set():
    _check_metric_set("infer-miss")


def test_sim_apps_metric_set():
    _check_metric_set("sim-apps")


def test_corrupt_answer_is_caught_and_failed():
    seen = [0]

    def tamper(index: int, line: bytes) -> bytes:
        seen[0] += 1
        if seen[0] == 3:
            return line.replace(b'"ordering":[', b'"ordering":[999,', 1)
        if seen[0] == 5:
            return b'{"ok": tru\n'
        return line

    report, doc = _run("place-small", False, tamper=tamper)
    assert doc["failed"] == 2
    assert not doc["correct"]
    assert any("ordering mismatch" in p for p in report.problems)
    assert any("undecodable" in p for p in report.problems)


def test_failed_frame_misses_every_latency_limit():
    phase = harness.Phase()
    phase.latencies = [0.001] * 99
    phase.fail("timeout")
    assert phase.latencies[-1] == math.inf and phase.failed == 1
    assert harness.percentile(phase.latencies, 100) == math.inf


def test_same_seed_same_stream():
    a = serving.make_queries(3, 50, 40), harness.poisson_schedule(
        "arrivals-3", 1500, 50)
    b = serving.make_queries(3, 50, 40), harness.poisson_schedule(
        "arrivals-3", 1500, 50)
    c = serving.make_queries(4, 50, 40), harness.poisson_schedule(
        "arrivals-4", 1500, 50)
    assert a == b and a != c


def test_model_covers_workloads_and_metrics():
    model = harness.load_model()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(
        model["workloads"])
    predicted = {m for row in model["predictions"] for m in row["metrics"]}
    for name, spec in model["workloads"].items():
        assert spec["why"] and spec["servers"] and spec["operation"]
        loop = spec["loop"]
        assert loop["why"], name
        assert "window" in loop or "rate" in loop \
            or loop["kind"] == "rounds", name
        assert set(spec["details"]) <= predicted, name
    assert {m["name"] for m in bench["per_layer"]} <= predicted


def test_refuses_to_run_outside_a_checkout():
    bare = harness.RUN_ROOT.resolve() / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim-apps",
             "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def main(argv: list[str]) -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)
             and all(word in name for word in argv)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}", flush=True)
        else:
            print(f"ok   {name}", flush=True)
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
