"""Bench history records and the --compare regression gate."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.history import (
    GATE_METRICS,
    append_history,
    compare_bench,
    history_records,
    load_baseline,
    read_history,
    render_verdict_table,
)


def bench_doc(scalar_wall=2.0, batched_wall=0.2, jobs_wall=0.4,
              machine="testbox", quick=True):
    """A synthetic mctop-bench document with controllable timings."""
    def mode(wall, jobs=1):
        return {
            "wall_seconds": wall,
            "samples": 1000,
            "samples_per_sec": round(1000 / wall),
            "speedup_vs_scalar": round(scalar_wall / wall, 2),
            "jobs": jobs,
        }

    return {
        "format": "mctop-bench",
        "bench": 3,
        "seed": 1,
        "jobs": 2,
        "quick": quick,
        "modes": ["scalar", "batched", "jobs"],
        "machines": [{
            "machine": machine,
            "n_contexts": 8,
            "repetitions": 9,
            "modes": {
                "scalar": mode(scalar_wall),
                "batched": mode(batched_wall),
                "jobs": mode(jobs_wall, jobs=2),
            },
            "topologies_identical": True,
            "topology_digest": "0" * 64,
            "batched_speedup": round(scalar_wall / batched_wall, 2),
            "jobs_speedup": round(scalar_wall / jobs_wall, 2),
        }],
        "all_topologies_identical": True,
        "all_batched_faster": True,
    }


class TestHistory:
    def test_records_one_line_per_machine_mode(self):
        records = history_records(bench_doc(), ts=123.0, sha="abc1234")
        assert len(records) == 3
        assert {r["mode"] for r in records} == {"scalar", "batched", "jobs"}
        for record in records:
            assert record["machine"] == "testbox"
            assert record["sha"] == "abc1234"
            assert record["ts"] == 123.0
            assert record["quick"] is True
            assert record["wall_seconds"] > 0

    def test_append_is_append_only(self, tmp_path):
        path = tmp_path / "hist" / "BENCH_HISTORY.jsonl"
        assert append_history(bench_doc(), path, ts=1.0, sha="a") == 3
        assert append_history(bench_doc(scalar_wall=3.0), path,
                              ts=2.0, sha="b") == 3
        records = read_history(path)
        assert len(records) == 6
        assert [r["ts"] for r in records] == [1.0] * 3 + [2.0] * 3

    def test_read_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"machine": "x"}\nnot json\n')
        with pytest.raises(ValueError, match="corrupt history line"):
            read_history(path)

    def test_run_bench_history_hook(self, tmp_path):
        from repro.benchmark import run_bench

        history = tmp_path / "BENCH_HISTORY.jsonl"
        run_bench(machines=["testbox"], quick=True, jobs=2,
                  out=tmp_path / "b.json", history=history)
        records = read_history(history)
        assert {(r["machine"], r["mode"]) for r in records} == {
            ("testbox", "scalar"), ("testbox", "batched"),
            ("testbox", "jobs"),
        }


class TestLoadBaseline:
    def test_from_bench_document(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(bench_doc()))
        baseline = load_baseline(path)
        assert ("testbox", "batched") in baseline
        assert baseline[("testbox", "scalar")]["speedup_vs_scalar"] == 1.0

    def test_from_history_takes_the_latest_record(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(bench_doc(batched_wall=0.2), path, ts=1.0, sha="a")
        append_history(bench_doc(batched_wall=0.1), path, ts=2.0, sha="b")
        baseline = load_baseline(path)
        assert baseline[("testbox", "batched")]["wall_seconds"] == 0.1

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a bench document"):
            load_baseline(path)


class TestCompareBench:
    def test_identical_runs_pass(self, tmp_path):
        doc = bench_doc()
        comparison = compare_bench(doc, _as_baseline(doc, tmp_path))
        assert comparison["ok"]
        assert comparison["regressions"] == []
        assert len(comparison["rows"]) == 3

    def test_large_speedup_drop_fails(self, tmp_path):
        baseline = _as_baseline(bench_doc(batched_wall=0.2), tmp_path)
        # batched speedup 10x -> 5x: a 50% drop, far past 15%.
        comparison = compare_bench(bench_doc(batched_wall=0.4), baseline)
        assert not comparison["ok"]
        assert [r["mode"] for r in comparison["regressions"]] == ["batched"]
        row = comparison["regressions"][0]
        assert row["delta"] == pytest.approx(0.5)

    def test_threshold_is_respected(self, tmp_path):
        baseline = _as_baseline(bench_doc(batched_wall=0.2), tmp_path)
        current = bench_doc(batched_wall=0.22)  # ~9% slower
        assert compare_bench(current, baseline, threshold=0.15)["ok"]
        assert not compare_bench(current, baseline, threshold=0.05)["ok"]

    def test_wall_seconds_direction_is_inverted(self, tmp_path):
        baseline = _as_baseline(bench_doc(batched_wall=0.2), tmp_path)
        slower = bench_doc(batched_wall=0.4)
        comparison = compare_bench(slower, baseline,
                                   metric="wall_seconds", threshold=0.15)
        assert not comparison["ok"]
        faster = bench_doc(batched_wall=0.1)
        assert compare_bench(faster, baseline, metric="wall_seconds",
                             threshold=0.15)["ok"]

    def test_improvements_never_fail(self, tmp_path):
        baseline = _as_baseline(bench_doc(batched_wall=0.4), tmp_path)
        comparison = compare_bench(bench_doc(batched_wall=0.1), baseline)
        assert comparison["ok"]

    def test_missing_pairs_reported_not_failed(self, tmp_path):
        baseline = _as_baseline(bench_doc(machine="other"), tmp_path)
        comparison = compare_bench(bench_doc(), baseline)
        assert comparison["missing"]
        # ... but zero overlap cannot pass either.
        assert not comparison["ok"]
        assert comparison["rows"] == []

    def test_pair_lacking_the_metric_is_missing(self, tmp_path):
        # A mode records only the metrics it measures; gating on one it
        # lacks lists the pair instead of raising, and the rest gate.
        baseline = _as_baseline(bench_doc(), tmp_path)
        current = bench_doc()
        del current["machines"][0]["modes"]["jobs"]["speedup_vs_scalar"]
        comparison = compare_bench(current, baseline)
        assert comparison["missing"] == [["testbox", "jobs"]]
        assert [r["mode"] for r in comparison["rows"]] == ["batched",
                                                           "scalar"]
        assert comparison["ok"]
        jobs = [r for r in history_records(current) if r["mode"] == "jobs"]
        assert "speedup_vs_scalar" not in jobs[0]

    def test_unknown_metric_rejected(self, tmp_path):
        baseline = _as_baseline(bench_doc(), tmp_path)
        with pytest.raises(ValueError, match="unknown gate metric"):
            compare_bench(bench_doc(), baseline, metric="vibes")

    def test_loadgen_metrics_are_gateable(self):
        # The loadgen gate pair: throughput is bigger-wins, tail
        # latency is smaller-wins.
        assert GATE_METRICS["place_qps"] is False
        assert GATE_METRICS["p99_ms"] is True

    def _loadgen_doc(self, qps, p99):
        return {
            "format": "mctop-bench", "quick": False, "seed": 1,
            "machines": [{
                "machine": "testbox", "repetitions": None,
                "modes": {"loadgen": {
                    "wall_seconds": 10.0, "samples_per_sec": qps,
                    "speedup_vs_scalar": 1.0, "place_qps": qps,
                    "p99_ms": p99,
                }},
            }],
        }

    def test_place_qps_regression_detected(self, tmp_path):
        baseline = _as_baseline(self._loadgen_doc(150000.0, 30.0),
                                tmp_path)
        slower = self._loadgen_doc(100000.0, 30.0)  # -33% throughput
        comparison = compare_bench(slower, baseline, metric="place_qps",
                                   threshold=0.15)
        assert not comparison["ok"]
        faster = self._loadgen_doc(200000.0, 30.0)
        assert compare_bench(faster, baseline, metric="place_qps",
                             threshold=0.15)["ok"]

    def test_p99_ms_regression_detected(self, tmp_path):
        baseline = _as_baseline(self._loadgen_doc(150000.0, 30.0),
                                tmp_path)
        worse = self._loadgen_doc(150000.0, 60.0)  # tail doubled
        comparison = compare_bench(worse, baseline, metric="p99_ms",
                                   threshold=0.15)
        assert not comparison["ok"]
        better = self._loadgen_doc(150000.0, 10.0)
        assert compare_bench(better, baseline, metric="p99_ms",
                             threshold=0.15)["ok"]

    def test_loadgen_history_records_carry_optional_stats(self):
        records = history_records(self._loadgen_doc(150000.0, 30.0),
                                  ts=0.0)
        assert records[0]["mode"] == "loadgen"
        assert records[0]["place_qps"] == 150000.0
        assert records[0]["p99_ms"] == 30.0

    def test_verdict_table_mentions_every_row(self, tmp_path):
        baseline = _as_baseline(bench_doc(batched_wall=0.2), tmp_path)
        comparison = compare_bench(bench_doc(batched_wall=0.4), baseline)
        table = render_verdict_table(comparison)
        assert "REGRESSED" in table
        assert "gate: FAILED" in table
        for mode in ("scalar", "batched", "jobs"):
            assert mode in table


def _as_baseline(doc, tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(doc))
    return load_baseline(path)


class TestBenchCompareCli:
    def test_replay_self_compare_exits_zero(self, tmp_path, capsys):
        doc_path = tmp_path / "bench.json"
        doc_path.write_text(json.dumps(bench_doc()))
        rc = main(["bench", "--replay", str(doc_path),
                   "--compare", str(doc_path)])
        assert rc == 0
        assert "gate: ok" in capsys.readouterr().out

    def test_replay_against_faster_baseline_exits_nonzero(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(bench_doc(batched_wall=0.2)))
        current = tmp_path / "current.json"
        current.write_text(json.dumps(bench_doc(batched_wall=0.4)))
        rc = main(["bench", "--replay", str(current),
                   "--compare", str(baseline)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "gate: FAILED" in out

    def test_replay_requires_compare(self, tmp_path, capsys):
        doc_path = tmp_path / "bench.json"
        doc_path.write_text(json.dumps(bench_doc()))
        rc = main(["bench", "--replay", str(doc_path)])
        assert rc == 2
        assert "--compare" in capsys.readouterr().err

    def test_threshold_flag(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(bench_doc(batched_wall=0.2)))
        current = tmp_path / "current.json"
        current.write_text(json.dumps(bench_doc(batched_wall=0.22)))
        assert main(["bench", "--replay", str(current),
                     "--compare", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["bench", "--replay", str(current),
                     "--compare", str(baseline),
                     "--threshold", "0.05"]) == 1
