"""The open-loop load generator behind ``mctop loadgen``.

A short real run against the harness daemon pins the result-document
shape and the coordinated-omission-free accounting; the mix parser,
percentile/histogram helpers, and the bench-document bridge into
``BENCH_HISTORY.jsonl`` / ``--compare`` are covered in isolation.
"""

from __future__ import annotations

import pytest

from repro.errors import MctopError
from repro.obs.history import compare_bench, history_records
from repro.service import MctopClient
from repro.service.loadgen import (
    LoadgenConfig,
    latency_histogram,
    loadgen_bench_doc,
    parse_mix,
    render_loadgen_report,
    run_loadgen,
    _percentile,
)


class TestParseMix:
    def test_parses_the_default_mix(self):
        assert parse_mix("place=0.9,infer=0.1") == {
            "place": 0.9, "infer": 0.1
        }

    def test_single_verb_and_whitespace(self):
        assert parse_mix(" place = 1 ,") == {"place": 1.0}

    @pytest.mark.parametrize("text,match", [
        ("place=lots", "bad mix entry"),
        ("place=-1", "must be >= 0"),
        ("place=0,infer=0", "positive"),
        ("", "positive"),
        ("frobnicate=1", "unknown mix verb"),
    ])
    def test_rejects_malformed_mixes(self, text, match):
        with pytest.raises(MctopError, match=match):
            parse_mix(text)


class TestLatencyMath:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert _percentile(values, 0.50) == 50.0
        assert _percentile(values, 0.99) == 99.0
        assert _percentile(values, 1.0) == 100.0
        assert _percentile([], 0.5) == 0.0

    def test_histogram_buckets_are_cumulative(self):
        hist = latency_histogram([0.5, 1.5, 1.5, 90.0])
        assert hist["count"] == 4
        assert hist["max_ms"] == 90.0
        counts = [b["count"] for b in hist["buckets"]]
        assert counts == sorted(counts)  # cumulative, monotone
        assert counts[-1] == 4


class TestConfigValidation:
    @pytest.mark.parametrize("overrides,match", [
        ({"duration": 0}, "duration"),
        ({"rate": 0}, "rate"),
        ({"batch": 0}, "batch"),
        ({"workers": 0}, "workers"),
    ])
    def test_rejects_degenerate_configs(self, overrides, match):
        config = LoadgenConfig(duration=0.5, **overrides) \
            if "duration" not in overrides else LoadgenConfig(**overrides)
        with pytest.raises(MctopError, match=match):
            run_loadgen(config, make_client=lambda: None)


_RUN_CACHE: dict = {}


class TestRunLoadgen:
    @pytest.fixture()
    def doc(self, daemon_factory):
        # One short but real open-loop run, shared across the class
        # (the result document outlives its daemon).
        if "doc" not in _RUN_CACHE:
            harness = daemon_factory()
            config = LoadgenConfig(
                machine="testbox", duration=0.5, rate=2000.0, batch=16,
                workers=2, mix={"place": 0.9, "infer": 0.1}, seed=1,
                warmup=0.1,
            )

            def make_client():
                return MctopClient(unix_path=harness.config.unix_path,
                                   timeout=30.0)

            _RUN_CACHE["doc"] = run_loadgen(config, make_client)
        return _RUN_CACHE["doc"]

    def test_document_shape(self, doc):
        for key in ("format", "machine", "wall_seconds", "place_qps",
                    "p50_ms", "p99_ms", "p999_ms", "max_ms", "histogram",
                    "n_frames", "n_place_frames", "n_infer_frames",
                    "n_place_queries", "frame_errors", "query_errors"):
            assert key in doc, key
        assert doc["format"] == "mctop-loadgen"
        assert doc["machine"] == "testbox"

    def test_ran_clean_and_did_work(self, doc):
        assert doc["frame_errors"] == 0
        assert doc["query_errors"] == 0
        assert doc["n_place_queries"] > 0
        assert doc["place_qps"] > 0
        assert doc["n_place_queries"] == doc["n_place_frames"] * doc["batch"]

    def test_percentiles_are_ordered(self, doc):
        assert doc["p50_ms"] <= doc["p99_ms"] <= doc["p999_ms"] \
            <= doc["max_ms"]
        assert doc["histogram"]["count"] == doc["n_place_frames"]

    def test_report_renders_the_headline(self, doc):
        report = render_loadgen_report(doc)
        assert "qps" in report
        assert "p99" in report
        assert "testbox" in report


class TestBenchBridge:
    DOC = {
        "format": "mctop-loadgen", "machine": "testbox", "seed": 1,
        "duration": 10.0, "wall_seconds": 10.0, "target_rate": 150000.0,
        "achieved_rate": 147925.0, "place_qps": 147925.0, "batch": 512,
        "workers": 4, "include_stats": False, "mix": {"place": 1.0},
        "n_frames": 10, "n_place_frames": 10, "n_infer_frames": 0,
        "n_place_queries": 5120, "frame_errors": 0, "query_errors": 0,
        "p50_ms": 3.1, "p99_ms": 37.5, "p999_ms": 46.5, "max_ms": 50.0,
        "histogram": {"buckets": [], "count": 10, "max_ms": 50.0},
    }

    def test_bench_doc_shape(self):
        bench = loadgen_bench_doc(self.DOC)
        assert bench["format"] == "mctop-bench"
        stats = bench["machines"][0]["modes"]["loadgen"]
        assert stats["place_qps"] == 147925.0
        assert stats["p99_ms"] == 37.5
        assert "speedup_vs_scalar" not in stats

    def test_history_records_carry_loadgen_stats(self):
        records = history_records(loadgen_bench_doc(self.DOC), ts=0.0)
        assert len(records) == 1
        record = records[0]
        assert record["mode"] == "loadgen"
        assert record["place_qps"] == 147925.0
        assert record["p99_ms"] == 37.5
        assert record["target_rate"] == 150000.0

    def _baseline(self, qps: float, p99: float):
        return {("testbox", "loadgen"): {
            "place_qps": qps, "p99_ms": p99, "wall_seconds": 10.0,
            "samples_per_sec": qps, "speedup_vs_scalar": 1.0,
        }}

    def test_place_qps_gate_bigger_wins(self):
        bench = loadgen_bench_doc(self.DOC)
        healthy = compare_bench(bench, self._baseline(120000.0, 40.0),
                                metric="place_qps", threshold=0.15)
        assert healthy["ok"]
        regressed = compare_bench(bench, self._baseline(500000.0, 40.0),
                                  metric="place_qps", threshold=0.15)
        assert not regressed["ok"]
        assert regressed["regressions"][0]["machine"] == "testbox"

    def test_p99_gate_smaller_wins(self):
        bench = loadgen_bench_doc(self.DOC)
        healthy = compare_bench(bench, self._baseline(120000.0, 40.0),
                                metric="p99_ms", threshold=0.15)
        assert healthy["ok"]
        regressed = compare_bench(bench, self._baseline(120000.0, 10.0),
                                  metric="p99_ms", threshold=0.15)
        assert not regressed["ok"]


class TestExemplarTraceCollection:
    def test_collects_slowest_request_traces(self, daemon_factory):
        from repro.service.loadgen import collect_exemplar_traces

        harness = daemon_factory()

        def make_client():
            return MctopClient(unix_path=harness.config.unix_path,
                               timeout=30.0)

        with make_client() as client:
            client.request("infer", machine="testbox", seed=1,
                           repetitions=31)
            for threads in (2, 3, 4):
                client.request("place", machine="testbox", seed=1,
                               repetitions=31, policy="CON_HWC",
                               threads=threads)
        doc = collect_exemplar_traces(make_client, limit=2)
        assert doc["format"] == "mctop-loadgen-traces"
        assert 1 <= doc["count"] <= 2
        entry = doc["traces"][0]
        assert entry["verb"] in ("place", "infer")
        # The trace itself came back for the exemplar id.
        assert entry["trace"]["found"] is True
        assert entry["trace"]["record"]["request_id"] == \
            entry["request_id"]
        # Sorted slowest-first.
        seconds = [t["seconds"] for t in doc["traces"]]
        assert seconds == sorted(seconds, reverse=True)
