"""``mctop query`` — the CLI front end of the sync client."""

from __future__ import annotations

import json

from repro.cli import main
from repro.core.algorithm import LatencyTableConfig
from repro.service import inference_key


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuery:
    def test_ping(self, capsys, harness):
        code, out, _ = run_cli(
            capsys, "query", "ping", "--unix", str(harness.config.unix_path)
        )
        assert code == 0
        assert "pong" in out

    def test_infer_then_show(self, capsys, harness):
        sock = str(harness.config.unix_path)
        code, out, _ = run_cli(capsys, "query", "infer", "testbox",
                               "--unix", sock, "--seed", "1")
        assert code == 0
        assert "cached                : False" in out
        code, out, _ = run_cli(capsys, "query", "show", "testbox",
                               "--unix", sock, "--seed", "1")
        assert code == 0
        assert "MCTOP topology 'testbox'" in out
        assert "cached                : True" in out

    def test_place_with_policy(self, capsys, harness):
        code, out, _ = run_cli(
            capsys, "query", "place", "testbox",
            "--unix", str(harness.config.unix_path),
            "--policy", "RR_CORE", "--threads", "4",
        )
        assert code == 0
        assert "MCTOP_PLACE_RR_CORE" in out

    def test_metrics_json(self, capsys, harness):
        sock = str(harness.config.unix_path)
        run_cli(capsys, "query", "infer", "testbox", "--unix", sock)
        code, out, _ = run_cli(capsys, "query", "metrics", "--unix", sock,
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["registry"]["service.inference.runs"]["value"] == 1

    def test_metrics_prometheus_format(self, capsys, harness):
        from repro.obs.prometheus import parse_exposition

        sock = str(harness.config.unix_path)
        run_cli(capsys, "query", "ping", "--unix", sock)
        code, out, _ = run_cli(capsys, "query", "metrics", "--unix", sock,
                               "--format", "prom")
        assert code == 0
        families = parse_exposition(out)
        assert "mctop_service_requests_ping_total" in families

    def test_format_rejected_for_other_verbs(self, capsys, harness):
        code, _, err = run_cli(
            capsys, "query", "ping",
            "--unix", str(harness.config.unix_path), "--format", "prom",
        )
        assert code == 2
        assert "metrics verb only" in err

    def test_machine_required_for_topology_verbs(self, capsys, harness):
        code, _, err = run_cli(
            capsys, "query", "infer",
            "--unix", str(harness.config.unix_path),
        )
        assert code == 2
        assert "needs a MACHINE" in err

    def test_sampling_reaches_the_daemon(self, capsys, harness):
        sock = str(harness.config.unix_path)
        code, out, _ = run_cli(capsys, "query", "infer", "testbox",
                               "--unix", sock, "--repetitions", "31",
                               "--sampling", "pair", "--json")
        assert code == 0
        assert json.loads(out)["key"] == inference_key(
            "testbox", 0, LatencyTableConfig(repetitions=31, sampling="pair")
        )

    def test_endpoint_required(self, capsys):
        code, _, err = run_cli(capsys, "query", "ping")
        assert code == 2
        assert "--unix" in err

    def test_connection_refused_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "query", "ping", "--unix", str(tmp_path / "nope.sock")
        )
        assert code == 2
        assert "cannot connect" in err


class TestTraceAndSloCli:
    def _place_rid(self, harness) -> str:
        with harness.client() as client:
            client.request("infer", machine="testbox", seed=1,
                           repetitions=31)
            client.request("place", machine="testbox", seed=1,
                           repetitions=31, policy="CON_HWC", threads=4)
            return client.last_request_ids[-1]

    def test_query_trace_renders_timeline(self, capsys, harness):
        rid = self._place_rid(harness)
        code, out, _ = run_cli(
            capsys, "query", "trace", rid,
            "--unix", str(harness.config.unix_path),
        )
        assert code == 0
        assert f"trace {rid}" in out
        assert "service.request" in out

    def test_query_trace_requires_request_id(self, capsys, harness):
        code, _, err = run_cli(
            capsys, "query", "trace",
            "--unix", str(harness.config.unix_path),
        )
        assert code == 2
        assert "REQUEST_ID" in err

    def test_query_trace_unknown_id(self, capsys, harness):
        code, out, _ = run_cli(
            capsys, "query", "trace", "deadbeef00000000",
            "--unix", str(harness.config.unix_path),
        )
        assert code == 1
        assert "no retained trace" in out

    def test_query_slo_renders_panel(self, capsys, harness):
        self._place_rid(harness)
        code, out, _ = run_cli(
            capsys, "query", "slo",
            "--unix", str(harness.config.unix_path),
        )
        assert code == 0
        assert out.startswith("slo     ok")
        assert "place" in out

    def test_trace_show_with_chrome_export(self, capsys, harness,
                                           tmp_path):
        rid = self._place_rid(harness)
        chrome = tmp_path / "trace.json"
        code, out, _ = run_cli(
            capsys, "trace", "show", rid,
            "--unix", str(harness.config.unix_path),
            "--chrome", str(chrome),
        )
        assert code == 0
        assert f"trace {rid}" in out
        doc = json.loads(chrome.read_text())
        assert doc["otherData"]["request_id"] == rid
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert any(e["name"] == "service.request" for e in spans)

    def test_trace_show_json_output(self, capsys, harness):
        rid = self._place_rid(harness)
        code, out, _ = run_cli(
            capsys, "trace", "show", rid, "--json",
            "--unix", str(harness.config.unix_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True and doc["request_id"] == rid

    def test_trace_show_requires_rid_and_endpoint(self, capsys):
        code, _, err = run_cli(capsys, "trace", "show")
        assert code == 2
        assert "REQUEST_ID" in err
        code, _, err = run_cli(capsys, "trace", "show", "abc123")
        assert code == 2
        assert "--unix" in err

    def test_trace_show_unknown_id_fails_cleanly(self, capsys, harness):
        code, _, err = run_cli(
            capsys, "trace", "show", "deadbeef00000000",
            "--unix", str(harness.config.unix_path),
        )
        assert code == 2
        assert "no retained trace" in err
