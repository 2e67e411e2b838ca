"""Request-scoped tracing, the access log and Prometheus exposition.

The tentpole contract: one server-generated ``request_id`` follows a
request end to end — response field, ``service.request`` root span,
nested cache/inference spans, access-log line — and the same metrics
are readable as JSON (verb), Prometheus text (verb + HTTP endpoint)
and raw traces.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.obs.export import trace_to_events
from repro.obs.prometheus import parse_exposition
from repro.service.accesslog import AccessLog


def _root_spans(daemon, request_id):
    return [
        s for s in daemon.obs.tracer.spans_named("service.request")
        if s.args.get("request_id") == request_id
    ]


class TestRequestIds:
    def test_every_response_carries_a_request_id(self, harness):
        with harness.client() as client:
            client.ping()
            rid_ping = client.last_request_id
            client.infer("testbox", seed=5)
            rid_infer = client.last_request_id
        assert rid_ping and rid_infer
        assert rid_ping != rid_infer
        for rid in (rid_ping, rid_infer):
            assert isinstance(rid, str) and len(rid) == 16
            int(rid, 16)  # hex

    def test_ids_carry_64_random_bits(self, harness, tmp_path, monkeypatch):
        """Ids minted by the server (one per frame) and by the drift
        watcher (one per check) are 16 lowercase hex digits, all
        distinct, and the 13th digit varies: it is not a UUID's version
        digit, always ``4``."""
        from repro.core.algorithm import (
            InferenceConfig,
            LatencyTableConfig,
            infer_topology,
        )
        from repro.hardware import get_machine
        from repro.obs import Observability
        from repro.service import DriftWatcher, InferenceCache, drift

        with harness.client() as client:
            served = []
            for _ in range(256):
                client.ping()
                served.append(client.last_request_id)
        table = LatencyTableConfig(repetitions=15)
        topology = infer_topology(get_machine("testbox"), seed=0,
                                  config=InferenceConfig(table=table))
        monkeypatch.setattr(drift, "infer_topology",
                            lambda *args, **kwargs: topology)
        obs = Observability()
        watcher = DriftWatcher(InferenceCache(obs=obs), obs,
                               machines=("testbox",), interval=60.0,
                               table=table)

        async def checks() -> None:
            for _ in range(256):
                await watcher.check_one("testbox")

        asyncio.run(checks())
        watched = [span.args["request_id"] for span
                   in obs.tracer.spans_named("service.drift_check")]
        for ids in (served, watched):
            assert len(ids) == len(set(ids)) == 256
            assert all(re.fullmatch("[0-9a-f]{16}", rid) for rid in ids)
            assert {rid[12] for rid in ids} != {"4"}

    def test_error_responses_carry_a_request_id_too(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.infer("cray-1")
            assert excinfo.value.code == "invalid_params"
            assert client.last_request_id
            with pytest.raises(ServiceError) as excinfo:
                client.request("frobnicate")
            assert excinfo.value.code == "unknown_verb"
            assert client.last_request_id

    def test_root_span_in_exported_trace(self, harness):
        """The acceptance criterion: the response's request_id names a
        ``service.request`` root span in the exported Chrome trace."""
        with harness.client() as client:
            client.infer("testbox", seed=5)
            rid = client.last_request_id
        daemon = harness.daemon
        roots = _root_spans(daemon, rid)
        assert len(roots) == 1
        assert roots[0].parent_id is None
        assert roots[0].args["verb"] == "infer"
        exported = [
            e for e in trace_to_events(daemon.obs.tracer)
            if e.get("args", {}).get("request_id") == rid
        ]
        assert any(e["name"] == "service.request" for e in exported)

    def test_nested_spans_inherit_the_request_id(self, harness):
        with harness.client() as client:
            client.infer("testbox", seed=5)   # miss: lookup + infer_run
            rid_miss = client.last_request_id
            client.infer("testbox", seed=5)   # hit: lookup only
            rid_hit = client.last_request_id
        tracer = harness.daemon.obs.tracer
        lookups = {
            s.args["request_id"]: s
            for s in tracer.spans_named("service.cache_lookup")
        }
        assert rid_miss in lookups and rid_hit in lookups
        (infer_run,) = tracer.spans_named("service.infer_run")
        assert infer_run.args["request_id"] == rid_miss
        # Parenting: each nested span hangs under its own root.
        root_miss = _root_spans(harness.daemon, rid_miss)[0]
        assert lookups[rid_miss].parent_id == root_miss.id
        assert infer_run.parent_id == root_miss.id

    def test_request_ids_are_unique_across_concurrent_requests(
        self, harness
    ):
        rids = []
        with harness.client() as client:
            for _ in range(10):
                client.ping()
                rids.append(client.last_request_id)
        assert len(set(rids)) == len(rids)


class TestMetricsVerb:
    def test_json_snapshot_has_percentiles_and_dropped_spans(self, harness):
        with harness.client() as client:
            client.infer("testbox", seed=5)
            doc = client.metrics()
        latency = doc["registry"]["service.latency.infer"]
        for key in ("p50", "p95", "p99", "buckets"):
            assert key in latency
        assert latency["p99"] >= latency["p50"]
        assert doc["trace"]["dropped_spans"] == 0

    def test_prometheus_format(self, harness):
        with harness.client() as client:
            client.infer("testbox", seed=5)
            doc = client.metrics(format="prometheus")
        assert doc["format"] == "prometheus"
        families = parse_exposition(doc["prometheus"])
        assert "mctop_service_requests_infer_total" in families
        assert "mctop_trace_dropped_spans" in families
        assert "mctop_cache_memory_entries" in families
        buckets = families["mctop_service_latency_infer_bucket"]
        assert any(labels.get("le") == "+Inf" for labels, _ in buckets)
        assert families["mctop_service_latency_infer_count"][0][1] == 1.0

    def test_unknown_format_is_rejected(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.metrics(format="xml")
        assert excinfo.value.code == "invalid_params"


class TestMetricsHttpEndpoint:
    def test_scrape_parses_as_prometheus_text(self, daemon_factory):
        harness = daemon_factory(metrics_port=0)
        port = harness.daemon.bound_metrics_port
        assert port
        with harness.client() as client:
            client.ping()
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            families = parse_exposition(resp.read().decode("utf-8"))
        assert "mctop_service_requests_ping_total" in families
        assert families["mctop_service_requests_ping_total"][0][1] == 1.0

    def test_healthz_and_unknown_paths(self, daemon_factory):
        harness = daemon_factory(metrics_port=0)
        port = harness.daemon.bound_metrics_port
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=10
        ) as resp:
            assert resp.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/nope", timeout=10
            )
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_metrics_listener_does_not_shadow_tcp_port(self, daemon_factory):
        harness = daemon_factory(metrics_port=0)
        # Unix-only NDJSON listener: tcp_port must stay None even
        # though the metrics HTTP listener holds an AF_INET socket.
        assert harness.daemon.tcp_port is None
        assert harness.daemon.bound_metrics_port is not None


class TestAccessLog:
    def test_one_line_per_request_with_the_full_schema(
        self, daemon_factory, tmp_path
    ):
        log_path = tmp_path / "access.ndjson"
        harness = daemon_factory(access_log=str(log_path))
        rids = {}
        with harness.client() as client:
            client.ping()
            rids["ping"] = client.last_request_id
            client.infer("testbox", seed=5)
            rids["miss"] = client.last_request_id
            client.infer("testbox", seed=5)
            rids["hit"] = client.last_request_id
            with pytest.raises(ServiceError):
                client.request("frobnicate")
            rids["bad"] = client.last_request_id
        harness.stop()  # drain closes (and flushes) the log

        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len(lines) == 4
        by_rid = {line["request_id"]: line for line in lines}
        schema = {"ts", "request_id", "verb", "outcome", "duration_ms",
                  "cache", "bytes_out", "member", "upstream_ms",
                  "decode_ms", "handler_ms", "encode_ms"}
        for line in lines:
            assert set(line) == schema
            assert line["bytes_out"] > 0
            assert line["duration_ms"] >= 0
            # Fleet-router fields are always present, null off-fleet.
            assert line["member"] is None
            assert line["upstream_ms"] is None
            if line["outcome"] == "ok":
                for layer in ("decode_ms", "handler_ms", "encode_ms"):
                    assert isinstance(line[layer], (int, float))
                    assert line[layer] >= 0

        assert by_rid[rids["ping"]]["verb"] == "ping"
        assert by_rid[rids["ping"]]["outcome"] == "ok"
        assert by_rid[rids["ping"]]["cache"] is None
        assert by_rid[rids["miss"]]["cache"] == "miss"
        assert by_rid[rids["hit"]]["cache"] == "hit"
        assert by_rid[rids["bad"]]["verb"] == "frobnicate"
        assert by_rid[rids["bad"]]["outcome"] == "unknown_verb"
        # An unknown verb is decoded and encoded but never routed.
        assert by_rid[rids["bad"]]["decode_ms"] >= 0
        assert by_rid[rids["bad"]]["handler_ms"] is None
        assert by_rid[rids["bad"]]["encode_ms"] >= 0

    def test_client_that_hangs_up_is_counted_traced_and_logged(
        self, daemon_factory, tmp_path
    ):
        """A client that closes its socket before its answer: the line
        is written before the socket write, so requests counted,
        access-log lines and trace-store finishes still agree."""
        log_path = tmp_path / "access.ndjson"
        harness = daemon_factory(access_log=str(log_path))
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(harness.config.unix_path)
            sock.sendall(b'{"verb": "ping"}\n')
            answer = b""
            while not answer.endswith(b"\n"):
                answer += sock.recv(65536)
            sock.sendall(b'{"verb": "_sleep", "params": {"seconds": 0.2}}\n')
        deadline = time.monotonic() + 5
        while True:
            lines = [json.loads(l) for l in log_path.read_text().splitlines()]
            if len(lines) >= 2 or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert [line["verb"] for line in lines] == ["ping", "_sleep"]
        registry = harness.daemon.obs.registry
        counted = sum(registry.value(name) for name in registry.names()
                      if name.startswith("service.requests."))
        assert counted == len(lines) == \
            registry.value("trace_store.retained")

    def test_rotation_keeps_bounded_generations(self, tmp_path):
        path = tmp_path / "a.log"
        log = AccessLog(path, max_bytes=300, backups=2)
        for n in range(40):
            log.write(f"{n:016x}", "ping", "ok", 1.0)
        log.close()
        assert log.rotations > 0
        assert log.lines_written == 40
        assert path.exists()
        assert path.with_name("a.log.1").exists()
        assert path.with_name("a.log.2").exists()
        assert not path.with_name("a.log.3").exists()
        # Every surviving line is intact JSON with the right schema.
        for p in (path, path.with_name("a.log.1"), path.with_name("a.log.2")):
            for line in p.read_text().splitlines():
                assert json.loads(line)["verb"] == "ping"

    def test_zero_backups_truncates_instead_of_rotating(self, tmp_path):
        path = tmp_path / "b.log"
        log = AccessLog(path, max_bytes=300, backups=0)
        for n in range(40):
            log.write(f"{n:016x}", "ping", "ok", 1.0)
        log.close()
        assert log.rotations > 0
        assert not path.with_name("b.log.1").exists()
        assert path.stat().st_size <= 300

    def test_drain_fsyncs_both_ndjson_logs(
        self, daemon_factory, tmp_path, monkeypatch
    ):
        """The SIGTERM-drain durability fix: the final access line and
        drift event must be fsynced, not merely flushed, on close."""
        import os

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        access_path = tmp_path / "access.ndjson"
        events_path = tmp_path / "events.ndjson"
        harness = daemon_factory(
            access_log=str(access_path),
            event_log=str(events_path),
            watch_interval=600.0,
            watch_machines=("testbox",),
        )
        with harness.client() as client:
            client.ping()
        harness.stop()  # graceful drain closes both logs

        assert len(synced) >= 2, "drain must fsync access and event logs"
        assert harness.daemon.access_log._writer.closed
        assert harness.daemon.event_log.closed
        access_lines = access_path.read_text().splitlines()
        assert json.loads(access_lines[-1])["verb"] == "ping"
        event_lines = [json.loads(l)
                       for l in events_path.read_text().splitlines()]
        assert event_lines[-1]["kind"] == "service.drained"
