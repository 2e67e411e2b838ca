"""Service-level tests for per-request tracing, exemplars and SLOs.

The daemon runs with the trace store and SLO engine on by default;
these tests drive real requests through the wire path and then ask for
them back by id — the workflow ``mctop trace show`` automates.
"""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.obs.prometheus import parse_exposition

BASE = dict(machine="testbox", seed=1, repetitions=31)


class TestTraceVerb:
    def test_round_trip_by_request_id(self, harness):
        with harness.client() as client:
            client.request("infer", **BASE)
            client.request("place", policy="CON_HWC", threads=4, **BASE)
            rid = client.last_request_ids[-1]
            result = client.trace(rid)
        assert result["enabled"] is True
        assert result["found"] is True
        record = result["record"]
        assert record["request_id"] == rid
        assert record["verb"] == "place"
        assert record["outcome"] == "ok"
        names = {s["name"] for s in record["spans"]}
        assert "service.request" in names
        # The timeline ships ready to render, member-tagged.
        assert result["timeline"] and all(
            "member" in e for e in result["timeline"]
        )

    def test_unknown_id_reports_store_status(self, harness):
        with harness.client() as client:
            result = client.trace("deadbeef00000000")
        assert result["enabled"] is True
        assert result["found"] is False
        assert result["store"]["traces"] == 0

    def test_error_request_trace_is_pinned(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError):
                client.request("place", policy="NO_SUCH_POLICY", **BASE)
            rid = client.last_request_ids[-1]
            result = client.trace(rid)
        assert result["found"] is True
        assert result["record"]["pinned"] == "error"
        assert result["record"]["outcome"] == "invalid_params"

    def test_disabled_store_answers_enabled_false(self, daemon_factory):
        harness = daemon_factory(trace_store=False)
        with harness.client() as client:
            result = client.trace("deadbeef00000000")
        assert result == {
            "protocol": result["protocol"],
            "enabled": False,
            "found": False,
            "request_id": "deadbeef00000000",
        }

    def test_rejects_bad_request_id(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.trace("")
        assert excinfo.value.code == "invalid_params"


class TestSloVerb:
    def test_status_document(self, harness):
        with harness.client() as client:
            client.request("place", policy="CON_HWC", threads=4, **BASE)
            result = client.slo()
        assert result["enabled"] is True
        assert result["degraded"] is False
        place = result["objectives"]["place"]
        assert place["good"] + place["bad"] >= 1
        assert place["alert"] is None

    def test_disabled_engine_answers_enabled_false(self, daemon_factory):
        harness = daemon_factory(slo=False)
        with harness.client() as client:
            assert client.slo()["enabled"] is False

    def test_custom_objectives(self, daemon_factory):
        harness = daemon_factory(
            slo_objectives=("ping:p99=1000,avail=99",)
        )
        with harness.client() as client:
            doc = client.slo()
        assert set(doc["objectives"]) == {"ping"}
        assert doc["objectives"]["ping"]["availability"] == \
            pytest.approx(0.99)

    def test_fast_burn_degrades_healthz(self, daemon_factory):
        harness = daemon_factory(metrics_port=0)
        port = harness.daemon.bound_metrics_port
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=10
        ) as resp:
            assert resp.read() == b"ok\n"
        # Latch a fast-burn alert directly (driving 5 minutes of real
        # bad traffic is a unit-test job, see tests/obs/test_slo.py);
        # /healthz must flip to 503 while it holds.
        engine = harness.daemon.slo_engine
        engine._states["place"].alert = "fast"
        engine._last_eval = float("inf")  # pin: skip re-evaluation
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            )
        excinfo.value.close()
        assert excinfo.value.code == 503


class TestExemplars:
    def test_metrics_snapshot_carries_request_ids(self, harness):
        with harness.client() as client:
            client.request("place", policy="CON_HWC", threads=4, **BASE)
            rid = client.last_request_ids[-1]
            snap = client.metrics()["registry"]
        exemplars = snap["service.latency.place"]["exemplars"]
        assert rid in {label for _, label in exemplars}

    def test_prometheus_exposition_and_parse(self, harness):
        with harness.client() as client:
            client.request("place", policy="CON_HWC", threads=4, **BASE)
            rid = client.last_request_ids[-1]
            text = client.metrics(format="prometheus")["prometheus"]
        assert f'# {{request_id="{rid}"}}' in text
        # The parser must accept (and strip) the exemplar syntax.
        families = parse_exposition(text)
        assert "mctop_service_latency_place_bucket" in families

    def test_slowest_exemplars_resolve_through_the_trace_verb(
        self, harness
    ):
        """Latency exemplars name the slowest requests, and the two
        slowest fetch their full traces through the ``trace`` verb."""
        with harness.client() as client:
            client.request("infer", **BASE)
            for threads in (2, 3, 4):
                client.request("place", policy="CON_HWC", threads=threads,
                               **BASE)
            snapshot = client.metrics()["registry"]
            exemplars = sorted(
                ((seconds, rid, name[len("service.latency."):])
                 for name, snap in snapshot.items()
                 if name.startswith("service.latency.")
                 for seconds, rid in snap.get("exemplars", [])),
                reverse=True,
            )
            assert {verb for _, _, verb in exemplars} >= {"infer", "place"}
            for _, rid, verb in exemplars[:2]:
                doc = client.trace(rid)
                assert doc["found"] is True
                assert doc["record"]["request_id"] == rid
                assert doc["record"]["verb"] == verb


class TestLastRequestIds:
    def test_split_place_many_keeps_every_sub_batch_id(self, harness):
        queries = [{"policy": "CON_HWC", "threads": 2}] * 6
        with harness.client() as client:
            client.request("infer", **BASE)
            doc = client.place_many("testbox", queries, batch=2,
                                    include_stats=False, seed=1,
                                    repetitions=31)
            ids = list(client.last_request_ids)
            assert doc["n_queries"] == 6
            assert len(ids) == 3  # one id per pipelined sub-batch
            assert len(set(ids)) == 3
            # Every sub-batch id resolves to its own trace.
            for rid in ids:
                result = client.trace(rid)
                assert result["found"] is True
                assert result["record"]["verb"] == "place_many"

    def test_single_request_resets_list(self, harness):
        with harness.client() as client:
            client.request("ping")
            first = list(client.last_request_ids)
            client.request("ping")
            second = list(client.last_request_ids)
        assert len(first) == len(second) == 1
        assert first != second
