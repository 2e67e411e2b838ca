"""End-to-end tests for the ``profile`` verb and the daemon profiler.

The tentpole contract: a daemon started with ``profile=True`` samples
its own threads continuously; a cold ``infer`` burns enough CPU in the
worker thread that the per-verb and per-request views both see it, so
the request id printed by ``mctop top`` pastes straight into
``mctop profile show --request RID``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.errors import ServiceError
from repro.obs.prometheus import parse_exposition


def _wait_for_samples(client, minimum: int = 1, timeout: float = 10.0):
    """Poll the verb until the background sampler has recorded data."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        doc = client.profile()
        if doc["samples"] >= minimum:
            return doc
        time.sleep(0.05)
    raise AssertionError(f"profiler never reached {minimum} samples")


class TestProfileVerbDisabled:
    def test_answers_enabled_false_without_flag(self, harness):
        with harness.client() as client:
            doc = client.profile()
        assert doc == {"protocol": doc["protocol"], "enabled": False}

    def test_reset_also_reports_disabled(self, harness):
        with harness.client() as client:
            assert client.profile(action="reset")["enabled"] is False


class TestProfileVerbEnabled:
    def test_snapshot_shape_and_background_sampling(self, daemon_factory):
        harness = daemon_factory(profile=True, profile_hz=400.0)
        with harness.client() as client:
            client.infer("testbox", seed=5)
            doc = _wait_for_samples(client)
        assert doc["enabled"] is True
        assert doc["running"] is True
        assert doc["hz"] == 400.0
        assert doc["distinct_stacks"] >= 1
        assert 0.0 <= doc["overhead_fraction"] <= 1.0
        assert doc["bytes"] <= doc["max_bytes"]
        for entry in doc["stacks"]:
            assert entry["count"] >= 1
            assert isinstance(entry["stack"], list) and entry["stack"]

    def test_cold_infer_attributes_verb_and_request(self, daemon_factory):
        harness = daemon_factory(profile=True, profile_hz=400.0)
        with harness.client() as client:
            client.infer("testbox", seed=11, repetitions=101)
            rid = client.last_request_id
            doc = _wait_for_samples(client)
            assert doc["verbs"].get("infer", 0) >= 1
            by_verb = client.profile(verb="infer")
            assert by_verb["stacks"]
            assert all(e["verb"] == "infer" for e in by_verb["stacks"])
            # the acceptance path: response rid -> per-request flamegraph
            by_request = client.profile(request_id=rid)
        assert by_request["found"] is True
        assert by_request["request_id"] == rid
        assert by_request["stacks"]
        frames = [f for e in by_request["stacks"] for f in e["stack"]]
        assert any("infer" in f for f in frames)

    def test_unknown_request_id_reports_not_found(self, daemon_factory):
        harness = daemon_factory(profile=True)
        with harness.client() as client:
            doc = client.profile(request_id="deadbeefdeadbeef")
        assert doc["found"] is False
        assert doc["stacks"] == []

    def test_reset_clears_samples(self, daemon_factory):
        harness = daemon_factory(profile=True, profile_hz=400.0)
        with harness.client() as client:
            client.infer("testbox", seed=5)
            _wait_for_samples(client)
            out = client.profile(action="reset")
            assert out == {"protocol": out["protocol"], "enabled": True,
                           "reset": True}
            doc = client.profile()
        # the sampler keeps running after a reset; a few fresh samples
        # may already have landed, but the old aggregate is gone
        assert doc["samples"] < 50
        assert doc["running"] is True

    def test_invalid_params_rejected(self, daemon_factory):
        harness = daemon_factory(profile=True)
        with harness.client() as client:
            for params in (
                {"action": "explode"},
                {"verb": ""},
                {"request_id": ""},
                {"request_id": "x" * 65},
                {"limit": 0},
                {"limit": 5001},
                {"limit": "lots"},
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.profile(**params)
                assert excinfo.value.code == "invalid_params"

    def test_limit_caps_stack_entries(self, daemon_factory):
        harness = daemon_factory(profile=True, profile_hz=400.0)
        with harness.client() as client:
            client.infer("testbox", seed=5)
            _wait_for_samples(client, minimum=20)
            doc = client.profile(limit=1)
        assert len(doc["stacks"]) == 1


class TestProfilerMetrics:
    def test_profiler_counters_in_prometheus_exposition(
        self, daemon_factory
    ):
        harness = daemon_factory(profile=True, profile_hz=400.0)
        with harness.client() as client:
            client.infer("testbox", seed=5)
            _wait_for_samples(client)
            doc = client.metrics(format="prometheus")
        families = parse_exposition(doc["prometheus"])
        (_, samples_total) = families["mctop_profiler_samples_total"][0]
        assert samples_total > 0
        assert "mctop_profiler_distinct_stacks" in families
        assert "mctop_profiler_overhead_fraction" in families
        assert "mctop_trace_sink_errors" in families

    def test_no_profiler_metrics_without_flag(self, harness):
        with harness.client() as client:
            client.ping()
            doc = client.metrics(format="prometheus")
        assert "mctop_profiler_samples_total" not in doc["prometheus"]


class TestProfilerOverhead:
    def test_profiled_throughput_within_budget(self, daemon_factory):
        """With the profiler at 100 Hz a daemon must still answer at
        least 70% of the ``place_many`` queries an unprofiled one
        answers at a 40,000 queries/s target (a wide margin against
        noise).  CI's profile smoke gates the sampler's own
        ``overhead_fraction``; this test also covers the per-request
        tagging (``begin_dispatch``/``end_dispatch``), which that gauge
        leaves out."""
        from repro.place.policies import ALL_POLICIES

        rng = random.Random(1)
        queries = [{"policy": rng.choice(ALL_POLICIES).value,
                    "threads": rng.randrange(1, 9)}  # testbox: 8 contexts
                   for _ in range(256)]
        params = dict(include_stats=False, seed=1, repetitions=15)

        def run(**overrides) -> float:
            """Queries answered per second by 256-query ``place_many``
            frames paced at 40,000 queries/s for a fixed 1.2 s; a frame
            that falls behind its slot goes out at once."""
            harness = daemon_factory(**overrides)
            answered = 0
            with harness.client() as client:
                client.place_many("testbox", queries, **params)  # warm-up
                start = time.perf_counter()
                while (elapsed := time.perf_counter() - start) < 1.2:
                    doc = client.place_many("testbox", queries, **params)
                    assert not [r for r in doc["results"] if "error" in r]
                    answered += doc["n_queries"]
                    time.sleep(max(0.0, start + answered / 40_000.0
                                   - time.perf_counter()))
            return answered / elapsed

        baseline = run()
        profiled = run(profile=True, profile_hz=100.0)
        assert profiled >= 0.70 * baseline, (
            f"profiled {profiled:.0f} qps vs baseline {baseline:.0f} qps"
        )
