"""Tests for the mctopd drift watcher (repro.service.drift).

The simulated machines are deterministic: the same ``(machine, seed,
table)`` always infers the same topology, so a watcher check against an
untouched baseline is ``ok`` by construction, and injecting drift means
tampering with the stored baseline — exactly how a real machine would
present after a DVFS/BIOS change (the stored description no longer
matches what re-measurement finds).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.algorithm import (
    InferenceConfig,
    LatencyTableConfig,
    infer_topology,
)
from repro.core.serialize import mctop_from_dict, mctop_to_dict, save_mctop
from repro.errors import ServiceError
from repro.hardware import get_machine
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.service import DriftWatcher, InferenceCache, inference_key
from repro.service.context import current_request_id
from repro.service.drift import MachineDriftState

WATCH_TABLE = LatencyTableConfig(repetitions=15)


def quick_infer(machine: str, seed: int = 0, table=WATCH_TABLE):
    return infer_topology(get_machine(machine), seed=seed,
                          config=InferenceConfig(table=table))


def perturb_cross_level(mctop, factor: float = 2.0):
    """The same topology with its cross-socket latency scaled."""
    doc = mctop_to_dict(mctop)
    doc["levels"][-1]["latency"] = round(
        doc["levels"][-1]["latency"] * factor
    )
    return mctop_from_dict(doc)


def seed_perturbed_baseline(store_dir, machine: str = "testbox",
                            seed: int = 0, table=WATCH_TABLE) -> str:
    """Plant a drifted baseline in a daemon store; returns its key."""
    key = inference_key(machine, seed, table)
    drifted = perturb_cross_level(quick_infer(machine, seed, table))
    store_dir.mkdir(parents=True, exist_ok=True)
    save_mctop(drifted, store_dir / f"{key}.mct.gz")
    return key


def make_watcher(tmp_path, machines=("testbox",), events=None,
                 table=WATCH_TABLE, **kwargs) -> DriftWatcher:
    obs = Observability()
    cache = InferenceCache(store_dir=tmp_path / "store", obs=obs)
    return DriftWatcher(cache, obs, machines=tuple(machines),
                        interval=kwargs.pop("interval", 60.0),
                        table=table, events=events, **kwargs)


class TestWatcherUnit:
    def test_first_check_primes_the_baseline(self, tmp_path):
        watcher = make_watcher(tmp_path)
        report = asyncio.run(watcher.check_one("testbox"))
        assert report.ok
        state = watcher.states["testbox"]
        assert state.severity == "ok"
        assert state.checks == 1
        assert watcher.cache.get(state.key) is not None
        assert watcher.worst_severity == "ok"
        assert not watcher.degraded

    def test_first_baseline_is_written_off_the_loop(
            self, tmp_path, held_store_write):
        """The first check's store write runs in a worker thread: a
        task on the same loop still runs while the write is held."""
        writing, release = held_store_write
        watcher = make_watcher(tmp_path)

        async def scenario() -> bool:
            check = asyncio.create_task(watcher.check_one("testbox"))
            while not writing.is_set():
                await asyncio.sleep(0.005)
            ran_during_write = not release.is_set()
            release.set()
            await check
            return ran_during_write

        # A write held on the loop would block the loop until this.
        unblock = threading.Timer(3.0, release.set)
        unblock.start()
        try:
            assert asyncio.run(scenario())
        finally:
            unblock.cancel()
        key = watcher.states["testbox"].key
        assert (tmp_path / "store" / f"{key}.mct.gz").is_file()

    def test_second_check_against_untouched_baseline_is_ok(self, tmp_path):
        watcher = make_watcher(tmp_path)

        async def two_checks():
            await watcher.check_one("testbox")
            return await watcher.check_one("testbox")

        report = asyncio.run(two_checks())
        assert report.ok
        assert watcher.states["testbox"].checks == 2

    def test_tampered_baseline_is_critical_and_counted(self, tmp_path):
        key = seed_perturbed_baseline(tmp_path / "store")
        events = EventLog(tmp_path / "events.ndjson",
                          request_id_provider=current_request_id.get)
        watcher = make_watcher(tmp_path, events=events)
        assert watcher.states["testbox"].key == key

        report = asyncio.run(watcher.check_one("testbox"))
        assert report.severity == "critical"
        assert any("cross" in f.subject for f in report.findings)
        assert watcher.degraded
        assert watcher.worst_severity == "critical"

        reg = watcher.obs.registry
        assert reg.value("service.drift.checks", 0) == 1
        assert reg.value("service.drift.transitions", 0) == 1
        assert reg.value("service.drift.severity.testbox", 0) == 2
        assert reg.value("service.drift.last_check_ts.testbox", 0) > 0

        events.close()
        lines = [json.loads(l) for l in
                 (tmp_path / "events.ndjson").read_text().splitlines()]
        kinds = [l["kind"] for l in lines]
        assert "drift.check" in kinds
        assert "drift.transition" in kinds
        check = next(l for l in lines if l["kind"] == "drift.check")
        assert check["machine"] == "testbox"
        assert check["severity"] == "critical"
        assert check["request_id"]  # watcher stamps its own id

    def test_check_all_survives_a_broken_machine(self, tmp_path):
        watcher = make_watcher(tmp_path, machines=("testbox", "unisock"))
        # Sabotage one entry so its check raises (unknown machine).
        watcher.states["no-such-machine"] = MachineDriftState(
            "no-such-machine", watcher.states.pop("testbox").key
        )
        asyncio.run(watcher.check_all())
        assert watcher.states["unisock"].checks == 1
        assert watcher.obs.registry.value("service.drift.errors", 0) == 1

    def test_status_doc_shape_and_unwatched_machine(self, tmp_path):
        watcher = make_watcher(tmp_path)
        asyncio.run(watcher.check_one("testbox"))
        doc = watcher.status_doc()
        assert doc["enabled"] is True
        assert doc["worst_severity"] == "ok"
        state = doc["machines"]["testbox"]
        assert state["severity"] == "ok"
        assert state["checks"] == 1
        assert state["age_seconds"] >= 0
        assert state["report"]["format"] == "mctop-drift-report"
        assert json.loads(json.dumps(doc)) == doc
        with pytest.raises(ServiceError):
            watcher.status_doc("ivy")

    def test_rejects_unknown_machines_and_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            make_watcher(tmp_path, machines=("nope",))
        with pytest.raises(ValueError):
            make_watcher(tmp_path, machines=())
        with pytest.raises(ValueError):
            make_watcher(tmp_path, interval=0)

    def test_jobs_invariance_of_the_drift_summary(self, tmp_path):
        """jobs is an execution knob: same key, same report, same
        counters whether the watcher measures with 1 or 2 workers
        (same sampling scheme — 'auto' resolves by jobs, so pin it)."""
        pair1 = LatencyTableConfig(repetitions=15, jobs=1,
                                   sampling="pair")
        pair2 = LatencyTableConfig(repetitions=15, jobs=2,
                                   sampling="pair")
        seed_perturbed_baseline(tmp_path / "store", table=pair1)
        w1 = make_watcher(tmp_path, table=pair1)
        w2 = make_watcher(tmp_path, table=pair2)
        assert w1.states["testbox"].key == w2.states["testbox"].key
        r1 = asyncio.run(w1.check_one("testbox"))
        r2 = asyncio.run(w2.check_one("testbox"))
        assert r1.to_dict() == r2.to_dict()
        for name in ("service.drift.checks", "service.drift.transitions",
                     "service.drift.severity.testbox"):
            assert w1.obs.registry.value(name, 0) == \
                w2.obs.registry.value(name, 0)


def wait_for_checks(client, machines, timeout=30.0) -> dict:
    """Poll the drift verb until every machine has been checked once."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.drift()
        states = doc.get("machines", {})
        if all(states.get(m, {}).get("checks", 0) >= 1 for m in machines):
            return doc
        time.sleep(0.1)
    raise AssertionError(f"watcher never checked {machines}: {doc}")


class TestDaemonDrift:
    def test_drift_verb_disabled_without_watcher(self, harness):
        with harness.client() as client:
            doc = client.drift()
        assert doc == {"protocol": doc["protocol"], "enabled": False}

    def test_watcher_surfaces_critical_drift_end_to_end(
        self, daemon_factory, tmp_path
    ):
        """The acceptance path: a drifted baseline must show up in the
        drift verb, /metrics and /healthz within one watch interval."""
        seed_perturbed_baseline(tmp_path / "store")
        harness = daemon_factory(
            watch_interval=600.0,  # first sweep runs at startup
            watch_machines=("testbox", "unisock"),
            metrics_port=0,
            event_log=str(tmp_path / "events.ndjson"),
        )
        with harness.client() as client:
            doc = wait_for_checks(client, ["testbox", "unisock"])
            assert doc["enabled"] is True
            assert doc["worst_severity"] == "critical"
            assert doc["degraded"] is True
            testbox = doc["machines"]["testbox"]
            assert testbox["severity"] == "critical"
            findings = testbox["report"]["findings"]
            assert any("cross" in f["subject"] for f in findings)
            # The untampered machine stays healthy.
            assert doc["machines"]["unisock"]["severity"] == "ok"

            narrowed = client.drift("unisock")
            assert list(narrowed["machines"]) == ["unisock"]
            with pytest.raises(ServiceError) as excinfo:
                client.drift("ivy")
            assert excinfo.value.code == "invalid_params"

        port = harness.daemon.bound_metrics_port
        text = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ).read().decode()
        assert "mctop_service_drift_checks_total" in text
        assert "mctop_service_drift_severity_testbox 2" in text
        assert "mctop_service_drift_severity_unisock 0" in text

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            )
        assert excinfo.value.code == 503
        assert excinfo.value.read() == b"degraded\n"

        harness.stop()
        lines = [json.loads(l) for l in
                 (tmp_path / "events.ndjson").read_text().splitlines()]
        kinds = [l["kind"] for l in lines]
        assert "drift.check" in kinds
        assert "drift.baseline" in kinds      # unisock was primed
        assert kinds[-1] == "service.drained"

    def test_healthy_watcher_keeps_healthz_ok(self, daemon_factory):
        harness = daemon_factory(
            watch_interval=600.0,
            watch_machines=("testbox",),
            metrics_port=0,
        )
        with harness.client() as client:
            doc = wait_for_checks(client, ["testbox"])
        assert doc["worst_severity"] == "ok"
        port = harness.daemon.bound_metrics_port
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=10
        ) as response:
            assert response.status == 200
            assert response.read() == b"ok\n"

    def test_periodic_rechecks_accumulate(self, daemon_factory):
        harness = daemon_factory(
            watch_interval=0.2,
            watch_machines=("testbox",),
        )
        with harness.client() as client:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                doc = client.drift()
                if doc["machines"]["testbox"]["checks"] >= 2:
                    break
                time.sleep(0.1)
            assert doc["machines"]["testbox"]["checks"] >= 2
            assert doc["machines"]["testbox"]["severity"] == "ok"


class TestDriftQueryCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_query_drift_json_parses(self, capsys, daemon_factory):
        harness = daemon_factory(
            watch_interval=600.0, watch_machines=("testbox",)
        )
        with harness.client() as client:
            wait_for_checks(client, ["testbox"])
        code, out = self.run(
            capsys, "query", "drift",
            "--unix", str(harness.config.unix_path), "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["machines"]["testbox"]["severity"] == "ok"

    def test_query_drift_human_text(self, capsys, daemon_factory):
        harness = daemon_factory(
            watch_interval=600.0, watch_machines=("testbox",)
        )
        with harness.client() as client:
            wait_for_checks(client, ["testbox"])
        code, out = self.run(
            capsys, "query", "drift",
            "--unix", str(harness.config.unix_path),
        )
        assert code == 0
        assert "drift watcher: worst=ok" in out
        assert "testbox" in out

    def test_query_drift_against_watcherless_daemon(self, capsys, harness):
        code, out = self.run(
            capsys, "query", "drift",
            "--unix", str(harness.config.unix_path),
        )
        assert code == 0
        assert "disabled" in out

    def test_serve_rejects_interval_without_machines(self, capsys):
        code = main(["serve", "--unix", "/tmp/x.sock",
                     "--watch-interval", "1"])
        assert code == 2
        assert "--watch-machines" in capsys.readouterr().err
