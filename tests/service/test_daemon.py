"""End-to-end daemon tests over a real Unix socket.

The headline assertions of the service layer live here: concurrent
clients coalesce onto exactly one MCTOP-ALG run, timeouts and
backpressure surface as typed wire errors, and a single connection can
walk through all 12 Table-2 policies like the paper's OpenMP runtime.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.place.policies import ALL_POLICIES
from repro.service import MctopClient, inference_key
from repro.core.algorithm import LatencyTableConfig

REPS = 31  # matches the harness default_repetitions


class TestBasics:
    def test_ping(self, harness):
        with harness.client() as client:
            result = client.ping()
        assert result["pong"] is True
        assert "testbox" in result["machines"]

    def test_infer_cold_then_warm(self, harness):
        with harness.client() as client:
            cold = client.infer("testbox", seed=5)
            warm = client.infer("testbox", seed=5)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert cold["key"] == warm["key"]
        assert cold["key"] == inference_key(
            "testbox", 5, LatencyTableConfig(repetitions=REPS)
        )
        assert cold["n_contexts"] == 8

    def test_include_topology_roundtrips(self, harness):
        from repro.core.serialize import mctop_from_dict

        with harness.client() as client:
            result = client.infer("testbox", seed=5, include_topology=True)
        mctop = mctop_from_dict(result["topology"])
        assert mctop.n_contexts == result["n_contexts"]

    def test_show_and_validate(self, harness):
        with harness.client() as client:
            shown = client.show("testbox", seed=5)
            valid = client.validate("testbox", seed=5)
        assert "testbox" in shown["summary"]
        assert valid["all_match"] is True
        assert valid["cached"] is True  # same key as show's inference

    def test_place(self, harness):
        with harness.client() as client:
            result = client.place("testbox", policy="RR_CORE", threads=4)
        assert result["policy"] == "RR_CORE"
        assert len(result["ordering"]) == 4
        assert "MCTOP_PLACE_RR_CORE" in result["stats"]

    def test_metrics_exposes_instruments(self, harness):
        with harness.client() as client:
            client.infer("testbox", seed=5)
            client.infer("testbox", seed=5)
            metrics = client.metrics()
        reg = metrics["registry"]
        assert reg["service.inference.runs"]["value"] == 1
        assert reg["service.cache.hits.memory"]["value"] == 1
        assert reg["service.requests.infer"]["value"] == 2
        assert reg["service.latency.infer"]["count"] == 2
        assert metrics["cache"]["memory_entries"] == 1
        assert metrics["trace"]["finished_spans"] >= 1


class TestErrors:
    def test_unknown_verb(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.request("frobnicate")
        assert exc_info.value.code == "unknown_verb"

    def test_unknown_machine(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.infer("cray-1")
        assert exc_info.value.code == "invalid_params"

    def test_unknown_policy(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.place("testbox", policy="BOGUS")
        assert exc_info.value.code == "invalid_params"

    def test_too_many_threads_is_mctop_error(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.place("testbox", threads=10_000)
        assert exc_info.value.code == "mctop_error"

    def test_malformed_frame_keeps_connection_alive(self, harness):
        with harness.client() as client:
            conn = client._conn
            conn.sock.sendall(b"this is not json\n")
            line = conn.file.readline()
            assert b'"bad_request"' in line
            # The connection survives a bad frame.
            assert client.ping()["pong"] is True

    def test_timeout(self, daemon_factory):
        harness = daemon_factory(request_timeout=0.1)
        with harness.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.request("_sleep", seconds=5)
        assert exc_info.value.code == "timeout"
        # The daemon is still healthy afterwards.
        with harness.client() as client:
            assert client.ping()["pong"] is True

    def test_a_timed_out_infer_leaves_its_run_going(self, daemon_factory):
        """The request times out, but the single-flight run it started
        is shielded: it finishes and fills the cache, so the retry is a
        hit and MCTOP-ALG ran once."""
        harness = daemon_factory(request_timeout=0.05)
        with harness.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.infer("ivy", seed=4)
        assert exc_info.value.code == "timeout"
        assert str(exc_info.value) == "request exceeded 0.05s"
        registry = harness.daemon.obs.registry
        deadline = time.monotonic() + 30
        while registry.value("service.place.index_builds", 0) < 1:
            assert time.monotonic() < deadline, "the run never finished"
            time.sleep(0.02)
        with harness.client() as client:
            assert client.infer("ivy", seed=4)["cached"] is True
        assert registry.value("service.inference.runs") == 1

    def test_backpressure(self, daemon_factory):
        harness = daemon_factory(max_pending=1, request_timeout=10.0)
        registry = harness.daemon.obs.registry
        blocker = harness.client(timeout=10.0).connect()
        errors: list[Exception] = []

        def block() -> None:
            try:
                blocker.request("_sleep", seconds=1.5)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        release = threading.Thread(target=block)
        release.start()
        try:
            # Probe only once the _sleep holds the one slot (it is
            # counted at admission); a probe sent earlier could take the
            # slot and get the _sleep refused instead.
            deadline = time.monotonic() + 5
            while not registry.value("service.requests._sleep"):
                assert time.monotonic() < deadline, "the _sleep never arrived"
                time.sleep(0.01)
            saw_backpressure = False
            deadline = time.monotonic() + 1.4
            with harness.client() as client:
                while time.monotonic() < deadline and not saw_backpressure:
                    try:
                        client.ping()
                    except ServiceError as exc:
                        assert exc.code == "backpressure"
                        saw_backpressure = True
                    time.sleep(0.01)
            assert saw_backpressure, "queue-full never produced backpressure"
        finally:
            release.join(10)
            blocker.close()
        assert not release.is_alive()
        assert errors == []
        # Slot freed: requests are admitted again.
        with harness.client() as client:
            assert client.ping()["pong"] is True


class TestStoreWrite:
    def test_a_held_store_write_does_not_stall_the_loop(
            self, daemon_factory, held_store_write):
        """A cold infer writes its store file in a worker thread: while
        the write is held, a ping on a second connection is answered,
        and the file lands once the write goes on."""
        writing, release = held_store_write
        harness = daemon_factory()
        results: list[dict] = []
        errors: list[Exception] = []

        def cold_infer() -> None:
            try:
                with harness.client() as client:
                    results.append(client.infer("testbox", seed=6))
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        infer = threading.Thread(target=cold_infer)
        infer.start()
        try:
            assert writing.wait(30), "the store write never started"
            with harness.client(timeout=2.0) as client:
                assert client.ping()["pong"] is True
        finally:
            release.set()
            infer.join(30)
        assert not infer.is_alive()
        assert errors == []
        assert results[0]["cached"] is False
        store = Path(harness.config.store_dir)
        assert sorted(p.name for p in store.iterdir()) == \
            [f"{results[0]['key']}.mct.gz"]
        assert harness.daemon.obs.registry.value(
            "service.cache.disk_writes") == 1


class TestStoreLoad:
    def test_a_held_store_load_does_not_stall_the_loop(
            self, daemon_factory, held_store_load):
        """A store hit is loaded in a worker thread, once per digest:
        while the load is held, a ping on another connection is
        answered, and two infers of the stored digest share the one
        load and both answer cached: true."""
        loading, release, loads = held_store_load
        first = daemon_factory()
        with first.client() as client:
            key = client.infer("testbox", seed=6)["key"]
        first.stop()
        assert loads == []
        harness = daemon_factory()  # a restart on the same store
        results: list[dict] = []
        errors: list[Exception] = []

        def warm_infer() -> None:
            try:
                with harness.client() as client:
                    results.append(client.infer("testbox", seed=6))
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        infers = [threading.Thread(target=warm_infer) for _ in range(2)]
        infers[0].start()
        try:
            assert loading.wait(30), "the store load never started"
            with harness.client(timeout=2.0) as client:
                assert client.ping()["pong"] is True
            infers[1].start()
            registry = harness.daemon.obs.registry
            deadline = time.monotonic() + 10
            while registry.value("service.singleflight.coalesced", 0) < 1:
                assert time.monotonic() < deadline, "second infer not seen"
                time.sleep(0.01)
        finally:
            release.set()
            for infer in infers:
                if infer.ident is not None:  # started
                    infer.join(30)
        assert errors == []
        assert [r["cached"] for r in results] == [True, True]
        assert {r["key"] for r in results} == {key}
        assert len(loads) == 1
        assert registry.value("service.cache.hits.disk") == 2
        assert registry.value("service.cache.misses", 0) == 0
        assert registry.value("service.inference.runs", 0) == 0


class TestCoalescing:
    def test_concurrent_infers_trigger_exactly_one_run(self, harness):
        n_clients = 4
        barrier = threading.Barrier(n_clients)
        results: list[dict] = []
        errors: list[Exception] = []

        def worker() -> None:
            try:
                with harness.client() as client:
                    barrier.wait(timeout=5)
                    results.append(client.infer("ivy", seed=9))
            except Exception as exc:  # surface in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert len(results) == n_clients
        assert len({r["key"] for r in results}) == 1

        # Exactly one MCTOP-ALG run, observed three independent ways.
        obs = harness.daemon.obs
        assert len(obs.tracer.spans_named("service.infer_run")) == 1
        assert obs.registry.value("service.inference.runs") == 1
        assert obs.registry.value("service.singleflight.leaders") == 1
        coalesced = obs.registry.value(
            "service.singleflight.coalesced", 0
        )
        hits = obs.registry.value("service.cache.hits.memory", 0)
        # Every non-leader either coalesced onto the flight or (rarely,
        # if it arrived after completion) hit the cache.
        assert coalesced + hits == n_clients - 1


class TestPoolSession:
    def test_switching_all_twelve_policies(self, harness):
        with harness.client() as client:
            seen: dict[str, tuple] = {}
            for policy in ALL_POLICIES:
                result = client.pool_switch(
                    "testbox", policy=policy.value, threads=4
                )
                assert result["policy"] == policy.value
                seen[policy.value] = tuple(result["ordering"])
            assert len(seen) == len(ALL_POLICIES) == 12
            # The session pool cached each configuration exactly once.
            final = client.pool_switch(
                "testbox", policy="CON_HWC", threads=4
            )
            assert final["pool_len"] == 12
            assert final["policies_cached"] == sorted(
                p.value for p in ALL_POLICIES
            )
        metrics_registry = harness.daemon.obs.registry
        assert metrics_registry.value("service.pool.switches") == 13

    def test_sessions_are_per_connection(self, harness):
        with harness.client() as a, harness.client() as b:
            ra = a.pool_switch("testbox", policy="RR_CORE", threads=4)
            rb = b.pool_switch("testbox", policy="CON_HWC", threads=2)
            # b's pool never saw a's configuration.
            assert ra["pool_len"] == 1
            assert rb["pool_len"] == 1
            assert rb["policies_cached"] == ["CON_HWC"]

    def test_switches_answer_from_the_index(self, harness):
        """A switch answers what ``place`` answers for the same query,
        through the topology's index, and moves none of ``place``'s
        index counters."""
        with harness.client() as client:
            placed = client.place("testbox", policy="BALANCE_CORE",
                                  threads=5, sockets=2)
            registry = harness.daemon.obs.registry
            before = {name: registry.value(name, 0) for name in (
                "service.place.index_hits", "service.place.index_misses",
                "service.place.index_builds")}
            switched = client.pool_switch("testbox", policy="BALANCE_CORE",
                                          threads=5, sockets=2)
            with pytest.raises(ServiceError) as refusal:
                client.pool_switch("testbox", policy="RR_CORE", threads=9)
        assert switched["ordering"] == placed["ordering"]
        assert switched["n_threads"] == placed["n_threads"] == 5
        assert refusal.value.code == "mctop_error"
        assert str(refusal.value) == \
            "policy RR_CORE offers 8 contexts, 9 threads requested"
        assert {name: registry.value(name, 0) for name in before} == before

    def test_a_session_keeps_its_sixteen_most_recently_used_switches(
            self, harness):
        def switch(policy: str, threads: int) -> dict:
            return client.pool_switch("testbox", policy=policy,
                                      threads=threads)

        with harness.client() as client:
            lens = [switch(policy, t)["pool_len"]
                    for policy in ("CON_HWC", "RR_CORE")
                    for t in range(1, 9)]
            assert lens == list(range(1, 17))
            for t in range(1, 9):  # CON_HWC is now the most recent
                assert switch("CON_HWC", t)["pool_len"] == 16
            for t in range(1, 9):  # evicts the least recently used
                last = switch("NONE", t)
                assert last["pool_len"] == 16
            assert last["policies_cached"] == ["CON_HWC", "NONE"]
            back = switch("RR_CORE", 1)
        assert back["pool_len"] == 16
        assert back["policies_cached"] == ["CON_HWC", "NONE", "RR_CORE"]

    def test_a_switch_on_a_store_hit_builds_the_index_once(
            self, daemon_factory):
        """A switch answers from the index like ``place``: on a
        topology loaded from the store it builds the index, once."""
        first = daemon_factory()
        with first.client() as client:
            client.infer("testbox", seed=8)
        first.stop()
        harness = daemon_factory()  # a restart on the same store
        with harness.client() as client:
            lens = [client.pool_switch("testbox", policy="RR_CORE",
                                       threads=4, seed=8)["pool_len"]
                    for _ in range(2)]
        registry = harness.daemon.obs.registry
        assert lens == [1, 1]
        assert registry.value("service.cache.hits.disk") == 1
        assert registry.value("service.place.index_builds") == 1

    def test_a_switch_keeps_no_topology_alive(self, daemon_factory):
        """A session holds configuration keys only: once the memory
        cache evicts a switched topology, nothing of it stays live for
        as long as the connection stays open."""
        harness = daemon_factory(max_memory_entries=1)
        cache = harness.daemon.cache
        with harness.client() as client:
            key = client.pool_switch("testbox", policy="RR_CORE",
                                     threads=4, seed=11)["key"]
            switched = weakref.ref(cache.get_memory(key, record=False))
            for seed in (12, 13):
                client.infer("testbox", seed=seed)
            assert key not in cache
            gc.collect()
            assert switched() is None
            # The session still answers, from a fresh load of the store.
            again = client.pool_switch("testbox", policy="RR_CORE",
                                       threads=4, seed=11)
        assert again["pool_len"] == 1 and again["cached"] is True


class TestTcp:
    def test_tcp_listener_next_to_unix(self, daemon_factory):
        harness = daemon_factory(host="127.0.0.1", port=0)
        port = harness.daemon.tcp_port
        assert port is not None
        with MctopClient(host="127.0.0.1", port=port) as tcp_client:
            assert tcp_client.ping()["pong"] is True
            result = tcp_client.infer("unisock", repetitions=9)
        # Both listeners share one cache.
        with harness.client() as unix_client:
            assert unix_client.infer("unisock", repetitions=9)["cached"]
            assert (
                unix_client.infer("unisock", repetitions=9)["key"]
                == result["key"]
            )


class TestShutdown:
    def test_graceful_drain_rejects_new_work(self, daemon_factory):
        harness = daemon_factory()
        with harness.client() as client:
            assert client.ping()["pong"] is True
            harness.loop.call_soon_threadsafe(
                harness.daemon.request_shutdown
            )
            # The open connection is closed (or answers shutting_down),
            # and the daemon thread exits cleanly.
            try:
                client.ping()
            except ServiceError as exc:
                assert exc.code in ("shutting_down", "internal",
                                    "unavailable")
        harness._thread.join(10)
        assert not harness._thread.is_alive()
