"""End-to-end fleet tests: router + 3 member daemons on Unix sockets.

The acceptance bar lives here: N concurrent ``infer`` for one digest
through the router run MCTOP-ALG exactly once *fleet-wide* and return
byte-identical topologies; killing the owning member mid-test
re-routes without a client-visible error and ejects it from the ring.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.fleet.members import MemberConnection, MemberSpec
from repro.service import MAX_LINE_BYTES, MctopClient, inference_key
from repro.service.handlers import parse_inference_params


def read_ndjson(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def events_of_kind(path, kind: str) -> list[dict]:
    return [e for e in read_ndjson(path) if e.get("kind") == kind]


def wait_for_line(path, predicate, timeout: float = 5.0) -> dict | None:
    """The first access-log line matching ``predicate``, polling until
    it lands on disk or ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while True:
        if os.path.exists(path):
            for line in read_ndjson(path):
                if predicate(line):
                    return line
        if time.monotonic() > deadline:
            return None
        time.sleep(0.02)


def router_key(harness, machine: str, **params) -> str:
    """The digest the router shards this request by."""
    m, seed, table = parse_inference_params(
        dict(params, machine=machine),
        default_repetitions=harness.router_config.default_repetitions,
    )
    return inference_key(m, seed, table)


class TestBasics:
    def test_ping_is_answered_by_the_router(self, fleet):
        with fleet.client() as client:
            pong = client.ping()
        assert pong["role"] == "router"
        assert pong["in_ring"] == 3

    def test_fleet_verb_reports_membership(self, fleet):
        with fleet.client() as client:
            doc = client.request("fleet")
        assert doc["in_ring"] == 3
        assert doc["total"] == 3
        assert sorted(doc["members"]) == ["m0", "m1", "m2"]
        assert all(m["status"] == "healthy"
                   for m in doc["members"].values())
        assert doc["ring"]["members"] == ["m0", "m1", "m2"]

    def test_initial_joins_emitted_exactly_once(self, fleet):
        joins = events_of_kind(fleet.router_config.event_log,
                               "fleet.member_join")
        assert sorted(j["member"] for j in joins) == ["m0", "m1", "m2"]
        rebalances = events_of_kind(fleet.router_config.event_log,
                                    "fleet.rebalance")
        assert len(rebalances) == 3

    def test_unknown_verb_is_forwarded_and_answered_by_a_member(
            self, fleet):
        with fleet.client() as client:
            with pytest.raises(ServiceError) as exc:
                client.request("bogus")
        assert exc.value.code == "unknown_verb"

    def test_unknown_verbs_do_not_grow_the_router_registry(self, fleet):
        registry = fleet.router.obs.registry

        def send(prefix: str, count: int) -> None:
            with fleet.client() as client:
                for i in range(count):
                    with pytest.raises(ServiceError) as exc:
                        client.request(f"{prefix}-{i}")
                    assert exc.value.code == "unknown_verb"

        send("warmup", 6)  # round-robin: every member answers twice
        before = len(registry)
        send("bogus", 60)
        assert len(registry) == before

    def test_responses_carry_upstream_and_router_request_id(self, fleet):
        with fleet.client() as client:
            client.infer("testbox", seed=3)
            upstream = client.last_upstream
            rid = client.last_request_id
        assert upstream["member"] in ("m0", "m1", "m2")
        assert upstream["ms"] >= 0
        assert upstream["request_id"] != rid  # member's own id differs


class TestRouting:
    def test_same_digest_always_lands_on_the_ring_owner(self, fleet):
        with fleet.client() as client:
            members = set()
            for _ in range(4):
                client.infer("testbox", seed=21)
                members.add(client.last_upstream["member"])
        assert len(members) == 1
        key = router_key(fleet, "testbox", seed=21)
        assert members == {fleet.router.health.ring.owner(key)}

    def test_warm_hits_are_served_from_the_owners_cache(self, fleet):
        with fleet.client() as client:
            cold = client.infer("testbox", seed=22)
            warm = client.infer("testbox", seed=22)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["key"] == cold["key"]

    def test_single_flight_holds_fleet_wide(self, fleet):
        """6 concurrent clients, one digest => one MCTOP-ALG run and
        byte-identical topologies."""
        results, errors = [], []

        def worker():
            try:
                with fleet.client() as client:
                    results.append(client.infer(
                        "testbox", seed=42, include_topology=True
                    ))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        assert len(results) == 6
        payloads = {
            json.dumps(r["topology"], sort_keys=True,
                       separators=(",", ":"))
            for r in results
        }
        assert len(payloads) == 1, "divergent topology payloads"
        assert len({r["key"] for r in results}) == 1
        with fleet.client() as client:
            merged = client.metrics()
        assert merged["registry"]["service.inference.runs"]["value"] == 1

    def test_pool_switch_keeps_its_session_through_the_router(self, fleet):
        with fleet.client() as client:
            first = client.pool_switch("testbox", policy="RR_CORE", seed=5)
            second = client.pool_switch("testbox", policy="CON_HWC", seed=5)
        assert first["pool_len"] == 1
        assert second["pool_len"] == 2
        assert set(second["policies_cached"]) == {"RR_CORE", "CON_HWC"}


class TestFailover:
    def test_killing_the_owner_reroutes_without_client_error(self, fleet):
        key = router_key(fleet, "testbox", seed=11)
        owner = fleet.router.health.ring.owner(key)
        with fleet.client() as client:
            cold = client.infer("testbox", seed=11,
                                include_topology=True)
            assert client.last_upstream["member"] == owner
            fleet.stop_member(owner)
            # Same client connection: the router's pooled upstream to
            # the dead member fails, it fails over, the client sees ok.
            again = client.infer("testbox", seed=11,
                                 include_topology=True)
            survivor = client.last_upstream["member"]
            eject_rid = client.last_request_id
        assert survivor != owner
        assert again["key"] == cold["key"]
        assert json.dumps(again["topology"], sort_keys=True) == \
            json.dumps(cold["topology"], sort_keys=True)
        # fail_threshold=1: the failed forward ejected the owner ...
        doc_members = fleet.router.health.status_doc()["members"]
        assert doc_members[owner]["status"] == "ejected"
        # ... exactly once, correlated with the re-routed request.
        ejects = events_of_kind(fleet.router_config.event_log,
                                "fleet.member_eject")
        assert len(ejects) == 1
        assert ejects[0]["member"] == owner
        assert ejects[0]["request_id"] == eject_rid
        rebalance = events_of_kind(fleet.router_config.event_log,
                                   "fleet.rebalance")[-1]
        assert owner in rebalance["previous_members"]
        assert owner not in rebalance["members"]

    def test_a_stalled_owner_times_out_and_fails_over(self, fleet_factory):
        """The owner answers health probes but takes a ``place`` frame
        and never answers it: once ``request_timeout`` passes, the
        router fails over to the next ring candidate and counts one
        failover."""
        fleet = fleet_factory(n_members=2,
                              router_overrides={"request_timeout": 0.5})
        key = router_key(fleet, "testbox", seed=13)
        owner, successor = fleet.router.health.ring.preference(key)[:2]
        with fleet.member_client(successor) as member:
            member.infer("testbox", seed=13)  # a warm answer to fail over to
        release = asyncio.Event()

        async def stall(params, session):
            await release.wait()
            return {}

        fleet.daemons[owner].handlers.place = stall
        try:
            with fleet.client() as client:
                started = time.monotonic()
                doc = client.place("testbox", "RR_CORE", threads=2, seed=13)
                elapsed = time.monotonic() - started
                assert client.last_upstream["member"] == successor
            assert doc["index"] is True and len(doc["ordering"]) == 2
            assert elapsed >= 0.5
            registry = fleet.router.obs.registry
            assert registry.value("fleet.forward.failovers") == 1
            # The stalled member is alive: it still answers probes.
            with fleet.member_client(owner) as member:
                assert member.ping()["pong"] is True
        finally:
            fleet.loop.call_soon_threadsafe(release.set)

    def test_all_members_down_yields_unavailable(self, fleet_factory):
        fleet = fleet_factory(n_members=2)
        for member in ("m0", "m1"):
            fleet.stop_member(member)
        with fleet.client() as client:
            with pytest.raises(ServiceError) as exc:
                client.infer("testbox", seed=1)
        assert exc.value.code == "unavailable"
        # The router itself stays up and keeps answering ping/fleet.
        with fleet.client() as client:
            assert client.ping()["pong"] is True
            assert client.request("fleet")["in_ring"] == 0


class TestAggregation:
    def test_metrics_merge_across_members(self, fleet):
        with fleet.client() as client:
            for seed in (1, 2, 3, 4):
                client.infer("testbox", seed=seed)
            merged = client.metrics()
        registry = merged["registry"]
        assert registry["service.requests.infer"]["value"] == 4
        assert registry["service.inference.runs"]["value"] == 4
        assert merged["fleet"]["responding"] == ["m0", "m1", "m2"]
        assert merged["cache"]["memory_entries"] == 4
        assert len(merged["cache"]["store_dir"]) == 3
        assert merged["trace"]["finished_spans"] > 0

    def test_metrics_prometheus_format_rejected(self, fleet):
        with fleet.client() as client:
            with pytest.raises(ServiceError) as exc:
                client.metrics(format="prometheus")
        assert exc.value.code == "invalid_params"

    def test_drift_merges_watcherless_members(self, fleet):
        with fleet.client() as client:
            doc = client.drift()
        assert doc["enabled"] is False
        assert sorted(doc["members"]) == ["m0", "m1", "m2"]


class TestAccessLog:
    def test_proxied_lines_carry_member_and_upstream_ms(self, fleet):
        with fleet.client() as client:
            client.infer("testbox", seed=31)
            infer_rid = client.last_request_id
            member = client.last_upstream["member"]
            client.ping()
            ping_rid = client.last_request_id
        # The router writes each line before it writes the response,
        # but the log is read from another thread while the fleet runs,
        # so give the last line a moment to land on disk.
        deadline = time.monotonic() + 5
        while True:
            lines = {e["request_id"]: e
                     for e in read_ndjson(fleet.router_config.access_log)}
            if ping_rid in lines or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        infer_line = lines[infer_rid]
        assert infer_line["member"] == member
        assert infer_line["upstream_ms"] > 0
        # The route's time includes the member's round-trip.
        assert infer_line["handler_ms"] >= infer_line["upstream_ms"]
        assert infer_line["decode_ms"] >= 0 and infer_line["encode_ms"] >= 0
        assert infer_line["cache"] == "miss"
        # Locally answered verbs have the fields present but null.
        ping_line = lines[ping_rid]
        assert ping_line["member"] is None
        assert ping_line["upstream_ms"] is None

    def test_member_tags_root_span_with_parent_request_id(self, fleet):
        """Request-id stitching: the member's root span carries the
        router's request id."""
        with fleet.client() as client:
            client.infer("testbox", seed=33)
            router_rid = client.last_request_id
            member = client.last_upstream["member"]
        daemon = fleet.daemons[member]
        spans = [
            s for s in daemon.obs.tracer.spans_named("service.request")
            if s.args.get("parent_request_id") == router_rid
        ]
        assert len(spans) == 1

    def test_client_that_hangs_up_still_gets_its_line(self, fleet):
        """The line is written before the answer, so a client gone by
        then cannot lose it."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(fleet.router_config.unix_path)
            sock.sendall(b'{"verb": "_sleep", "params": {"seconds": 0.2}}\n')
        line = wait_for_line(fleet.router_config.access_log,
                             lambda e: e["verb"] == "_sleep")
        assert line is not None, "no access-log line for the _sleep"
        assert line["outcome"] == "ok"
        assert line["member"] in ("m0", "m1", "m2")


class TestMemberTimers:
    def test_a_forwarded_warm_place_arms_only_the_routers_read(
            self, fleet, timeout_timers):
        """Through the router, the member's route and the router's
        drain finish without suspending; only waiting for the member's
        answer needs a timer."""
        # The health loop sweeps once as it starts, then every 30 s;
        # its probes arm timers of their own, so measure after it.
        registry = fleet.router.obs.registry
        deadline = time.monotonic() + 10
        while registry.value("fleet.health.sweeps", 0) < 2:
            assert time.monotonic() < deadline, "no second health sweep"
            time.sleep(0.01)
        with fleet.client() as client:
            client.request("place", machine="testbox", seed=5,
                           policy="RR_CORE", threads=4)
            with timeout_timers(fleet.loop) as timers:
                for threads in range(1, 9):
                    client.request("place", machine="testbox", seed=5,
                                   policy="RR_CORE", threads=threads)
        assert timers.count == 8

    def test_a_mute_member_read_still_times_out(self, tmp_path):
        """A member that accepts and never answers: the read times out
        with ``TimeoutError``, which is what the router fails over on."""
        async def main():
            path = str(tmp_path / "mute.sock")
            accepted = []
            server = await asyncio.start_unix_server(
                lambda reader, writer: accepted.append(writer), path=path
            )
            conn = MemberConnection(MemberSpec(id="mute", unix_path=path))
            try:
                with pytest.raises(TimeoutError):
                    await conn.request("ping", {}, 0.05)
            finally:
                await conn.close()
                for writer in accepted:
                    writer.close()
                    await writer.wait_closed()
                server.close()
                await server.wait_closed()

        asyncio.run(main())


class TestRobustness:
    def test_oversized_frame_is_rejected_logged_and_dropped(self, fleet):
        frame = (b'{"verb": "ping", "pad": "' + b"x" * MAX_LINE_BYTES
                 + b'"}\n')

        def flood(sock) -> None:
            try:
                sock.sendall(frame)
            except OSError:
                pass  # the router drops the connection mid-frame

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(fleet.router_config.unix_path)
            sender = threading.Thread(target=flood, args=(sock,))
            sender.start()
            with sock.makefile("rb") as reader:
                doc = json.loads(reader.readline())
                try:
                    tail = reader.readline()
                except ConnectionResetError:
                    tail = b""
            sender.join(30)
        assert not sender.is_alive()
        assert doc["ok"] is False
        assert doc["error"]["code"] == "bad_request"
        assert tail == b"", "the connection must drop after the reject"
        line = wait_for_line(fleet.router_config.access_log,
                             lambda e: e["request_id"] == doc["request_id"])
        assert line is not None
        assert line["outcome"] == "bad_request"
        assert line["verb"] is None

    @staticmethod
    def server(kind: str, daemon_factory, fleet_factory, tmp_path):
        """``(unix path, access log, registry, metric prefix)`` of a
        daemon, or of a router in front of two members."""
        if kind == "daemon":
            daemon = daemon_factory(
                access_log=str(tmp_path / "daemon-access.ndjson")
            )
            return (daemon.config.unix_path, daemon.config.access_log,
                    daemon.daemon.obs.registry, "service")
        fleet = fleet_factory(n_members=2)
        return (fleet.router_config.unix_path,
                fleet.router_config.access_log, fleet.router.obs.registry,
                "fleet")

    #: One frame each, and what it is refused with.  Before they were
    #: refused, frames 1, 2 and 10 hung in the daemon's retry loop,
    #: frames 3, 4 and 9 answered ``internal``, and frame 13's answer
    #: echoed ``"id":NaN``.
    REFUSED = (
        (b'{"verb":"infer","id":1,"params":{"machine":"testbox",'
         b'"table":{"stdev_threshold":0,"stdev_floor":0}}}', "invalid_params"),
        (b'{"verb":"infer","id":2,"params":{"machine":"testbox",'
         b'"table":{"stdev_threshold":-0.07,"stdev_floor":0}}}',
         "invalid_params"),
        (b'{"verb":"place","id":3,"params":{"machine":"testbox","seed":-1}}',
         "invalid_params"),
        (b'{"verb":"infer","id":4,"params":{"machine":"testbox",'
         b'"repetitions":99999999999999999999}}', "invalid_params"),
        (b'{"verb":"show","id":5,"params":{"machine":"testbox",'
         b'"table":{"max_stdev_threshold":0.01}}}', "invalid_params"),
        (b'{"verb":"infer","id":6,"params":{"machine":"testbox",'
         b'"table":{"stdev_floor":"3"}}}', "invalid_params"),
        (b'{"verb":"infer","id":7,"params":{"machine":"testbox",'
         b'"table":{"max_discard_fraction":2}}}', "invalid_params"),
        (b'{"verb":"infer","id":8,"params":{"machine":"testbox",'
         b'"table":{"spurious_deviation":0}}}', "invalid_params"),
        (b'{"verb":"infer","id":9,"params":{"machine":"testbox",'
         b'"table":{"warmup_loop_iters":"x"}}}', "invalid_params"),
        (b'{"verb":"infer","id":10,"params":{"machine":"testbox",'
         b'"table":{"stdev_threshold":NaN}}}', "bad_request"),
        (b'{"verb":"infer","id":11,"params":{"machine":"testbox",'
         b'"table":{"stdev_floor":1e999}}}', "bad_request"),
        (b'{"verb":"place","id":12,"params":{"machine":"testbox",'
         b'"seed":-Infinity}}', "bad_request"),
        (b'{"verb":"ping","id":NaN}', "bad_request"),
    )

    @pytest.mark.parametrize("kind", ["daemon", "router"])
    def test_frames_that_hung_or_failed_are_refused(
            self, kind, daemon_factory, fleet_factory, tmp_path):
        """Each gets one strict-JSON answer with its refusal code, and
        the connection goes on."""
        def strict(line: bytes) -> dict:
            def refuse(name):
                raise AssertionError(f"{name} in an answer")
            return json.loads(line, parse_constant=refuse)

        path = self.server(kind, daemon_factory, fleet_factory, tmp_path)[0]
        frames = [line for line, _ in self.REFUSED]
        frames.append(b'{"verb":"ping","id":"last"}')
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(path)
            sock.sendall(b"\n".join(frames) + b"\n")
            with sock.makefile("rb") as reader:
                docs = [strict(reader.readline()) for _ in frames]
        assert [doc.get("error", {}).get("code") for doc in docs[:-1]] \
            == [code for _, code in self.REFUSED]
        decoded = [doc["id"] for doc in docs[:-1]
                   if doc["error"]["code"] == "invalid_params"]
        assert decoded == list(range(1, 10))
        assert all(doc["request_id"] for doc in docs)
        assert docs[-1]["ok"] is True and docs[-1]["id"] == "last"

    @pytest.mark.parametrize("kind", ["daemon", "router"])
    def test_an_explicit_null_seed_is_invalid_params(
            self, kind, daemon_factory, fleet_factory, tmp_path):
        path = self.server(kind, daemon_factory, fleet_factory, tmp_path)[0]
        with MctopClient(unix_path=path, timeout=60.0) as client:
            with pytest.raises(ServiceError) as refusal:
                client.request("place", machine="testbox", seed=None)
            # A missing seed still means 0.
            placed = client.request("place", machine="testbox",
                                    policy="RR_CORE", threads=2)
        assert refusal.value.code == "invalid_params"
        assert str(refusal.value) == "'seed' must be an integer, got None"
        assert placed["n_threads"] == 2

    @pytest.mark.parametrize("kind", ["daemon", "router"])
    def test_nested_and_long_frames_each_get_one_answer(
            self, kind, daemon_factory, fleet_factory, tmp_path):
        """Frames nested up to and past what the JSON decoder takes, in
        an ignored param, in a validated one and in ``id``, then
        integers longer than it converts: each gets one answer with a
        request id and one access-log line, a refusal is a counted
        ``bad_request`` and never ``internal``, and the connection goes
        on.  The sweep steps by one so that it meets the depths that
        decode but overflow later: where the router re-encodes the
        params, or where a refusal prints them."""
        path, log, registry, prefix = self.server(
            kind, daemon_factory, fleet_factory, tmp_path
        )
        topology = '"machine":"testbox","seed":1'
        frames = []
        for depth in [*range(900, 1001), 100_000]:
            nested = "[" * depth + "]" * depth
            frames += [
                (None, '{"verb":"ping","id":1,"params":{"x":%s}}' % nested),
                (None, '{"verb":"place","id":1,"params":{%s,"x":%s}}'
                 % (topology, nested)),
                (None, '{"verb":"place","id":1,"params":'
                       '{"machine":"testbox","seed":%s}}' % nested),
                (nested, '{"verb":"ping","id":%s}' % nested),
                (nested, '{"verb":"place","id":%s,"params":{%s}}'
                 % (nested, topology)),
            ]
        digits = "1" * 5_000
        frames += [
            (None, '{"verb":"place","id":1,"params":{%s,"x":%s}}'
             % (topology, digits)),
            (None, '{"verb":"ping","id":%s}' % digits),
        ]
        codes = []
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(60)
            sock.connect(path)
            with sock.makefile("rb") as reader:
                for nested_id, frame in frames:
                    sock.sendall(frame.encode() + b"\n")
                    line = reader.readline().decode()
                    assert line, f"no answer to frame {len(codes)}"
                    if nested_id is not None:
                        # Read the echoed id without nesting it here.
                        line = line.replace(nested_id, '"echoed"', 1)
                    doc = json.loads(line)
                    assert doc["request_id"]
                    assert doc["id"] in (
                        (None, "echoed") if nested_id else (None, 1)
                    )
                    codes.append("ok" if doc["ok"]
                                 else doc["error"]["code"])
                sock.sendall(b'{"verb":"ping","id":"next"}\n')
                assert json.loads(reader.readline())["id"] == "next"
        assert set(codes) <= {"ok", "invalid_params", "bad_request"}
        # 100,000 levels, then the long integers.
        assert codes[-7:] == ["bad_request"] * 7
        assert registry.value(f"{prefix}.errors.bad_request", 0) \
            == codes.count("bad_request")
        assert len(read_ndjson(log)) == len(frames) + 1

    def test_a_huge_machine_name_is_not_memoized(self, fleet):
        """The router digests any machine string (catalog checks are
        the member's), so a multi-MiB name is refused by the member and
        leaves nothing behind in the router's or a member's params
        memo."""
        machine = "x" * (4 << 20)
        with fleet.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("place", machine=machine, seed=1)
        assert excinfo.value.code == "invalid_params"
        memos = [fleet.router._params] + [
            daemon.handlers._params for daemon in fleet.daemons.values()
        ]
        for memo in memos:
            assert all(len(probe[2]) <= memo.MAX_REPR
                       for probe in memo._memo)

    def test_backpressure(self, fleet_factory):
        fleet = fleet_factory(router_overrides={"max_pending": 1})
        registry = fleet.router.obs.registry
        blocker = fleet.client(timeout=10.0).connect()
        errors: list[Exception] = []

        def block() -> None:
            try:
                blocker.request("_sleep", seconds=1.5)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        release = threading.Thread(target=block)
        release.start()
        try:
            # Probe only once the _sleep holds the one slot (the queue
            # depth is set at admission); a probe sent earlier could
            # take the slot and get the _sleep refused instead.
            deadline = time.monotonic() + 5
            while not registry.value("fleet.queue_depth"):
                assert time.monotonic() < deadline, "the _sleep never arrived"
                time.sleep(0.01)
            saw_backpressure = False
            deadline = time.monotonic() + 1.4
            with fleet.client() as client:
                while time.monotonic() < deadline and not saw_backpressure:
                    try:
                        client.request("_sleep", seconds=0)
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
        with fleet.client() as client:
            assert client.request("_sleep", seconds=0)["slept"] == 0.0

    def test_drain_rejects_new_frames_then_finishes(self, fleet):
        router = fleet.router
        answers = {}
        blocker = fleet.client(timeout=10.0).connect()
        idle = fleet.client(timeout=10.0).connect()
        assert idle.ping()["pong"] is True
        sleeper = threading.Thread(target=lambda: answers.update(
            sleep=blocker.request("_sleep", seconds=1.0)))
        sleeper.start()
        deadline = time.monotonic() + 5
        while not any(d.obs.registry.value("service.requests._sleep")
                      for d in fleet.daemons.values()):
            assert time.monotonic() < deadline, "the _sleep never arrived"
            time.sleep(0.01)

        async def shutdown() -> None:
            router.request_shutdown()

        asyncio.run_coroutine_threadsafe(shutdown(), fleet.loop).result(5)
        try:
            with pytest.raises(ServiceError) as exc:
                idle.ping()
            assert exc.value.code == "shutting_down"
        finally:
            sleeper.join(10)
            blocker.close()
            idle.close()
        assert not sleeper.is_alive()
        assert answers["sleep"]["slept"] == 1.0
        asyncio.run_coroutine_threadsafe(
            router.wait_closed(), fleet.loop
        ).result(15)
        assert not os.path.exists(fleet.router_config.unix_path)
        kinds = [e["kind"] for e in read_ndjson(fleet.router_config.event_log)]
        assert kinds[-1] == "fleet.router.drained"
