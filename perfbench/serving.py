"""The serving workloads: ``place-small`` and ``fleet-small``.

Each run starts its servers as separate processes, times set-up to
ready (socket bound, fleet ring complete, the served topology inferred
and indexed) several times, warms every server until its trace store
is full of pinned traces, fetches the served topology once for the
answer oracle, and then sends one open loop of seeded Poisson arrivals
at a fixed offered rate on one connection.  Each frame is timed from
its scheduled send to its decoded answer (``latency_ms``, ``p99_ms``),
and ``/proc`` gives the server processes' CPU over the loop
(``cpu_ms``).

The traced run adds per-layer accounting: the first part of the
schedule runs again with a span per frame (the client's tracing
overhead), the daemon's (and the router's) layer chain is replayed
in-process on the workload's own frames, and the set-up's inference is
replayed stage by stage.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
import uuid
from pathlib import Path

from harness import (
    CLIENT_CPU,
    Conn,
    Phase,
    Report,
    Server,
    cpu_times,
    daemon_argv,
    make_run_dir,
    median,
    open_loop,
    peak_rss_mb,
    percentile,
    pin,
    poisson_schedule,
)
from stages import local_topology_digest, replay_inference, \
    report_stages, topology_digest

#: Registry names read from the ``metrics`` verb.
PINNED = "trace_store.pinned"


def served_params(model: dict) -> dict:
    return dict(model["served_topology"])


def registry_value(snapshot: dict, name: str, field: str = "value"
                   ) -> float:
    entry = snapshot.get(name) or {}
    return entry.get(field) or 0


# ------------------------------------------------------------ traffic
def make_queries(seed: int, count: int, n_contexts: int) -> list[tuple]:
    """Seeded (policy, threads) pairs from the full policy x 1..N grid."""
    from repro.place.policies import ALL_POLICIES

    rng = random.Random(seed)
    policies = [p.value for p in ALL_POLICIES]
    return [(rng.choice(policies), rng.randint(1, n_contexts))
            for _ in range(count)]


def place_frames(topo: dict, queries: list[tuple]) -> list[bytes]:
    from repro.service.protocol import encode_frame

    return [encode_frame({"verb": "place", "params": {
        **topo, "policy": policy, "threads": threads}})
        for policy, threads in queries]


# ------------------------------------------------------------ oracles
class Oracle:
    """Expected orderings from an in-process index on the served
    topology (fetched once over the wire)."""

    def __init__(self, topology_doc: dict):
        from repro.core.serialize import mctop_from_dict
        from repro.place.index import PlacementIndex

        self.mctop = mctop_from_dict(topology_doc)
        self.index = PlacementIndex(self.mctop).build()
        self._memo: dict[tuple, list[int]] = {}
        self.member: str | None = None

    def ordering(self, query: tuple) -> list[int]:
        expected = self._memo.get(query)
        if expected is None:
            hit = self.index.lookup(query[0], query[1])
            expected = list(hit.ordering) if hit is not None else None
            self._memo[query] = expected
        return expected

    def check_upstream(self, doc: dict) -> str | None:
        """Fleet answers must all come from the same member."""
        member = (doc.get("upstream") or {}).get("member")
        if self.member is None:
            self.member = member
        if member is None or member != self.member:
            return f"upstream member {member!r} != {self.member!r}"
        return None

    def place_check(self, queries: list[tuple], fleet: bool):
        def check(index: int, doc: dict) -> str | None:
            if not doc.get("ok"):
                return f"error answer: {doc.get('error')}"
            result = doc.get("result") or {}
            query = queries[index % len(queries)]
            if "error" in result:
                return f"inline error: {result['error']}"
            if result.get("ordering") != self.ordering(query):
                return f"ordering mismatch for {query}"
            return self.check_upstream(doc) if fleet else None
        return check


# ------------------------------------------------------ set-up / warm
def start_daemon(run_dir: Path, tag: str, topo: dict) -> Server:
    """Launch one daemon and bring it to ready; ``.setup_s`` is set."""
    sock = run_dir / f"{tag}.sock"
    server = Server(tag, daemon_argv(sock, run_dir / f"{tag}-store"),
                    sock, run_dir)
    try:
        server.wait_ready()
        with Conn(sock) as conn:
            result = conn.call("infer", **topo)
        if result.get("cached") is not False:
            raise RuntimeError("set-up infer was not a cold inference")
        server.setup_s = time.perf_counter() - server.launched
    except BaseException:
        server.stop()
        raise
    return server


def start_fleet(run_dir: Path, tag: str, topo: dict) -> list[Server]:
    """Two member daemons and a router in front of them; the router is
    last in the list, ``.setup_s`` is on it.  The router has a CPU to
    itself; the members share the client's."""
    members = []
    servers: list[Server] = []
    try:
        for member_id in ("m1", "m2"):
            sock = run_dir / f"{tag}-{member_id}.sock"
            servers.append(Server(
                f"{tag}-{member_id}",
                daemon_argv(sock, run_dir / f"{tag}-{member_id}-store",
                            member_id=member_id),
                sock, run_dir, cpu=CLIENT_CPU,
            ))
            members.append(f"{member_id}=unix:{sock}")
        for server in servers:
            server.wait_ready()
        sock = run_dir / f"{tag}-router.sock"
        argv = ["fleet", "serve", "--unix", str(sock),
                "--state-dir", str(run_dir / f"{tag}-fleet-state")]
        for member in members:
            argv += ["--member", member]
        router = Server(f"{tag}-router", argv, sock, run_dir)
        servers.append(router)
        router.wait_ready()
        with Conn(sock) as conn:
            deadline = time.perf_counter() + 30
            while True:
                ring = conn.call("fleet")["ring"]["members"]
                if sorted(ring) == ["m1", "m2"]:
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"fleet ring incomplete: {ring}")
                time.sleep(0.02)
            result = conn.call("infer", **topo)
        if result.get("cached") is not False:
            raise RuntimeError("set-up infer was not a cold inference")
        router.setup_s = time.perf_counter() - servers[0].launched
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers


def repeated_setup(start, repeats: int) -> tuple[list[Server], list[float]]:
    """Set up ``repeats`` times; keep the last set of servers running.

    ``start(tag)`` returns the servers of one set-up, the front one last
    with ``setup_s`` on it.
    """
    times = []
    for attempt in range(repeats):
        servers = start(f"s{attempt}")
        times.append(servers[-1].setup_s)
        if attempt + 1 < repeats:
            for server in servers:
                server.stop()
    return servers, times


def warm(conn: Conn, registry: bool = True) -> int:
    """Fill the server's trace store with pinned traces; returns the
    frames sent.

    A malformed frame is answered with a ``bad_request`` error, and the
    store pins every error trace, so ``max_traces`` of them fill it in
    milliseconds.  What makes a full store slower -- ``_prune`` walking
    past every pin to find a victim -- does not depend on why a trace
    was pinned, so this is the state ~``max_traces * sample_every``
    healthy frames reach through the 1-in-N sample.  A daemon's
    ``trace_store.pinned`` counter must then read ``max_traces``; a
    router does not export its own registry (``registry=False``).
    """
    store = conn.call("trace", request_id="perfbench-status")["store"]
    count = store["max_traces"]
    conn.sock.sendall(b"{}\n" * count)
    for _ in range(count):
        if b'"bad_request"' not in conn.reader.readline():
            raise RuntimeError("a warm-up frame was not refused")
    if registry and registry_value(conn.call("metrics")["registry"],
                                   PINNED) < count:
        raise RuntimeError("trace store not full of pins after warm-up")
    return count


def warm_all(socks: list[Path], router: Path | None = None
             ) -> tuple[float, int]:
    """Warm every server process, the router last."""
    start = time.perf_counter()
    frames = 0
    for sock in socks:
        with Conn(sock) as conn:
            frames += warm(conn)
    if router is not None:
        with Conn(router) as conn:
            frames += warm(conn, registry=False)
    return time.perf_counter() - start, frames


def report_setup(report: Report, setups: list[float], warmup_s: float,
                 warm_frames: int) -> None:
    report.add("setup_s", median(setups), "s")
    report.add("warmup_s", warmup_s, "s")
    report.add("warmup.frames", warm_frames, "count")
    report.note("setup_s per set-up: "
                + ", ".join(f"{s:.3f}" for s in setups))
    report.note(f"warm-up: {warmup_s:.2f} s, {warm_frames} frames, "
                f"until every trace store held its budget of pins")


# ------------------------------------------------------------ workload
#: The share of the open-loop schedule that runs a second time, in the
#: traced run, with a span per frame, to price the client's tracing.
TRACED_SHARE = 0.5


def run(workload: str, seed: int, seconds: float, traced: bool,
        model: dict, report: Report, tracer=None, tamper=None) -> None:
    spec = model["workloads"][workload]
    topo = served_params(model)
    run_dir = make_run_dir(workload)
    fleet = workload == "fleet-small"

    def start(tag: str) -> list[Server]:
        if fleet:
            return start_fleet(run_dir, tag, topo)
        return [start_daemon(run_dir, tag, topo)]

    servers, setups = repeated_setup(start, model["setup_repeats"])
    try:
        front = servers[-1]
        if fleet:
            warmup_s, warm_frames = warm_all(
                [s.sock for s in servers[:-1]], front.sock)
        else:
            warmup_s, warm_frames = warm_all([front.sock])
        with Conn(front.sock) as conn:
            topology_doc = conn.call("infer", include_topology=True,
                                     **topo)["topology"]
        oracle = Oracle(topology_doc)
        report.check(topology_digest(topology_doc)
                     == local_topology_digest(topo),
                     "served topology digest differs from in-process "
                     "infer_topology")
        queries = make_queries(seed, spec["distinct_frames"],
                               oracle.mctop.n_contexts)
        frames = place_frames(topo, queries)
        check = oracle.place_check(queries, fleet)
        report_setup(report, setups, warmup_s, warm_frames)

        rate = spec["loop"]["rate"]
        count = max(int(rate * seconds), model["min_frames"])
        schedule = poisson_schedule(f"arrivals-{seed}", rate, count)
        with Conn(front.sock) as conn:
            verb_warm = open_loop(conn, frames, poisson_schedule(
                f"warm-{seed}", rate, int(rate * model["verb_warmup_s"])),
                check)
            report.problems.extend(verb_warm.errors)
            report.note(f"verb warm-up: {verb_warm.frames} frames of the "
                        f"workload's own traffic, untimed")
            before = _server_counters(servers, fleet) if traced else None
            cpu0 = {s.pid: cpu_times(s.pid) for s in servers}
            me0 = time.process_time()
            phase = open_loop(conn, frames, schedule, check,
                              keep=256 if traced else 0, tamper=tamper)
            me1 = time.process_time()
            cpu1 = {s.pid: cpu_times(s.pid) for s in servers}
            _report_latency(phase, rate, report)
            client_us = (me1 - me0) / phase.frames * 1e6
            report.add("client.cpu_us_per_op", client_us, "us")
            report.add("cpu_ms", sum(
                sum(cpu1[pid]) - sum(cpu0[pid]) for pid in cpu0)
                / phase.frames * 1e3, "ms")
            owner, per_frame = _per_frame_cpu(servers, fleet, oracle, cpu0,
                                              cpu1, phase, report)
            if traced:
                _traced(spec, conn, servers, owner, fleet, frames, check,
                        schedule, phase, client_us, per_frame, before,
                        report, tracer, topology_doc, topo, oracle,
                        queries, model)
        report.add("rss_mb", sum(peak_rss_mb(s.pid) for s in servers),
                   "MiB")
    finally:
        for server in servers:
            server.stop()


def _report_latency(phase: Phase, rate: float, report: Report) -> None:
    report.account(phase)
    latencies = phase.latencies
    p99 = percentile(latencies, 99)
    report.add("latency_ms", percentile(latencies, 50) * 1e3, "ms")
    report.add("p99_ms", p99 * 1e3, "ms")
    report.add("gen.late_p99_ms", percentile(phase.late, 99) * 1e3, "ms")
    report.add("frame_bytes", phase.response_bytes / phase.frames, "B")
    report.note(f"latency: open loop, Poisson arrivals at {rate:g} "
                f"frames/s on 1 connection, {len(latencies)} frames; "
                f"p99 {p99 * 1e3:.3f} ms with "
                f"{sum(1 for v in latencies if v > p99)} frames beyond "
                f"it, max {max(latencies) * 1e3:.3f} ms")


def _per_frame_cpu(servers, fleet: bool, oracle: Oracle, cpu0: dict,
                   cpu1: dict, phase: Phase, report: Report
                   ) -> tuple[Server, dict]:
    """CPU per frame of the front server and of the daemon that owns
    the served topology (the same process without a fleet), split into
    user + system and system alone; returns the owning daemon and the
    user + system microseconds per frame by role."""

    def per_frame_us(server: Server) -> tuple[float, float]:
        (user0, sys0), (user1, sys1) = cpu0[server.pid], cpu1[server.pid]
        return ((user1 - user0 + sys1 - sys0) / phase.frames * 1e6,
                (sys1 - sys0) / phase.frames * 1e6)

    roles = {}
    owner = servers[0]
    if fleet:
        owner = next(s for s in servers[:-1]
                     if s.name.endswith(oracle.member))
        roles["router"] = per_frame_us(servers[-1])
    roles["member" if fleet else "daemon"] = per_frame_us(owner)
    for role, (total_us, sys_us) in roles.items():
        report.add(f"{role}.cpu_us_per_frame", total_us, "us")
        report.add(f"{role}.sys_us_per_frame", sys_us, "us")
        report.add(f"{role}.util", total_us * phase.frames / 1e6
                   / phase.elapsed, "ratio")
    return owner, {role: total_us for role, (total_us, _) in roles.items()}


def _traced(spec, conn, servers, owner, fleet, frames, check, schedule,
            plain: Phase, plain_us: float, per_frame: dict, before: dict,
            report, tracer, topology_doc, topo, oracle, queries,
            model) -> None:
    """The traced run's extra phases: the schedule's first part again
    with a span per frame, then the in-process replays."""
    rate = spec["loop"]["rate"]
    traced_at = schedule[:max(int(len(schedule) * TRACED_SHARE), 1)]
    upstream_ms: list[float] = []
    latencies: list[float] = []

    def on_done(index, started, now, doc):
        tracer.adopt_span("client.frame", (now - started) * 1e6,
                          frame=index, verb=spec["verb"])
        latencies.append(now - started)
        upstream = doc.get("upstream")
        if upstream is not None:
            upstream_ms.append(upstream["ms"])

    me0 = time.process_time()
    with tracer.span("phase.open_loop.traced", rate=rate,
                     frames=len(traced_at)):
        traced = open_loop(conn, frames, traced_at, check, on_done=on_done)
    traced_us = (time.process_time() - me0) / traced.frames * 1e6
    after = _server_counters(servers, fleet)
    report.account(traced)
    report.add("trace.overhead_pct", (traced_us - plain_us) / plain_us
               * 100, "%")
    delta = {k: after[k] - before[k] for k in before if k != "handler_p50"}
    retained = delta["retained"]
    report.add("trace_store.evicted_ratio",
               delta["evicted"] / retained if retained else 0.0, "ratio")
    looked_up = delta["index_hits"] + delta["index_misses"]
    report.add("place.index_hit_ratio",
               delta["index_hits"] / looked_up if looked_up else 0.0,
               "ratio")
    report.add("daemon.handler_ms_p50", after["handler_p50"] * 1e3, "ms")
    if fleet:
        self_ms = [lat * 1e3 - up for lat, up in zip(latencies,
                                                     upstream_ms)]
        report.add("router.self_ms_p50", median(self_ms), "ms")

    # Each replay runs on the CPU of the process it prices: the two
    # CPUs of a shared host do not always run at the same speed.
    prefix = "member" if fleet else "daemon"
    count = spec["replay_frames"]
    with tracer.span("phase.replay.daemon"):
        answers = member_answers(plain.sample) if fleet else plain.sample
        pin(0, owner.cpu)
        layers = replay_daemon(spec["verb"], frames, plain.sample, answers,
                               topology_doc, topo, count, rate)
    for name, value in layers.items():
        report.add(name, value, "us")
    daemon_parts = sum(layers[name] for name in DAEMON_PARTS)
    report.add(f"{prefix}.dispatch_self_us", per_frame[prefix]
               - daemon_parts, "us")
    if fleet:
        with tracer.span("phase.replay.router"):
            pin(0, servers[-1].cpu)
            router = replay_router(frames, plain.sample, count, rate,
                                   median(upstream_ms) / 1e3)
        for name, value in router.items():
            report.add(name, value, "us")
        router_parts = sum(router.values()) + sum(
            layers[name] * times for name, times in ROUTER_SHARED_PARTS)
        report.add("router.dispatch_self_us", per_frame["router"]
                   - router_parts, "us")
    else:
        report.add("index.lookup_us", replay_lookup(oracle, queries, count),
                   "us")
    # The set-up's inference, stage by stage, where the daemon ran it.
    stages: dict = {}
    stats: dict = {}
    with tracer.span("phase.replay.inference"):
        pin(0, owner.cpu)
        for _ in range(model["stage_replays"]):
            digest = replay_inference(topo, stages, stats, tracer)
            report.check(digest == topology_digest(topology_doc),
                         "replayed set-up inference digest differs from "
                         "the served topology")
    report_stages(stages, stats, report)
    pin(0, CLIENT_CPU)


#: The replayed per-frame costs that sum, with ``dispatch_self_us``,
#: to the daemon's CPU per frame.
DAEMON_PARTS = (
    "daemon.stream_io_us",
    "protocol.decode_request_us",
    "daemon.bookkeeping_us",
    "handlers.place_us",
    "daemon.wait_for_us",
    "obs.span_us",
    "obs.timer_us",
    "obs.slo_us",
    "obs.trace_store_finish_us",
    "protocol.encode_frame_us",
)

#: The daemon replays that also price the router's own work, and how
#: many times per frame: it decodes the client's frame, generates a
#: request id and counts the request, records a ``fleet.request`` and a
#: ``fleet.forward`` span, times the verb and finishes the trace.  With
#: ``router.stream_io_us``, ``router.route_us`` and ``router.stitch_us``
#: they sum, with ``router.dispatch_self_us``, to the router's CPU per
#: frame.
ROUTER_SHARED_PARTS = (
    ("protocol.decode_request_us", 1),
    ("daemon.bookkeeping_us", 1),
    ("obs.span_us", 2),
    ("obs.timer_us", 1),
    ("obs.trace_store_finish_us", 1),
)


def _server_counters(servers, fleet: bool, verb: str = "place") -> dict:
    """Trace-store and index counters summed over the daemons, plus the
    verb's handler p50 on the busiest daemon (its latency timer)."""
    totals = {"retained": 0, "evicted": 0, "index_hits": 0,
              "index_misses": 0, "handler_p50": 0.0}
    daemons = servers[:-1] if fleet else servers
    busiest = -1
    for server in daemons:
        with Conn(server.sock) as conn:
            registry = conn.call("metrics")["registry"]
        totals["retained"] += registry_value(registry,
                                             "trace_store.retained")
        totals["evicted"] += registry_value(registry, "trace_store.evicted")
        totals["index_hits"] += registry_value(
            registry, "service.place.index_hits")
        totals["index_misses"] += registry_value(
            registry, "service.place.index_misses")
        timer = f"service.latency.{verb}"
        if registry_value(registry, timer, "count") > busiest:
            busiest = registry_value(registry, timer, "count")
            totals["handler_p50"] = registry_value(registry, timer, "p50")
    return totals


# ------------------------------------------------------------ replays
async def _stream_pair():
    """An asyncio stream on one end of a socketpair, the other end a
    blocking socket (the peer): ``(reader, writer, peer socket, peer
    line reader)``."""
    from repro.service.protocol import MAX_LINE_BYTES

    near, far = socket.socketpair()
    reader, writer = await asyncio.open_unix_connection(
        sock=near, limit=MAX_LINE_BYTES)
    return reader, writer, far, far.makefile("rb")


async def _close_pair(pair) -> None:
    _, writer, far, peer = pair
    writer.close()
    await writer.wait_closed()
    peer.close()
    far.close()


def replay_daemon(verb: str, frames: list[bytes], sample: list[bytes],
                  answers: list[bytes], topology_doc: dict, topo: dict,
                  count: int, rate: float) -> dict:
    """The daemon's connection loop and layer chain, in-process, on the
    workload's frames, paced at the workload's arrival rate.

    A peer socket sends each frame after the open loop's mean gap, so
    every frame meets the caches and predictors an idle daemon has
    (back to back, the same chain costs less than half as much).  Then
    ``StreamReader.readline`` -> ``decode_request`` -> the request's
    bookkeeping (request id, context variable, request counter,
    queue-depth gauge) -> the ``Handlers`` verb (awaited on a cache
    that holds the served topology and its index) ->
    ``asyncio.wait_for`` -> each request hook alone (span, latency timer
    + exemplar, SLO engine, trace-store finish on a store filled to its
    pin budget) -> ``encode_frame`` -> ``StreamWriter.write`` +
    ``drain`` of ``answers`` (what the server sent); plus the client's
    ``decode_response`` of the answers it received (``sample``).
    Medians of ``count`` frames, in microseconds per frame.
    """
    from repro.core.algorithm import LatencyTableConfig
    from repro.core.serialize import mctop_from_dict
    from repro.obs import Observability
    from repro.obs.slo import DEFAULT_OBJECTIVES, SloEngine
    from repro.obs.trace_store import TraceStore
    from repro.service.cache import InferenceCache, inference_key
    from repro.service.context import current_request_id
    from repro.service.handlers import Handlers, Session
    from repro.service.protocol import (
        decode_request,
        decode_response,
        encode_frame,
        ok_response,
    )

    # The k-th answer of a phase answers frame k (modulo the pool).
    requests = [frames[i % len(frames)] for i in range(len(sample))]
    obs = Observability()
    store = TraceStore(obs=obs)
    obs.tracer.sink = store.observe
    for i in range(store.max_traces):
        store.finish(f"pin-{i}", verb=verb, duration_ms=1.0,
                     slo_violation=True)
    slo = SloEngine(DEFAULT_OBJECTIVES, obs=obs)
    cache = InferenceCache(obs=obs)
    mctop = mctop_from_dict(topology_doc)
    key = inference_key(topo["machine"], topo["seed"],
                        LatencyTableConfig(repetitions=topo["repetitions"]))
    cache.put(key, mctop)
    cache.ensure_index(key, mctop)
    handlers = Handlers(cache, obs, trace_store=store, slo_engine=slo)
    handler = getattr(handlers, verb)
    session = Session()
    names = ("daemon.stream_io_us", "protocol.decode_request_us",
             "daemon.bookkeeping_us", f"handlers.{verb}_us",
             "daemon.wait_for_us", "obs.span_us", "obs.timer_us",
             "obs.slo_us", "obs.trace_store_finish_us",
             "protocol.encode_frame_us", "client.decode_response_us")
    samples = {name: [] for name in names}

    async def nop() -> None:
        return None

    async def replay() -> None:
        pair = reader, writer, far, peer = await _stream_pair()
        pc = time.perf_counter
        try:
            for i in range(count):
                # Idle between frames as the daemon does; nothing else
                # runs on this loop, so blocking is the point.
                time.sleep(1 / rate)
                far.sendall(requests[i % len(requests)])
                t0 = pc()
                line = await reader.readline()
                t1 = pc()
                request = decode_request(line)
                t2 = pc()
                rid = uuid.uuid4().hex[:16]
                token = current_request_id.set(rid)
                obs.counter(f"service.requests.{verb}").inc()
                obs.gauge("service.queue_depth").set(1)
                t3 = pc()
                result = await handler(request.params, session)
                t4 = pc()
                await asyncio.wait_for(nop(), 60.0)
                t5 = pc()
                await nop()
                t6 = pc()
                with obs.span("service.request", verb=verb,
                              request_id=rid):
                    pass
                t7 = pc()
                obs.gauge("service.queue_depth").set(0)
                current_request_id.reset(token)
                t8 = pc()
                timer = obs.timer(f"service.latency.{verb}")
                timer.observe(t4 - t3)
                timer.record_exemplar(t4 - t3, rid)
                t9 = pc()
                slo.observe(verb, t4 - t3, ok=True)
                t10 = pc()
                store.finish(rid, verb=verb, duration_ms=(t4 - t3) * 1e3)
                t11 = pc()
                encode_frame(ok_response(request.id, result,
                                         request_id=rid))
                t12 = pc()
                writer.write(answers[i % len(answers)])
                await writer.drain()
                t13 = pc()
                peer.readline()
                t14 = pc()
                decode_response(sample[i % len(sample)])
                t15 = pc()
                for name, seconds in zip(names, (
                        (t1 - t0) + (t13 - t12), t2 - t1,
                        (t3 - t2) + (t8 - t7), t4 - t3,
                        (t5 - t4) - (t6 - t5), t7 - t6, t9 - t8,
                        t10 - t9, t11 - t10, t12 - t11, t15 - t14)):
                    samples[name].append(seconds * 1e6)
        finally:
            await _close_pair(pair)

    asyncio.run(replay())
    return {name: median(values) for name, values in samples.items()}


def replay_lookup(oracle: Oracle, queries: list[tuple], count: int) -> float:
    """``PlacementIndex.lookup`` alone, median microseconds per query."""
    pc = time.perf_counter
    times = []
    for i in range(count):
        policy, threads = queries[i % len(queries)]
        start = pc()
        oracle.index.lookup(policy, threads)
        times.append((pc() - start) * 1e6)
    return median(times)


def member_answers(sample: list[bytes]) -> list[bytes]:
    """The owning member's answers behind a sample of router answers:
    the same result under the member's own request id."""
    from repro.service.protocol import decode_response, encode_frame

    lines = []
    for line in sample:
        doc = decode_response(line)
        lines.append(encode_frame({
            "id": 1, "ok": True, "result": doc["result"],
            "request_id": doc["upstream"]["request_id"],
            "parent_request_id": doc["request_id"],
        }))
    return lines


def replay_router(frames: list[bytes], sample: list[bytes], count: int,
                  rate: float, member_wait_s: float) -> dict:
    """The router's own layers on the workload's frames, paced like
    ``replay_daemon``, median microseconds per frame: routing
    (``parse_inference_params`` + ``inference_key`` +
    ``HashRing.preference``), stitching (decode the member's answer,
    re-encode it under the router's request id) and its stream I/O
    toward the client (``readline``, ``write`` + ``drain``) and toward
    the member, as ``MemberConnection.request`` does it
    (``encode_frame``, ``write``, ``wait_for(drain)``, then
    ``wait_for(readline)`` of an answer that arrives ``member_wait_s``
    later)."""
    from repro.fleet.ring import HashRing
    from repro.service.cache import inference_key
    from repro.service.handlers import parse_inference_params
    from repro.service.protocol import (
        decode_request,
        decode_response,
        encode_frame,
    )

    ring = HashRing(["m1", "m2"])
    params = [decode_request(frames[i % len(frames)]).params
              for i in range(len(sample))]
    member_lines = member_answers(sample)
    route, stitch, streams = [], [], []

    async def replay() -> None:
        client = c_reader, c_writer, c_far, c_peer = await _stream_pair()
        member = m_reader, m_writer, m_far, m_peer = await _stream_pair()
        pc = time.perf_counter
        try:
            for i in range(count):
                time.sleep(1 / rate)
                c_far.sendall(frames[i % len(frames)])
                t0 = pc()
                await c_reader.readline()
                t1 = pc()
                machine, seed, table = parse_inference_params(
                    params[i % len(params)])
                ring.preference(inference_key(machine, seed, table))
                t2 = pc()
                m_writer.write(encode_frame({
                    "verb": "place", "id": i + 1,
                    "params": params[i % len(params)],
                    "parent_request_id": "perfbench-replay"}))
                await asyncio.wait_for(m_writer.drain(), 60.0)
                t3 = pc()
                # Idle while the member works, as the router does.
                time.sleep(member_wait_s)
                m_far.sendall(member_lines[i % len(member_lines)])
                t4 = pc()
                line = await asyncio.wait_for(m_reader.readline(), 60.0)
                t5 = pc()
                doc = decode_response(line)
                frame = encode_frame({
                    "id": None, "ok": bool(doc.get("ok")),
                    "result": doc["result"],
                    "request_id": doc["parent_request_id"],
                    "upstream": {"member": "m1",
                                 "request_id": doc["request_id"],
                                 "ms": 0.25},
                })
                t6 = pc()
                c_writer.write(frame)
                await c_writer.drain()
                t7 = pc()
                m_peer.readline()
                c_peer.readline()
                route.append((t2 - t1) * 1e6)
                stitch.append((t6 - t5) * 1e6)
                streams.append(((t1 - t0) + (t3 - t2) + (t5 - t4)
                                + (t7 - t6)) * 1e6)
        finally:
            await _close_pair(client)
            await _close_pair(member)

    asyncio.run(replay())
    return {"router.route_us": median(route),
            "router.stitch_us": median(stitch),
            "router.stream_io_us": median(streams)}
