"""Verb handlers for ``mctopd``.

Each public coroutine on :class:`Handlers` implements one wire verb.
Handlers are deliberately thin: parameter validation, a cache /
single-flight lookup for anything needing a topology, then a plain
JSON-compatible result dict.  Expensive MCTOP-ALG runs execute in a
worker thread (``asyncio.to_thread``) so the event loop keeps serving
cache hits and metrics while an inference is in flight; so do the
store write that follows (:meth:`InferenceCache.put_async`), a store
load on a memory miss (:meth:`InferenceCache.get_async`, under the
single-flight) and the placement-index build.

Every placement (``place``, ``place_many``, ``pool_switch``) is
answered from the topology's
:class:`~repro.place.index.PlacementIndex`.  Session state lives in
:class:`Session`, one per client connection: the ``pool_switch``
history of each topology, the configurations a runtime switches among
between parallel regions in the paper's OpenMP extension.  It holds no
topology, so the inference cache alone bounds what a connection keeps
alive.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import gzip
import json
import time
from collections import OrderedDict
from weakref import WeakKeyDictionary

from repro.core.algorithm import (
    InferenceConfig,
    LatencyTableConfig,
    infer_topology,
)
from repro.core.algorithm.validation import compare_with_os
from repro.core.mctop import Mctop
from repro.core.serialize import mctop_from_dict, mctop_to_dict
from repro.errors import (
    ConfigError,
    MctopError,
    SerializationError,
    ServiceError,
)
from repro.hardware import get_machine, machine_names
from repro.hardware.os_view import read_os_topology
from repro.obs import Observability
from repro.place.policies import ALL_POLICIES, Policy
from repro.service.cache import InferenceCache, SingleFlight, inference_key
from repro.service.client import MctopClient
from repro.service.context import current_request_id
from repro.service.protocol import PROTOCOL_VERSION, EncodedDoc


def _invalid(message: str) -> ServiceError:
    return ServiceError(message, code="invalid_params")


def parse_inference_params(
    params: dict,
    default_repetitions: int = 75,
    known_machines: "tuple[str, ...] | None" = None,
) -> tuple[str, int, LatencyTableConfig]:
    """Validate the shared topology-request params into
    ``(machine, seed, table)`` — exactly the triple
    :func:`~repro.service.cache.inference_key` digests.

    One implementation serves both the member daemon (which also
    checks ``known_machines``) and the fleet router (which only needs
    the digest and leaves catalog validation to the owning member, so
    heterogeneous member catalogs keep working).
    """
    machine = params.get("machine")
    if not isinstance(machine, str) or not machine:
        raise _invalid("'machine' must be a string")
    if known_machines is not None and machine not in known_machines:
        raise _invalid(
            f"unknown machine {machine!r} "
            f"(known: {', '.join(known_machines)})"
        )
    seed = _get_int(params, "seed", 0)
    if seed is None:  # an explicit null; a missing seed means 0
        raise _invalid("'seed' must be an integer, got None")
    if seed < 0:  # numpy seeds only from non-negative integers
        raise _invalid("'seed' must be >= 0")
    # Measurement knobs arrive either as a full 'table' config dict
    # (the LatencyTableConfig.to_dict shape) or as the 'repetitions'
    # / 'jobs' shortcuts, which override individual table entries.
    table_doc = params.get("table")
    if table_doc is not None and not isinstance(table_doc, dict):
        raise _invalid("'table' must be a config object")
    doc = dict(table_doc) if table_doc else {}
    repetitions = _get_int(params, "repetitions", None)
    if repetitions is not None:
        doc["repetitions"] = repetitions
    doc.setdefault("repetitions", default_repetitions)
    reps = doc["repetitions"]
    if isinstance(reps, bool) or not isinstance(reps, int) or reps < 1:
        raise _invalid("'repetitions' must be an integer >= 1")
    jobs = _get_int(params, "jobs", None)
    if jobs is not None:
        doc["jobs"] = jobs
    try:
        table = LatencyTableConfig.from_dict(doc)
    except ConfigError as exc:
        raise _invalid(str(exc)) from exc
    return machine, seed, table


#: What a frame did not send, told apart from an explicit ``null`` (a
#: missing ``seed`` means ``0``; a null one does not).
_ABSENT = object()


class TopologyParamsMemo:
    """An exact memo from a frame's raw topology params to ``(machine,
    seed, table, key)``: what :func:`parse_inference_params` and then
    :func:`~repro.service.cache.inference_key` make of them.

    The daemon and the router resolve the same params on frame after
    frame; each owns one memo.  A miss runs the two functions unchanged,
    so every refusal is raised on every frame, with its own message and
    in its own order, and a refusal is never kept.

    The probe is the ``default_repetitions``, the catalog, and the type
    and ``repr`` of the five raw values the parse reads, never the
    values themselves: ``1``, ``True`` and ``1.0`` are equal and hash
    alike, and so are ``0.0`` and ``-0.0``, yet they validate or digest
    differently, at the top level and inside ``table`` alike.  Params
    whose ``repr`` is longer than :attr:`MAX_REPR` characters (a real
    request's is under 100) are resolved every time and never kept,
    since a frame may be 16 MiB; the memo is cleared when it holds
    :attr:`MAX_ENTRIES`.
    """

    MAX_ENTRIES = 512
    MAX_REPR = 1024

    def __init__(self):
        self._memo: dict[tuple, tuple] = {}

    def resolve(
        self,
        params: dict,
        default_repetitions: int = 75,
        known_machines: "tuple[str, ...] | None" = None,
    ) -> tuple[str, int, LatencyTableConfig, str]:
        """``(machine, seed, table, key)`` for ``params``, as the parse
        with these arguments and then the digest make them."""
        get = params.get
        raw = (get("machine", _ABSENT), get("seed", _ABSENT),
               get("repetitions", _ABSENT), get("jobs", _ABSENT),
               get("table", _ABSENT))
        try:
            text = repr(raw)
        except RecursionError:  # a table nested too deep to print
            text = None
        probe = None
        if text is not None and len(text) <= self.MAX_REPR:
            probe = (default_repetitions, known_machines, text,
                     *map(type, raw))
            resolved = self._memo.get(probe)
            if resolved is not None:
                return resolved
        machine, seed, table = parse_inference_params(
            params, default_repetitions, known_machines
        )
        resolved = (machine, seed, table, inference_key(machine, seed, table))
        if probe is not None:
            if len(self._memo) >= self.MAX_ENTRIES:
                self._memo.clear()
            self._memo[probe] = resolved
        return resolved


def parse_trace_params(params: dict) -> str:
    """Validate the ``trace`` verb's ``request_id``; the daemon and the
    fleet router both check it here, so they refuse alike."""
    return _request_id(params.get("request_id"))


def parse_profile_params(
    params: dict,
) -> tuple[str, str | None, str | None, int]:
    """Validate the ``profile`` verb's params into ``(action, verb,
    request_id, limit)``.  The fleet router validates here too, before
    it fans out, so a bad filter is refused as the daemon refuses it
    rather than as every member refusing."""
    action = params.get("action", "snapshot")
    if action not in ("snapshot", "reset"):
        raise _invalid("'action' must be 'snapshot' or 'reset'")
    verb = params.get("verb")
    if verb is not None and (not isinstance(verb, str) or not verb):
        raise _invalid("'verb' must be a non-empty string")
    request_id = params.get("request_id")
    if request_id is not None:
        _request_id(request_id)
    limit = _get_int(params, "limit", 200)
    if limit is None or limit < 1 or limit > 5000:
        raise _invalid("'limit' must be an integer in [1, 5000]")
    return action, verb, request_id, limit


def _request_id(value) -> str:
    if not isinstance(value, str) or not value or len(value) > 64:
        raise _invalid(
            "'request_id' must be a non-empty string of at most 64 chars"
        )
    return value


def encode_mctop_blob(mctop: Mctop) -> str:
    """A topology as a transferable ``.mct.gz`` blob: gzip over the
    canonical serialized JSON, base64'd for the NDJSON frame.  What one
    fleet member ships another on a ``cache_fetch`` hit."""
    doc = json.dumps(mctop_to_dict(mctop), sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    # mtime=0 keeps the gzip container deterministic, so the same
    # topology is the same blob on every member.
    return base64.b64encode(gzip.compress(doc, mtime=0)).decode("ascii")


def decode_mctop_blob(blob: str) -> Mctop:
    """Inverse of :func:`encode_mctop_blob` (raises
    :class:`SerializationError` on a corrupt blob)."""
    try:
        doc = json.loads(gzip.decompress(base64.b64decode(blob)))
        return mctop_from_dict(doc)
    except (binascii.Error, OSError, ValueError, KeyError, TypeError) as exc:
        raise SerializationError(f"corrupt topology blob: {exc}") from exc


def prometheus_text(obs: Observability,
                    cache: InferenceCache | None = None) -> str:
    """The daemon's full Prometheus exposition document.

    Registry instruments plus the tracer's health gauges (notably
    ``dropped_spans``, so silent span loss is alertable) — shared by
    the HTTP ``/metrics`` endpoint and the ``metrics`` verb's
    ``format="prometheus"`` mode.
    """
    trace = obs.tracer.summary()
    extra = {
        "trace.finished_spans": trace["finished_spans"],
        "trace.instants": trace["instants"],
        "trace.dropped_events": trace["dropped"],
        "trace.dropped_spans": trace["dropped_spans"],
        "trace.sink_errors": trace.get("sink_errors", 0),
    }
    if cache is not None:
        extra["cache.memory_entries"] = len(cache)
    return obs.registry.to_prometheus(extra=extra)


#: Enum construction is measurable on the ``place_many`` hot loop; a
#: plain dict probe resolves a policy string in a fraction of the cost.
_POLICY_BY_VALUE = {p.value: p for p in ALL_POLICIES}


def _get_int(params: dict, name: str, default: int | None) -> int | None:
    value = params.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(f"{name!r} must be an integer, got {value!r}")
    return value


class Session:
    """Per-connection state: for each topology key, the ``(policy,
    threads, sockets)`` configurations ``pool_switch`` made active,
    least recent first, so the active one is last."""

    #: Configurations kept per topology; a switch to a new one beyond
    #: this drops the least recently used.
    MAX_POOL_ENTRIES = 16

    def __init__(self):
        self._pools: dict[str, OrderedDict] = {}

    def switch(self, key: str, config: tuple) -> OrderedDict:
        """Make ``config`` the topology's active configuration; returns
        the topology's configurations."""
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pools[key] = OrderedDict()
        pool[config] = None
        pool.move_to_end(config)
        if len(pool) > self.MAX_POOL_ENTRIES:
            pool.popitem(last=False)
        return pool


class Handlers:
    """The verb implementations, bound to one daemon's shared state."""

    def __init__(
        self,
        cache: InferenceCache,
        obs: Observability,
        default_repetitions: int = 75,
        watcher: "DriftWatcher | None" = None,
        member_id: str | None = None,
        peers: tuple = (),
        peer_timeout: float = 5.0,
        peer_fanout: int = 2,
        events=None,
        trace_store=None,
        slo_engine=None,
        profiler=None,
    ):
        self.cache = cache
        self.obs = obs
        self.watcher = watcher
        #: Per-request span index (``trace`` verb) and SLO burn-rate
        #: engine (``slo`` verb); either may be ``None`` — the verbs
        #: then answer ``{"enabled": false}``, the drift pattern.
        self.trace_store = trace_store
        self.slo_engine = slo_engine
        #: Sampling profiler (``profile`` verb); same optional pattern.
        self.profiler = profiler
        self.default_repetitions = default_repetitions
        self._params = TopologyParamsMemo()
        #: Per-index memo of fully-formed placement result documents,
        #: shared by ``place`` and ``place_many``: an index is
        #: immutable, so a grid hit's document is a constant (see
        #: ``_memo_query``), kept with its JSON (an
        #: :class:`~repro.service.protocol.EncodedDoc`).  Weak keys tie
        #: each memo's lifetime to its index object, so evicting a
        #: topology drops its documents.
        self._place_docs: "WeakKeyDictionary" = WeakKeyDictionary()
        self.singleflight = SingleFlight(obs=obs)
        #: Cache peering: the other fleet members this daemon may ask
        #: for a cached topology blob before running MCTOP-ALG itself
        #: (parsed :class:`~repro.fleet.members.MemberSpec` objects).
        self.member_id = member_id
        self.peers = tuple(peers)
        self.peer_timeout = peer_timeout
        self.peer_fanout = peer_fanout
        self.events = events

    # ------------------------------------------------------ topology plumbing
    def _inference_params(
        self, params: dict
    ) -> tuple[str, int, LatencyTableConfig, str]:
        """``(machine, seed, table, key)`` for a topology request."""
        return self._params.resolve(params, self.default_repetitions,
                                    machine_names())

    def _peer_order(self, key: str) -> list:
        """Ring-adjacent peers to ask for ``key``, nearest first.

        The ring spans this member plus its peers, so every member
        computes the same owner/successor order for a digest and a
        blob is found in at most one or two hops.
        """
        if not self.peers:
            return []
        from repro.fleet.ring import HashRing  # local: avoid package cycle

        by_id = {spec.id: spec for spec in self.peers}
        ids = sorted(by_id)
        if self.member_id is not None and self.member_id not in ids:
            ids.append(self.member_id)
        ring = HashRing(ids)
        order = [m for m in ring.preference(key) if m != self.member_id]
        return [by_id[m] for m in order[:max(self.peer_fanout, 1)]]

    def _peer_fetch_sync(self, key: str) -> Mctop | None:
        """Ask ring-adjacent peers for a cached blob (worker thread).

        Any peer failure is a miss, never an error: peering is an
        optimization on the miss path, and the local MCTOP-ALG run is
        always a correct fallback.
        """
        for spec in self._peer_order(key):
            self.obs.counter("service.cache.peer_queries").inc()
            try:
                with MctopClient(unix_path=spec.unix_path, host=spec.host,
                                 port=spec.port,
                                 timeout=self.peer_timeout) as client:
                    result = client.request("cache_fetch", key=key)
            except (ServiceError, OSError) as exc:
                self.obs.counter("service.cache.peer_errors").inc()
                self.obs.instant("service.peer_fetch.error",
                                 peer=spec.id, key=key[:12],
                                 error=f"{type(exc).__name__}: {exc}")
                continue
            if not result.get("found"):
                continue
            try:
                mctop = decode_mctop_blob(result.get("blob", ""))
            except SerializationError:
                self.obs.counter("service.cache.peer_errors").inc()
                continue
            self.obs.counter("service.cache.peer_hits").inc()
            if self.events is not None:
                self.events.emit("fleet.peer_hit", key=key, peer=spec.id,
                                 member=self.member_id)
            return mctop
        return None

    async def _topology(self, params: dict) -> tuple[str, Mctop, bool]:
        """Resolve (key, topology, was_cached) for a request.

        Every stage is traced under the request's root span: the cache
        lookup, the single-flight decision, the peer fetch and (for the
        leader) the MCTOP-ALG run all carry the dispatching request's
        ``request_id``, so one id follows a request end to end.
        """
        machine, seed, table, key = self._inference_params(params)
        request_id = current_request_id.get()
        with self.obs.span("service.cache_lookup", key=key[:12],
                           request_id=request_id):
            mctop = self.cache.get_memory(key)
        if mctop is not None:
            return key, mctop, True

        async def resolve() -> tuple[Mctop, bool]:
            # Past the memory tier, the single-flight leader loads a
            # store hit in a worker thread, once however many requests
            # wait on the digest; the loop keeps answering meanwhile.
            with self.obs.span("service.store_load", key=key[:12],
                               request_id=request_id):
                mctop = await self.cache.get_async(key, record=False)
            if mctop is not None:
                return mctop, True
            # Fleet cache peering: on a local miss the single-flight
            # leader first asks the digest's ring-adjacent peers for
            # the blob — extending the one-run-per-digest property
            # fleet-wide before falling back to MCTOP-ALG.
            if self.peers:
                with self.obs.span("service.peer_fetch", key=key[:12],
                                   request_id=request_id):
                    peer_mctop = await asyncio.to_thread(
                        self._peer_fetch_sync, key
                    )
                if peer_mctop is not None:
                    await self.cache.put_async(key, peer_mctop)
                    await self._precompute_index(key, peer_mctop)
                    return peer_mctop, False
            with self.obs.span("service.infer_run", machine=machine,
                               seed=seed, key=key[:12],
                               request_id=request_id):
                # The run gets its own Observability: infer_topology's
                # internal spans must not interleave with the daemon
                # tracer from a worker thread.
                with self.obs.timer("service.inference.seconds").time():
                    mctop = await asyncio.to_thread(
                        self._infer_sync, machine, seed, table
                    )
            self.obs.counter("service.inference.runs").inc()
            await self.cache.put_async(key, mctop)
            await self._precompute_index(key, mctop)
            return mctop, False

        # Each request on the flight counts one lookup: a store hit, or
        # a miss of both tiers (a failed flight found nothing either).
        try:
            mctop, cached = await self.singleflight.run(key, resolve)
        except BaseException:
            self.cache.record_store_lookup(False)
            raise
        self.cache.record_store_lookup(cached)
        return key, mctop, cached

    def _infer_sync(self, machine: str, seed: int,
                    table: LatencyTableConfig) -> Mctop:
        """The MCTOP-ALG run, on a worker thread.

        Tagged in the sampling profiler so a cold inference's frames
        attribute to the dispatching request — ``asyncio.to_thread``
        copies the request context, so the profiler's request-id
        provider still resolves the right id from this thread.
        """
        if self.profiler is not None:
            with self.profiler.thread_tag("infer"):
                return infer_topology(
                    get_machine(machine), seed=seed,
                    config=InferenceConfig(table=table),
                )
        return infer_topology(
            get_machine(machine), seed=seed,
            config=InferenceConfig(table=table),
        )

    async def _precompute_index(self, key: str, mctop: Mctop) -> None:
        """Cache-insert-time placement-index build (worker thread).

        Makes every subsequent ``place`` on this topology a dictionary
        lookup.
        """
        request_id = current_request_id.get()
        with self.obs.span("service.place_index_build", key=key[:12],
                           request_id=request_id):
            await asyncio.to_thread(self.cache.ensure_index, key, mctop)

    async def _index(self, key: str, mctop: Mctop):
        """The topology's placement index, building under single-flight
        if a cache path skipped the insert-time precompute (a store hit,
        a memory hit from the drift watcher's put)."""
        index = mctop._placement_index
        if index is not None:
            return index

        async def build():
            return await asyncio.to_thread(
                self.cache.ensure_index, key, mctop
            )

        return await self.singleflight.run(key + ":pidx", build)

    @staticmethod
    def _topology_facts(key: str, mctop: Mctop, cached: bool) -> dict:
        return {
            "key": key,
            "cached": cached,
            "machine": mctop.name,
            "n_sockets": mctop.n_sockets,
            "n_cores": mctop.n_cores,
            "n_contexts": mctop.n_contexts,
            "n_nodes": mctop.n_nodes,
            "has_smt": mctop.has_smt,
            "smt_per_core": mctop.smt_per_core,
            "latency_levels": mctop.latency_levels(),
        }

    # ---------------------------------------------------------------- verbs
    async def ping(self, params: dict, session: Session) -> dict:
        return {"pong": True, "protocol": PROTOCOL_VERSION,
                "machines": list(machine_names())}

    async def infer(self, params: dict, session: Session) -> dict:
        key, mctop, cached = await self._topology(params)
        result = self._topology_facts(key, mctop, cached)
        if params.get("include_topology"):
            result["topology"] = mctop_to_dict(mctop)
        return result

    async def show(self, params: dict, session: Session) -> dict:
        key, mctop, cached = await self._topology(params)
        result = self._topology_facts(key, mctop, cached)
        result["summary"] = mctop.summary()
        return result

    async def place(self, params: dict, session: Session) -> dict:
        """One placement query — a dictionary lookup on the hot path.

        The response is versioned in place: ``index`` reports whether
        the precomputed grid of the topology's
        :class:`~repro.place.index.PlacementIndex` answered (``false``
        means the query fell outside it and was computed) and ``ms`` is
        the server-side service time.  Old clients ignore both keys;
        ``policy`` / ``n_threads`` / ``ordering`` / ``stats`` are
        byte-identical to an in-process :class:`~repro.place.Placement`.
        A memoized document's answer splices its JSON, encoded once.
        """
        start = time.perf_counter()
        key, mctop, cached = await self._topology(params)
        index = await self._index(key, mctop)
        memo = self._place_docs.setdefault(index, {})
        doc, hit = self._memo_query(memo, index, params, True)
        if hit:
            self.obs.counter("service.place.index_hits").inc()
        if type(doc) is EncodedDoc:
            doc = doc.extended(key=key, cached=cached)
        else:
            doc = {**doc, "key": key, "cached": cached}
        doc["ms"] = round((time.perf_counter() - start) * 1e3, 3)
        return doc

    #: Hard cap on one ``place_many`` batch; bounds a frame well under
    #: ``MAX_LINE_BYTES`` even with stats for the largest machines.
    MAX_PLACE_BATCH = 4096

    async def place_many(self, params: dict, session: Session) -> dict:
        """One batch of placement queries against one topology.

        The hot-path form of ``place``: one round-trip amortizes the
        frame + topology resolution over up to ``MAX_PLACE_BATCH``
        index lookups.  Each entry of ``queries`` takes the same
        ``policy`` / ``threads`` / ``sockets`` params as ``place``; a
        bad query yields an inline ``{"error": ...}`` result without
        aborting the batch.  ``include_stats=false`` omits the Figure-7
        stats block from each result, shrinking the response ~10x for
        callers that only need orderings.
        """
        queries = params.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _invalid("'queries' must be a non-empty list")
        if len(queries) > self.MAX_PLACE_BATCH:
            raise _invalid(
                f"'queries' exceeds the batch cap "
                f"({len(queries)} > {self.MAX_PLACE_BATCH})"
            )
        include_stats = params.get("include_stats", True)
        if not isinstance(include_stats, bool):
            raise _invalid("'include_stats' must be a boolean")
        key, mctop, cached = await self._topology(params)
        index = await self._index(key, mctop)
        self.obs.histogram("service.place.batch_size").observe(len(queries))
        # Batch results carry no per-query ``ms`` — a lookup's service
        # time is the frame's, measured client-side; the single
        # ``place`` verb keeps it.
        memo = self._place_docs.setdefault(index, {})
        results = []
        memo_hits = 0
        for i, query in enumerate(queries):
            if i and i % 512 == 0:
                # Yield so a long batch cannot starve the event loop.
                await asyncio.sleep(0)
            try:
                if not isinstance(query, dict):
                    raise _invalid("each query must be a JSON object")
                doc, hit = self._memo_query(memo, index, query,
                                            include_stats)
                memo_hits += hit
            except ServiceError as exc:
                doc = {"error": {"code": exc.code, "message": str(exc)}}
            results.append(doc)
        if memo_hits:
            self.obs.counter("service.place.index_hits").inc(memo_hits)
        return {"key": key, "cached": cached, "n_queries": len(results),
                "results": results}

    async def pool_switch(self, params: dict, session: Session) -> dict:
        """Make a configuration the session's active one (paper Section
        6's ``omp_set_binding_policy``), answered from the topology's
        index; the session remembers its recent configurations."""
        key, mctop, cached = await self._topology(params)
        policy = self._policy(params)
        n_threads = _get_int(params, "threads", None)
        n_sockets = _get_int(params, "sockets", None)
        index = await self._index(key, mctop)
        try:
            result = index.get(policy, n_threads, n_sockets)
        except MctopError as exc:
            raise ServiceError(str(exc), code="mctop_error") from exc
        pool = session.switch(key, (policy, n_threads, n_sockets))
        self.obs.counter("service.pool.switches").inc()
        return {
            "key": key,
            "cached": cached,
            "policy": result.policy,
            "n_threads": result.n_threads,
            "ordering": list(result.ordering),
            "pool_len": len(pool),
            "policies_cached": sorted({p.value for p, _, _ in pool}),
        }

    async def validate(self, params: dict, session: Session) -> dict:
        key, mctop, cached = await self._topology(params)
        machine = get_machine(params["machine"])
        comparison = compare_with_os(mctop, read_os_topology(machine))
        return {
            "key": key,
            "cached": cached,
            "all_match": comparison.all_match,
            "report": comparison.report(),
        }

    async def metrics(self, params: dict, session: Session) -> dict:
        """Registry + trace health snapshot.

        Timers and histograms are reported as bounded summaries
        (count/sum/min/max/mean/stdev plus sliding-window p50/p95/p99
        and cumulative buckets), never as raw sample lists, so the
        response size is constant no matter the daemon's uptime; the
        raw event stream stays available through ``mctop trace``.
        ``format="prometheus"`` returns the text exposition instead.
        """
        fmt = params.get("format", "json")
        if fmt in ("prom", "prometheus"):
            return {
                "protocol": PROTOCOL_VERSION,
                "format": "prometheus",
                "prometheus": prometheus_text(self.obs, self.cache),
            }
        if fmt != "json":
            raise _invalid(
                f"unknown metrics format {fmt!r} (known: json, prometheus)"
            )
        trace = self.obs.tracer.summary()
        return {
            "protocol": PROTOCOL_VERSION,
            "registry": self.obs.registry.snapshot(),
            "trace": trace,
            "cache": self.cache.stats(),
            "inflight_inferences": self.singleflight.inflight_keys(),
        }

    async def drift(self, params: dict, session: Session) -> dict:
        """The drift watcher's status document.

        Per-machine severity, last-check age and the latest full
        :class:`~repro.obs.diff.DriftReport`; ``machine=...`` narrows
        the answer to one watched machine.  A daemon running without a
        watcher answers ``{"enabled": false}`` rather than erroring, so
        dashboards (``mctop top``) degrade gracefully.
        """
        machine = params.get("machine")
        if machine is not None and not isinstance(machine, str):
            raise _invalid("'machine' must be a string")
        if self.watcher is None:
            return {"protocol": PROTOCOL_VERSION, "enabled": False}
        doc = self.watcher.status_doc(machine)
        doc["protocol"] = PROTOCOL_VERSION
        return doc

    async def trace(self, params: dict, session: Session) -> dict:
        """Retrieve one retained per-request trace by request id.

        Looks the id up in the tail-retention
        :class:`~repro.obs.trace_store.TraceStore` — directly, or
        through the ``parent_request_id`` alias (so a router's
        fleet-wide id resolves on the member that served the forwarded
        request).  ``found: false`` plus the store's status when the
        trace was never retained or has been evicted; ``enabled:
        false`` when the daemon runs with ``--no-trace-store``.
        """
        request_id = parse_trace_params(params)
        if self.trace_store is None:
            return {"protocol": PROTOCOL_VERSION, "enabled": False,
                    "found": False, "request_id": request_id}
        record = self.trace_store.get(request_id)
        doc = {"protocol": PROTOCOL_VERSION, "enabled": True,
               "found": record is not None, "request_id": request_id}
        if record is not None:
            from repro.obs.trace_store import record_timeline

            doc["record"] = record
            doc["timeline"] = record_timeline(record)
        else:
            doc["store"] = self.trace_store.status_doc()
        return doc

    async def slo(self, params: dict, session: Session) -> dict:
        """The SLO burn-rate engine's status document.

        Per-verb objectives, current fast/slow burn rates, the active
        alert (if any) and good/bad totals.  A daemon running without
        the engine answers ``{"enabled": false}`` rather than erroring,
        so dashboards degrade gracefully.
        """
        if self.slo_engine is None:
            return {"protocol": PROTOCOL_VERSION, "enabled": False}
        doc = self.slo_engine.status_doc()
        doc["protocol"] = PROTOCOL_VERSION
        return doc

    async def profile(self, params: dict, session: Session) -> dict:
        """The sampling profiler's snapshot (or reset).

        ``verb`` restricts the stack listing to one verb's samples;
        ``request_id`` switches to the per-request table (resolving a
        router's fleet-wide id through the ``parent_request_id`` alias)
        and reports ``found``; ``limit`` caps the stack entries kept
        (heaviest first); ``action: "reset"`` clears the store instead.
        A daemon running without ``--profile`` answers
        ``{"enabled": false}`` rather than erroring, the drift pattern.
        """
        action, verb, request_id, limit = parse_profile_params(params)
        if self.profiler is None:
            return {"protocol": PROTOCOL_VERSION, "enabled": False}
        if action == "reset":
            self.profiler.reset()
            return {"protocol": PROTOCOL_VERSION, "enabled": True,
                    "reset": True}
        doc = self.profiler.snapshot(
            verb=verb, request_id=request_id, limit=limit
        )
        doc["protocol"] = PROTOCOL_VERSION
        return doc

    async def cache_fetch(self, params: dict, session: Session) -> dict:
        """Fleet cache peering: a *local-only* cache probe by digest.

        Answers with the ``.mct.gz`` blob (gzip of the canonical
        serialized topology, base64) when the digest is in this
        daemon's memory or disk cache, ``found: false`` otherwise.
        Never triggers an inference and never asks further peers, so
        peer lookups cannot loop or cascade.  Lookups skip the hit/miss
        counters — peer probes are not client traffic.
        """
        key = params.get("key")
        if not isinstance(key, str) or not (
            len(key) == 64 and all(c in "0123456789abcdef" for c in key)
        ):
            raise _invalid("'key' must be a 64-char hex SHA-256 digest")
        mctop = await self.cache.get_async(key, record=False)
        self.obs.counter("service.cache_fetch.requests").inc()
        if mctop is None:
            return {"found": False, "key": key}
        self.obs.counter("service.cache_fetch.hits").inc()
        return {"found": True, "key": key, "machine": mctop.name,
                "blob": encode_mctop_blob(mctop)}

    async def _sleep(self, params: dict, session: Session) -> dict:
        """Debug-only: hold a request slot (tests exercise timeouts and
        backpressure deterministically with it).  Routed only when the
        daemon was started with ``debug_verbs=True``."""
        seconds = params.get("seconds", 0.1)
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise _invalid("'seconds' must be a non-negative number")
        await asyncio.sleep(float(seconds))
        return {"slept": float(seconds)}

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _policy(params: dict) -> Policy:
        value = params.get("policy", "CON_HWC")
        # A list or object policy is unhashable: refuse it before the
        # lookup, or it would surface as an 'internal' error.
        policy = (_POLICY_BY_VALUE.get(value) if isinstance(value, str)
                  else None)
        if policy is None:
            raise _invalid(
                f"unknown policy {value!r} "
                f"(known: {', '.join(p.value for p in ALL_POLICIES)})"
            )
        return policy

    def _memo_query(self, memo: dict, index, query: dict,
                    include_stats: bool) -> tuple[dict, bool]:
        """One query's result document, and whether the memo had it.

        The memo is keyed on the *validated* ``(policy, threads,
        sockets, include_stats)``, so ``threads: true`` or ``1.0`` is
        refused even once ``threads: 1`` is memoized (``True == 1 ==
        1.0`` in Python).  Only grid hits are memoized, each as an
        :class:`~repro.service.protocol.EncodedDoc`; a query outside the
        grid is computed every time.  The memoized document is shared:
        a caller that adds keys copies it first.
        """
        probe = (self._policy(query), _get_int(query, "threads", None),
                 _get_int(query, "sockets", None), include_stats)
        doc = memo.get(probe)
        if doc is not None:
            return doc, True
        doc = self._place_query(index, *probe[:3],
                                include_stats=include_stats)
        if doc["index"]:
            doc = memo[probe] = EncodedDoc.of(doc)
        return doc, False

    def _place_query(self, index, policy: Policy, n_threads: int | None,
                     n_sockets: int | None, *,
                     include_stats: bool = True) -> dict:
        """Answer one placement query from the topology's index: a
        lookup on the precomputed grid, or :meth:`PlacementIndex.get` on
        a miss, which computes through :class:`~repro.place.Placement`
        and raises its ``PlacementError`` for an invalid query.
        ``index`` in the doc records whether the grid answered."""
        hit = index.lookup(policy, n_threads, n_sockets)
        indexed = hit is not None
        if indexed:
            self.obs.counter("service.place.index_hits").inc()
        else:
            self.obs.counter("service.place.index_misses").inc()
            try:
                hit = index.get(policy, n_threads, n_sockets)
            except MctopError as exc:
                raise ServiceError(str(exc), code="mctop_error") from exc
        doc = {
            "policy": hit.policy,
            "n_threads": hit.n_threads,
            "ordering": list(hit.ordering),
            "index": indexed,
        }
        if include_stats:
            doc["stats"] = hit.stats
        return doc
