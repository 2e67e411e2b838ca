"""``mctop loadgen`` — open-loop load generation against ``mctopd``.

Proves (and gates, in CI) the tentpole property of the placement index:
``place`` is a dictionary lookup, and the service sustains 100k+
placement queries per second through ``place_many`` batching.

The generator is **open-loop**: every request frame has a scheduled
arrival time fixed up front from the target rate, and a frame's latency
is measured from its *scheduled* time — not from when a worker got
around to sending it.  A closed-loop generator (send, wait, send) would
silently slow its own arrival rate whenever the server stalls and
under-report tail latency; the open-loop schedule makes that stall show
up in p99/p999 instead (the coordinated-omission correction).

Traffic shape:

* ``place`` frames are ``place_many`` batches of ``batch`` random
  queries drawn (seeded) from the policy × thread-count grid;
* ``infer`` frames are single cache-hit topology requests, mixed in by
  the ``mix`` weights to keep the daemon's non-placement path warm;
* ``workers`` threads share one frame schedule through an atomic
  counter, each with its own client connection, so a slow response
  never delays another worker's frame.

Results feed the same history/regression machinery as ``mctop bench``:
:func:`loadgen_bench_doc` shapes a run as a bench document whose
``loadgen`` mode carries ``place_qps`` and the latency percentiles, so
``BENCH_HISTORY.jsonl`` and ``--compare`` gate placement throughput
commit over commit.
"""

from __future__ import annotations

import itertools
import math
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import MctopError, ServiceError
from repro.place.policies import ALL_POLICIES

#: Fixed latency-histogram bucket bounds (milliseconds); cumulative
#: counts over these make runs comparable and the failure artifact
#: small.
HISTOGRAM_BUCKETS_MS = (
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1000.0,
)


@dataclass
class LoadgenConfig:
    """One load-generation run."""

    machine: str = "testbox"
    duration: float = 10.0
    #: Target *placement-query* arrival rate (queries/sec).  The frame
    #: schedule is derived from it: ``rate / batch`` place frames per
    #: second, plus infer frames per ``mix``.
    rate: float = 150_000.0
    #: Queries per ``place_many`` frame.
    batch: int = 512
    #: Client threads sharing the schedule (one connection each).
    workers: int = 4
    #: Relative frame-mix weights by verb (``place`` frames are
    #: batches; everything else is a single frame).
    mix: dict[str, float] = field(
        default_factory=lambda: {"place": 0.9, "infer": 0.1}
    )
    #: Ship the Figure-7 stats block with every result (10x bigger
    #: responses; off for throughput runs).
    include_stats: bool = False
    seed: int = 1
    repetitions: int | None = None
    #: Un-measured lead-in (seconds) so connection setup and first-touch
    #: costs never pollute the percentiles.
    warmup: float = 0.5


def parse_mix(text: str) -> dict[str, float]:
    """``"place=0.9,infer=0.1"`` → ``{"place": 0.9, "infer": 0.1}``."""
    mix: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        verb, _, weight = part.partition("=")
        try:
            value = float(weight)
        except ValueError:
            raise MctopError(f"bad mix entry {part!r} "
                             "(expected VERB=WEIGHT)") from None
        if value < 0:
            raise MctopError(f"mix weight for {verb!r} must be >= 0")
        mix[verb.strip()] = value
    if not mix or all(v == 0 for v in mix.values()):
        raise MctopError("the traffic mix needs at least one positive "
                         "weight")
    unknown = set(mix) - {"place", "infer"}
    if unknown:
        raise MctopError(
            f"unknown mix verb(s) {', '.join(sorted(unknown))} "
            "(known: place, infer)"
        )
    return mix


def _percentile(sorted_values: list[float], q: float) -> float:
    """The q-quantile (nearest-rank) of an ascending sample list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def latency_histogram(latencies_ms: list[float]) -> dict:
    """Cumulative bucket counts over :data:`HISTOGRAM_BUCKETS_MS`."""
    ascending = sorted(latencies_ms)
    buckets = []
    i = 0
    for bound in HISTOGRAM_BUCKETS_MS:
        while i < len(ascending) and ascending[i] <= bound:
            i += 1
        buckets.append({"le_ms": bound, "count": i})
    return {"buckets": buckets, "count": len(ascending),
            "max_ms": round(ascending[-1], 3) if ascending else 0.0}


def _build_schedule(config: LoadgenConfig, rng: random.Random,
                    max_threads: int) -> list:
    """The full frame schedule: ``[(t_offset, verb, payload), ...]``.

    Place frames are spaced uniformly at ``rate / batch`` per second;
    infer frames are interleaved at the mix's relative frequency.  The
    whole schedule is precomputed so the measured loop does no work but
    sleep/send/record.  ``max_threads`` (the machine's context count,
    from the warm-up inference) bounds the random thread counts so no
    query asks for more contexts than the topology has.
    """
    policies = [p.value for p in ALL_POLICIES]
    n_place = max(1, int(config.rate * config.duration / config.batch))
    place_gap = config.duration / n_place
    events = []
    for i in range(n_place):
        queries = [
            {"policy": rng.choice(policies),
             "threads": rng.randrange(1, max(max_threads, 1) + 1)}
            for _ in range(config.batch)
        ]
        events.append((i * place_gap, "place", queries))
    place_weight = config.mix.get("place", 0.0)
    infer_weight = config.mix.get("infer", 0.0)
    if infer_weight > 0:
        n_infer = max(1, int(n_place * infer_weight /
                             max(place_weight, infer_weight)))
        infer_gap = config.duration / n_infer
        for i in range(n_infer):
            events.append((i * infer_gap + infer_gap / 2, "infer", None))
    events.sort(key=lambda e: e[0])
    return events


class _Recorder:
    """Thread-safe per-verb latency + error accounting."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies: dict[str, list[float]] = {}
        self.errors = 0
        self.query_errors = 0
        self.queries = 0

    def ok(self, verb: str, ms: float, queries: int = 0,
           query_errors: int = 0) -> None:
        with self.lock:
            self.latencies.setdefault(verb, []).append(ms)
            self.queries += queries
            self.query_errors += query_errors

    def fail(self, verb: str, ms: float) -> None:
        with self.lock:
            self.latencies.setdefault(verb, []).append(ms)
            self.errors += 1


def _run_worker(make_client, config: LoadgenConfig, events: list,
                counter, start_at: float, recorder: _Recorder) -> None:
    base = dict(machine=config.machine, seed=config.seed)
    if config.repetitions is not None:
        base["repetitions"] = config.repetitions
    with make_client() as client:
        for index in counter:
            if index >= len(events):
                return
            offset, verb, payload = events[index]
            scheduled = start_at + offset
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                if verb == "place":
                    doc = client.request(
                        "place_many", queries=payload,
                        include_stats=config.include_stats, **base,
                    )
                    bad = sum(1 for r in doc["results"] if "error" in r)
                    recorder.ok(
                        verb, (time.perf_counter() - scheduled) * 1e3,
                        queries=len(payload), query_errors=bad,
                    )
                else:
                    client.request("infer", **base)
                    recorder.ok(
                        verb, (time.perf_counter() - scheduled) * 1e3
                    )
            except ServiceError:
                recorder.fail(verb, (time.perf_counter() - scheduled) * 1e3)


def run_loadgen(config: LoadgenConfig, make_client,
                progress=None) -> dict:
    """Run one open-loop load generation; returns the result document.

    ``make_client`` is a zero-arg callable returning a connected
    :class:`~repro.service.client.MctopClient` context manager — the
    caller owns endpoint/daemon lifetime, the generator owns traffic.
    """
    if config.duration <= 0:
        raise MctopError("duration must be positive")
    if config.rate <= 0:
        raise MctopError("rate must be positive")
    if config.batch < 1:
        raise MctopError("batch must be >= 1")
    if config.workers < 1:
        raise MctopError("workers must be >= 1")
    rng = random.Random(config.seed)

    # Pre-warm: one inference primes the daemon's cache and placement
    # index so the measured window exercises serving, not MCTOP-ALG.
    base = dict(machine=config.machine, seed=config.seed)
    if config.repetitions is not None:
        base["repetitions"] = config.repetitions
    with make_client() as client:
        warm = client.request("infer", **base)
        if progress is not None:
            progress(f"warm: {warm['machine']} "
                     f"({warm['n_contexts']} contexts, "
                     f"cached={warm['cached']})")
        if config.warmup > 0:
            deadline = time.perf_counter() + config.warmup
            queries = [{"policy": "CON_HWC", "threads": 4}] * min(
                config.batch, 64
            )
            while time.perf_counter() < deadline:
                client.request("place_many", queries=queries,
                               include_stats=config.include_stats, **base)

    events = _build_schedule(config, rng, warm["n_contexts"])
    recorder = _Recorder()
    counter = itertools.count()
    start_at = time.perf_counter() + 0.05  # let every worker reach the loop
    threads = [
        threading.Thread(
            target=_run_worker,
            args=(make_client, config, events, counter, start_at, recorder),
            daemon=True,
        )
        for _ in range(config.workers)
    ]
    wall_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start

    place_lat = sorted(recorder.latencies.get("place", []))
    infer_lat = sorted(recorder.latencies.get("infer", []))
    place_qps = recorder.queries / wall if wall > 0 else 0.0
    doc = {
        "format": "mctop-loadgen",
        "machine": config.machine,
        "seed": config.seed,
        "duration": config.duration,
        "wall_seconds": round(wall, 3),
        "target_rate": config.rate,
        "achieved_rate": round(place_qps, 1),
        "place_qps": round(place_qps, 1),
        "batch": config.batch,
        "workers": config.workers,
        "include_stats": config.include_stats,
        "mix": dict(config.mix),
        "n_frames": len(events),
        "n_place_frames": len(place_lat),
        "n_infer_frames": len(infer_lat),
        "n_place_queries": recorder.queries,
        "frame_errors": recorder.errors,
        "query_errors": recorder.query_errors,
        # Percentiles are over *place* frame latencies, each measured
        # from the frame's scheduled arrival time.
        "p50_ms": round(_percentile(place_lat, 0.50), 3),
        "p99_ms": round(_percentile(place_lat, 0.99), 3),
        "p999_ms": round(_percentile(place_lat, 0.999), 3),
        "max_ms": round(place_lat[-1], 3) if place_lat else 0.0,
        "histogram": latency_histogram(place_lat),
    }
    return doc


def loadgen_bench_doc(doc: dict) -> dict:
    """A loadgen result as a bench document, so the run rides the same
    ``BENCH_HISTORY.jsonl`` / ``--compare`` machinery as ``mctop
    bench``, with only the metrics the mode measures."""
    stats = {
        "wall_seconds": doc["wall_seconds"],
        "place_qps": doc["place_qps"],
        "p50_ms": doc["p50_ms"],
        "p99_ms": doc["p99_ms"],
        "p999_ms": doc["p999_ms"],
        "achieved_rate": doc["achieved_rate"],
        "target_rate": doc["target_rate"],
        "jobs": doc["workers"],
    }
    return {
        "format": "mctop-bench",
        "quick": False,
        "seed": doc["seed"],
        "machines": [{
            "machine": doc["machine"],
            "repetitions": None,
            "modes": {"loadgen": stats},
        }],
    }


def collect_exemplar_traces(make_client, limit: int = 5) -> dict:
    """The slowest requests of a run, as full traces.

    Reads the daemon's ``service.latency.*`` exemplars (the request ids
    of the slowest observations per verb), then fetches each id's trace
    through the ``trace`` verb.  ``mctop loadgen --trace-out`` dumps the
    result next to the bench artifact so a failed latency gate ships the
    *actual* slow requests, not just their percentile.
    """
    exemplars: list[dict] = []
    traces: list[dict] = []
    with make_client() as client:
        snapshot = client.request("metrics").get("registry", {})
        for name, snap in snapshot.items():
            if not name.startswith("service.latency."):
                continue
            verb = name[len("service.latency."):]
            for value, label in snap.get("exemplars", []):
                exemplars.append({"request_id": label, "verb": verb,
                                  "seconds": value})
        exemplars.sort(key=lambda e: e["seconds"], reverse=True)
        del exemplars[limit:]
        for entry in exemplars:
            try:
                doc = client.trace(entry["request_id"])
            except ServiceError:
                doc = None
            traces.append(dict(entry, trace=doc))
    return {
        "format": "mctop-loadgen-traces",
        "count": len(traces),
        "traces": traces,
    }


def collect_profile(make_client, limit: int = 500) -> dict:
    """The daemon's profile snapshot after a run.

    ``mctop loadgen --profile-out`` dumps this next to the bench
    artifact (and the slowest-request traces), so a regressed run ships
    *where the CPU time went* along with its latency percentiles.  A
    daemon running without ``--profile`` (or predating the verb) yields
    an ``enabled: false`` document rather than an error.
    """
    with make_client() as client:
        try:
            doc = client.request("profile", limit=limit)
        except ServiceError:
            doc = {"enabled": False, "error": "unsupported"}
    return {"format": "mctop-loadgen-profile", "profile": doc}


def render_loadgen_report(doc: dict) -> str:
    """The human-readable run summary ``mctop loadgen`` prints."""
    lines = [
        f"loadgen: {doc['machine']} — "
        f"{doc['n_place_queries']:,} place queries in "
        f"{doc['wall_seconds']}s "
        f"({doc['place_qps']:,.0f} qps, target {doc['target_rate']:,.0f})",
        f"  frames: {doc['n_place_frames']} place_many x{doc['batch']}"
        f" + {doc['n_infer_frames']} infer "
        f"({doc['workers']} workers, "
        f"stats={'on' if doc['include_stats'] else 'off'})",
        f"  latency (place frame, from scheduled arrival): "
        f"p50 {doc['p50_ms']}ms  p99 {doc['p99_ms']}ms  "
        f"p999 {doc['p999_ms']}ms  max {doc['max_ms']}ms",
    ]
    if doc["frame_errors"] or doc["query_errors"]:
        lines.append(f"  errors: {doc['frame_errors']} frames, "
                     f"{doc['query_errors']} queries")
    return "\n".join(lines)


class SelfHostedDaemon:
    """A throwaway in-process ``mctopd`` for self-contained runs.

    ``mctop loadgen`` without an endpoint (and the CI smoke job) spin
    one up on a Unix socket in a temp directory: the daemon runs its
    asyncio loop on a background thread, the generator talks to it over
    the real wire path, and everything is torn down on exit.
    """

    def __init__(self, repetitions: int = 31, store_dir=None,
                 profile: bool = False, profile_hz: float = 100.0):
        self.repetitions = repetitions
        self._store_dir = store_dir
        self.profile = profile
        self.profile_hz = profile_hz
        self._tmp = None
        self.unix_path: str | None = None
        self._thread: threading.Thread | None = None
        self._loop = None
        self._daemon = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    def __enter__(self) -> "SelfHostedDaemon":
        self._tmp = tempfile.TemporaryDirectory(prefix="mctop-loadgen-")
        root = Path(self._tmp.name)
        self.unix_path = str(root / "mctopd.sock")
        store = self._store_dir or str(root / "store")
        self._thread = threading.Thread(
            target=self._run, args=(store,), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("the self-hosted daemon never came up",
                               code="unavailable")
        if self._failure is not None:
            raise ServiceError(
                f"the self-hosted daemon failed to start: {self._failure}",
                code="unavailable",
            )
        return self

    def _run(self, store: str) -> None:
        import asyncio

        from repro.service.daemon import MctopDaemon, ServeConfig

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._daemon = MctopDaemon(ServeConfig(
                unix_path=self.unix_path,
                store_dir=store,
                default_repetitions=self.repetitions,
                profile=self.profile,
                profile_hz=self.profile_hz,
            ))
            await self._daemon.start()
            self._ready.set()
            await self._daemon.wait_closed()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced from __enter__
            self._failure = exc
            self._ready.set()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._daemon is not None:
            self._loop.call_soon_threadsafe(self._daemon.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=30)
        if self._tmp is not None:
            self._tmp.cleanup()
