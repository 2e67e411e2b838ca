"""Step 1 of MCTOP-ALG: collecting the context-to-context latency table.

Two simulated threads move from hardware context to hardware context and
fill the N x N table with lock-step CAS measurements (Figure 5).  All of
the paper's stabilization machinery is implemented:

* the rdtsc read overhead is estimated once and subtracted from every
  sample;
* both cores are warmed up until back-to-back spin loops stop getting
  faster (defeating DVFS);
* every pair is sampled ``repetitions`` times; the median is kept and,
  when the standard deviation exceeds ``stdev_threshold`` x median, the
  pair is re-measured with a relaxed threshold (up to
  ``max_stdev_threshold``), after which a :class:`MeasurementError` is
  raised;
* only the upper triangle is measured — the topology is symmetric.

Collection comes in two sampling schemes:

``sequential``
    The original engine: one RNG stream threaded through every pair in
    measurement order.  This is what the golden-topology fixtures pin,
    so it stays the default.  Within it, ``vectorized=True`` fetches
    each attempt's samples as one array from
    :meth:`MeasurementContext.sample_pair_latencies` (bit-identical to
    the scalar loop, several times faster).

``pair``
    The order-independent scheme of :mod:`repro.hardware.probes`: every
    (pair, attempt) gets its own seeded substream and the DVFS state is
    frozen at its post-warm-up snapshot, so pairs can be measured in
    any order by any number of workers.  ``jobs=N`` fans chunked pair
    lists out over ``concurrent.futures`` processes and merges the
    records deterministically — the table is bit-identical for any
    ``jobs`` value and for scalar vs vectorized sampling.

The collection loop is fully instrumented through the probe's
:class:`~repro.obs.Observability`: samples taken, retried pairs,
discarded spurious samples and per-pair stability all land in the
metrics registry, and the whole step runs under a ``lat_table.collect``
span with an instant event per retried pair.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from repro.errors import ConfigError, MeasurementError
from repro.hardware.probes import MeasurementContext, PairProbeSpec, PairSampler

#: Section 3.2's measurement parameters, machine readable: libmctop
#: takes 2000 samples per pair and accepts a pair once the standard
#: deviation is within 7% of the median, doubling the threshold on
#: every retry up to 14%.  The simulated probe needs far fewer samples
#: for a stable median, so :class:`LatencyTableConfig`'s defaults
#: deviate from the paper; ``LatencyTableConfig.paper()`` restores the
#: paper's exact values.
PAPER_DEFAULTS = {
    "repetitions": 2000,
    "stdev_threshold": 0.07,
    "max_stdev_threshold": 0.14,
}

_SAMPLING_SCHEMES = ("auto", "sequential", "pair")

#: config knobs that select *how* the table is computed but cannot
#: change a single bit of it — excluded from cache digests.
_EXECUTION_ONLY_FIELDS = ("vectorized", "jobs")


@dataclass(frozen=True)
class LatencyTableConfig:
    """Knobs of the measurement phase.

    Library defaults are tuned for the simulated probe (a stable median
    needs far fewer samples than real hardware); the paper's own values
    live in :data:`PAPER_DEFAULTS` and are available through
    :meth:`paper`.

    ``sampling`` selects the scheme (see the module docstring);
    ``"auto"`` resolves to ``"pair"`` whenever ``jobs > 1`` and to the
    golden-pinned ``"sequential"`` otherwise.  ``vectorized`` and
    ``jobs`` only change how fast the same table is produced, never its
    contents, and are therefore excluded from cache digests
    (:meth:`cache_key_dict`).
    """

    repetitions: int = 75  # samples per pair; benches can raise it
    stdev_threshold: float = 0.07  # fraction of the median
    max_stdev_threshold: float = 0.14  # retry ceiling
    stdev_floor: float = 3.0  # cycles; absolute tolerance for tiny medians
    spurious_deviation: float = 0.25  # of the median: beyond it, a sample
    # is a spurious measurement and is discarded before the stdev check
    max_discard_fraction: float = 0.2  # more discards than this => retry
    warm_up: bool = True
    warmup_loop_iters: int = 50_000
    vectorized: bool = True  # batch each attempt's samples into one array
    jobs: int = 1  # worker processes; > 1 implies pair sampling
    sampling: str = "auto"  # "auto" | "sequential" | "pair"

    def __post_init__(self) -> None:
        if self.sampling not in _SAMPLING_SCHEMES:
            raise ConfigError(
                f"unknown sampling scheme {self.sampling!r}; "
                f"expected one of {_SAMPLING_SCHEMES}"
            )
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ConfigError(f"jobs must be a positive integer, got {self.jobs!r}")
        if self.jobs > 1 and self.sampling == "sequential":
            raise ConfigError(
                "jobs > 1 requires the order-independent 'pair' sampling "
                "scheme; the 'sequential' scheme threads one RNG stream "
                "through every pair and cannot be parallelized"
            )

    @classmethod
    def paper(cls, **overrides) -> "LatencyTableConfig":
        """The exact Section 3.2 configuration (2000 reps, 7%..14%)."""
        return cls(**{**PAPER_DEFAULTS, **overrides})

    def effective_sampling(self) -> str:
        """The scheme ``"auto"`` resolves to for this configuration."""
        if self.sampling == "auto":
            return "pair" if self.jobs > 1 else "sequential"
        return self.sampling

    # ------------------------------------------------------- dict round-trip
    def to_dict(self) -> dict[str, Any]:
        """All knobs as a plain JSON-compatible dict."""
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LatencyTableConfig":
        """Inverse of :meth:`to_dict`; unknown keys are a :class:`ConfigError`."""
        unknown = sorted(data.keys() - _FIELD_SET)
        if unknown:
            raise ConfigError(
                f"unknown LatencyTableConfig key(s): {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(_FIELD_SET))}"
            )
        return cls(**data)

    def cache_key_dict(self) -> dict[str, Any]:
        """The semantic knobs only — what a result cache should digest.

        Drops :data:`_EXECUTION_ONLY_FIELDS` and resolves ``"auto"``
        sampling, so e.g. ``jobs=4`` and ``jobs=8`` (same table, merged
        in the same order) share one cache entry, while ``sequential``
        vs ``pair`` (genuinely different tables) do not.
        """
        doc = {name: getattr(self, name) for name in _KEY_FIELD_NAMES}
        doc["sampling"] = self.effective_sampling()
        return doc


#: :class:`LatencyTableConfig`'s field names in declaration order, as a
#: set, and without the execution-only knobs, worked out once: the
#: service converts and digests a config on every frame, and
#: ``dataclasses.fields`` is not free.
_FIELD_NAMES = tuple(f.name for f in fields(LatencyTableConfig))
_FIELD_SET = frozenset(_FIELD_NAMES)
_KEY_FIELD_NAMES = tuple(
    name for name in _FIELD_NAMES if name not in _EXECUTION_ONLY_FIELDS
)


@dataclass
class LatencyTableResult:
    """The measured table plus collection statistics."""

    table: np.ndarray  # N x N medians, cycles; diagonal is 0
    repetitions: int
    samples_taken: int
    retried_pairs: int
    tsc_overhead: float
    discarded_samples: int = 0
    per_pair_stdev: np.ndarray = field(repr=False, default=None)


def _median(samples: np.ndarray) -> float:
    """``float(np.median(samples))`` for a 1-D float array, bit for bit,
    without ``np.median``'s generic set-up (a fifth of its cost on a
    75-sample attempt).

    It makes ``np.median``'s own ``np.partition`` call, with the same
    ``kth`` and so the same element order.  It takes the middle element
    plus ``0.0``, which is what ``np.median``'s ``np.mean`` of that one
    element gives (a sum that starts from ``0.0``, divided by one: a
    ``-0.0`` comes out as ``0.0``), or ``np.mean`` of the middle two for
    an even size.  When the partition put a NaN last, it returns that
    NaN, as ``np.median``'s NaN check does.
    """
    n = samples.size
    if n == 0:
        return float(np.median(samples))
    mid = n // 2
    if n % 2:
        part = np.partition(samples, (mid, -1))
        median = part[mid] + 0.0
    else:
        part = np.partition(samples, (mid - 1, mid, -1))
        median = np.mean(part[mid - 1:mid + 1])
    if np.isnan(part[-1]):
        median = part[-1]
    return float(median)


def _judge_attempt(
    samples: np.ndarray, threshold: float, cfg: LatencyTableConfig
) -> tuple[float, float, int, bool]:
    """Stability verdict on one attempt's samples.

    Returns ``(median, stdev, discarded, accepted)`` with the values the
    original engine's numpy operations give (:func:`_median` is
    ``np.median``, bit for bit) — both sampling schemes and both
    vectorized modes share this single code path.
    """
    median = _median(samples)
    # Discard spurious measurements (interrupt-style spikes) the way
    # libmctop does before judging stability (Section 3.5).
    limit_dev = max(cfg.spurious_deviation * abs(median), 12.0)
    kept = samples[np.abs(samples - median) <= limit_dev]
    stdev = float(np.std(kept))
    discarded = cfg.repetitions - kept.size
    limit = max(threshold * abs(median), cfg.stdev_floor)
    accepted = (
        stdev <= limit
        and discarded <= cfg.max_discard_fraction * cfg.repetitions
    )
    return median, stdev, discarded, accepted


def _measure_pair(
    probe: MeasurementContext,
    x: int,
    y: int,
    overhead: float,
    cfg: LatencyTableConfig,
) -> tuple[float, float, int, int]:
    """Median latency for one context pair (sequential scheme).

    Returns ``(median, stdev, retries, discarded)`` where ``discarded``
    counts the spurious samples thrown away across all attempts.
    """
    threshold = cfg.stdev_threshold
    retries = 0
    total_discarded = 0
    while True:
        if cfg.vectorized:
            line = probe.fresh_line()
            samples = probe.sample_pair_latencies(
                x, y, cfg.repetitions, line_id=line
            ) - overhead
        else:
            line = probe.fresh_line()
            samples = np.empty(cfg.repetitions)
            for i in range(cfg.repetitions):
                samples[i] = probe.sample_pair_latency(x, y, line) - overhead
        median, stdev, discarded, accepted = _judge_attempt(
            samples, threshold, cfg
        )
        total_discarded += discarded
        if accepted:
            return median, stdev, retries, total_discarded
        retries += 1
        threshold *= 2.0
        if threshold > cfg.max_stdev_threshold:
            probe.obs.instant(
                "lat_table.pair_failed", pair=[int(x), int(y)],
                stdev=stdev, median=median,
            )
            raise MeasurementError(
                f"pair ({x}, {y}) never stabilized: stdev {stdev:.1f} vs "
                f"median {median:.1f} after {retries} retries — rerun "
                "libmctop solo on the machine, possibly with different "
                "settings (Section 3.5)"
            )


# ------------------------------------------------------------------------
# Pair-seeded scheme: per-pair records, worker fan-out, deterministic merge.
# ------------------------------------------------------------------------


def _measure_pair_seeded(
    sampler: PairSampler,
    x: int,
    y: int,
    overhead: float,
    cfg: LatencyTableConfig,
) -> dict[str, Any]:
    """One pair under the pair-seeded scheme, as a plain record.

    Never raises: a pair that cannot stabilize is returned as a
    ``failed`` record so worker processes hand failures back to the
    parent, which reports them deterministically in pair order.
    """
    threshold = cfg.stdev_threshold
    retries = 0
    total_discarded = 0
    samples_taken = 0
    while True:
        raw = sampler.sample_attempt(
            x, y, cfg.repetitions, attempt=retries, vectorized=cfg.vectorized
        )
        samples_taken += cfg.repetitions
        samples = raw - overhead
        median, stdev, discarded, accepted = _judge_attempt(
            samples, threshold, cfg
        )
        total_discarded += discarded
        if accepted:
            return {
                "pair": (x, y),
                "median": median,
                "stdev": stdev,
                "retries": retries,
                "discarded": total_discarded,
                "samples": samples_taken,
                "failed": False,
            }
        retries += 1
        threshold *= 2.0
        if threshold > cfg.max_stdev_threshold:
            return {
                "pair": (x, y),
                "median": median,
                "stdev": stdev,
                "retries": retries,
                "discarded": total_discarded,
                "samples": samples_taken,
                "failed": True,
            }


def _measure_pairs_chunk(
    spec: PairProbeSpec,
    pairs: list[tuple[int, int]],
    overhead: float,
    cfg: LatencyTableConfig,
) -> dict[str, Any]:
    """Worker entry point: measure a chunk of pairs independently.

    Module level so :mod:`concurrent.futures` can pickle it; builds one
    :class:`PairSampler` per worker invocation and returns plain
    records for the parent to merge, plus the chunk's wall time so the
    parent can stitch one sub-trace span per chunk into its tracer.
    """
    import time

    start = time.perf_counter()
    sampler = PairSampler(spec)
    records = [
        _measure_pair_seeded(sampler, x, y, overhead, cfg) for x, y in pairs
    ]
    return {
        "records": records,
        "dur_us": (time.perf_counter() - start) * 1e6,
        "n_pairs": len(pairs),
    }


def _chunk_pairs(
    pairs: list[tuple[int, int]], jobs: int
) -> list[list[tuple[int, int]]]:
    """Contiguous chunks, a few per worker for load balancing."""
    chunk = max(1, -(-len(pairs) // (jobs * 4)))
    return [pairs[i:i + chunk] for i in range(0, len(pairs), chunk)]


def _collect_pair_seeded(
    probe: MeasurementContext, cfg: LatencyTableConfig
) -> LatencyTableResult:
    """The pair-seeded collection loop, optionally fanned out.

    Warm-up and rdtsc calibration run sequentially on the parent probe
    (they consume its shared RNG stream); sampling then proceeds from
    the frozen :meth:`~MeasurementContext.batch_spec` snapshot, in
    process when ``jobs=1`` or over a process pool otherwise.  Records
    are merged in pair order, so metrics, retry events and the first
    reported failure are identical for every ``jobs`` value.
    """
    obs = probe.obs
    n = probe.n_hw_contexts()
    table = np.zeros((n, n))
    stdevs = np.zeros((n, n))
    start_samples = probe.samples_taken
    retried = 0
    discarded_total = 0

    pair_counter = obs.counter("lat_table.pairs")
    retry_counter = obs.counter("lat_table.retries")
    discard_counter = obs.counter("lat_table.discarded_samples")
    discard_hist = obs.histogram("lat_table.discard_fraction")
    stdev_hist = obs.histogram("lat_table.pair_stdev")

    with obs.span("lat_table.collect", n_contexts=n,
                  repetitions=cfg.repetitions):
        overhead = probe.estimate_tsc_overhead()
        obs.gauge("lat_table.tsc_overhead").set(overhead)

        if cfg.warm_up:
            for ctx in range(n):
                probe.warm_up(ctx, cfg.warmup_loop_iters)

        spec = probe.batch_spec()
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]

        if cfg.jobs > 1:
            chunks = _chunk_pairs(pairs, cfg.jobs)
            pool_start_us = obs.tracer._now_us()
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=cfg.jobs
            ) as pool:
                chunk_results = list(
                    pool.map(
                        _measure_pairs_chunk,
                        (spec for _ in chunks),
                        chunks,
                        (overhead for _ in chunks),
                        (cfg for _ in chunks),
                    )
                )
            # Stitch one child span per worker chunk into the parent
            # trace.  Adopted spans ride along in exports only — the
            # deterministic summary stays identical to a jobs=1 run.
            for index, chunk in enumerate(chunk_results):
                obs.tracer.adopt_span(
                    "lat_table.worker_chunk",
                    dur_us=chunk["dur_us"],
                    start_us=pool_start_us,
                    worker=index % cfg.jobs,
                    chunk=index,
                    n_pairs=chunk["n_pairs"],
                )
            records = [
                rec for chunk in chunk_results for rec in chunk["records"]
            ]
        else:
            sampler = PairSampler(spec)
            records = [
                _measure_pair_seeded(sampler, x, y, overhead, cfg)
                for x, y in pairs
            ]

        for rec in records:  # already in pair order: merge is deterministic
            x, y = rec["pair"]
            probe.samples_taken += rec["samples"]
            if rec["failed"]:
                obs.instant(
                    "lat_table.pair_failed", pair=[int(x), int(y)],
                    stdev=rec["stdev"], median=rec["median"],
                )
                raise MeasurementError(
                    f"pair ({x}, {y}) never stabilized: stdev "
                    f"{rec['stdev']:.1f} vs median {rec['median']:.1f} "
                    f"after {rec['retries']} retries — rerun libmctop solo "
                    "on the machine, possibly with different settings "
                    "(Section 3.5)"
                )
            retried += 1 if rec["retries"] else 0
            discarded_total += rec["discarded"]
            table[x, y] = table[y, x] = max(rec["median"], 0.0)
            stdevs[x, y] = stdevs[y, x] = rec["stdev"]
            pair_counter.inc()
            discard_hist.observe(
                rec["discarded"] / (cfg.repetitions * (rec["retries"] + 1))
            )
            stdev_hist.observe(rec["stdev"])
            if rec["retries"]:
                retry_counter.inc(rec["retries"])
                obs.instant(
                    "lat_table.retry",
                    pair=[int(x), int(y)], retries=rec["retries"],
                )

        discard_counter.inc(discarded_total)
        obs.counter("lat_table.samples").inc(
            probe.samples_taken - start_samples
        )

    return LatencyTableResult(
        table=table,
        repetitions=cfg.repetitions,
        samples_taken=probe.samples_taken - start_samples,
        retried_pairs=retried,
        tsc_overhead=overhead,
        discarded_samples=discarded_total,
        per_pair_stdev=stdevs,
    )


def collect_latency_table(
    probe: MeasurementContext,
    cfg: LatencyTableConfig | None = None,
) -> LatencyTableResult:
    """Fill the N x N latency table (Figure 6, step 1)."""
    cfg = cfg or LatencyTableConfig()
    if cfg.effective_sampling() == "pair":
        return _collect_pair_seeded(probe, cfg)
    obs = probe.obs
    n = probe.n_hw_contexts()
    table = np.zeros((n, n))
    stdevs = np.zeros((n, n))
    start_samples = probe.samples_taken
    retried = 0
    discarded_total = 0

    pair_counter = obs.counter("lat_table.pairs")
    retry_counter = obs.counter("lat_table.retries")
    discard_counter = obs.counter("lat_table.discarded_samples")
    discard_hist = obs.histogram("lat_table.discard_fraction")
    stdev_hist = obs.histogram("lat_table.pair_stdev")

    with obs.span("lat_table.collect", n_contexts=n,
                  repetitions=cfg.repetitions):
        overhead = probe.estimate_tsc_overhead()
        obs.gauge("lat_table.tsc_overhead").set(overhead)

        warmed: set[int] = set()
        for x in range(n):
            if cfg.warm_up and x not in warmed:
                probe.warm_up(x, cfg.warmup_loop_iters)
                warmed.add(x)
            for y in range(x + 1, n):
                if cfg.warm_up and y not in warmed:
                    probe.warm_up(y, cfg.warmup_loop_iters)
                    warmed.add(y)
                median, stdev, retries, discarded = _measure_pair(
                    probe, x, y, overhead, cfg
                )
                retried += 1 if retries else 0
                discarded_total += discarded
                table[x, y] = table[y, x] = max(median, 0.0)
                stdevs[x, y] = stdevs[y, x] = stdev
                pair_counter.inc()
                discard_hist.observe(
                    discarded / (cfg.repetitions * (retries + 1))
                )
                stdev_hist.observe(stdev)
                if retries:
                    retry_counter.inc(retries)
                    obs.instant(
                        "lat_table.retry",
                        pair=[int(x), int(y)], retries=retries,
                    )

        discard_counter.inc(discarded_total)
        obs.counter("lat_table.samples").inc(
            probe.samples_taken - start_samples
        )

    return LatencyTableResult(
        table=table,
        repetitions=cfg.repetitions,
        samples_taken=probe.samples_taken - start_samples,
        retried_pairs=retried,
        tsc_overhead=overhead,
        discarded_samples=discarded_total,
        per_pair_stdev=stdevs,
    )
