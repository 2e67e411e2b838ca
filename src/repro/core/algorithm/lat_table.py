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

Collection is one loop, :func:`collect_latency_table`: one retry loop
(:func:`_measure_pair`) per pair, one fold into the table and the
instruments, one failure report.  A sampling scheme supplies only when
contexts are warmed up and how an attempt's raw samples are drawn, as a
generator of per-pair records in pair order:

``sequential``
    The original engine, pinned by the golden-topology fixtures and so
    the default: one RNG stream threaded through every pair in
    measurement order, each context warmed just before its first pair.
    ``vectorized=True`` draws each attempt as one array
    (:meth:`MeasurementContext.sample_pair_latencies`, bit-identical to
    the scalar loop and several times faster).

``pair``
    The order-independent scheme of :mod:`repro.hardware.probes`: every
    context is warmed first, then every (pair, attempt) gets its own
    seeded substream from the frozen post-warm-up DVFS snapshot, so
    pairs can be measured in any order by any number of workers.
    ``jobs=N`` fans chunked pair lists out over ``concurrent.futures``
    processes; the table is bit-identical for any ``jobs`` value and
    for scalar vs vectorized sampling.

The loop is fully instrumented through the probe's
:class:`~repro.obs.Observability`: samples taken, retried pairs,
discarded spurious samples and per-pair stability all land in the
metrics registry, and the whole step runs under a ``lat_table.collect``
span with an instant event per retried pair and per failed pair.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, NamedTuple

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


def _std(values: np.ndarray) -> float:
    """``float(np.std(values))`` for a 1-D float array, bit for bit,
    without ``np.std``'s generic set-up (most of its cost on a 75-sample
    attempt).

    It makes the ufunc calls ``np.std`` makes: the sum divided by the
    count is the mean, then a subtraction into a new array, an in-place
    square, and the sum of squares divided by the count under a square
    root.  An empty array, which a NaN median leaves, goes to ``np.std``.
    """
    n = values.size
    if n == 0:
        return float(np.std(values))
    dev = np.subtract(values, np.add.reduce(values) / n)
    np.square(dev, out=dev)
    return float(np.sqrt(np.add.reduce(dev) / n))


def _judge_attempt(
    samples: np.ndarray, threshold: float, cfg: LatencyTableConfig
) -> tuple[float, float, int, bool]:
    """Stability verdict on one attempt's samples.

    Returns ``(median, stdev, discarded, accepted)`` with the values the
    original engine's numpy operations give (:func:`_median` is
    ``np.median`` and :func:`_std` is ``np.std``, bit for bit) — both
    sampling schemes and both vectorized modes share this single code
    path.
    """
    median = _median(samples)
    # Discard spurious measurements (interrupt-style spikes) the way
    # libmctop does before judging stability (Section 3.5).
    limit_dev = max(cfg.spurious_deviation * abs(median), 12.0)
    kept = samples[np.abs(samples - median) <= limit_dev]
    stdev = _std(kept)
    discarded = cfg.repetitions - kept.size
    limit = max(threshold * abs(median), cfg.stdev_floor)
    accepted = (
        stdev <= limit
        and discarded <= cfg.max_discard_fraction * cfg.repetitions
    )
    return median, stdev, discarded, accepted


class _PairRecord(NamedTuple):
    """One pair's measurement outcome, as the retry loop hands it to the
    fold.  Plain picklable data, so worker processes can send it back."""

    x: int
    y: int
    median: float
    stdev: float
    retries: int
    discarded: int  # spurious samples thrown away across all attempts
    samples: int  # repetitions x attempts
    failed: bool


def _measure_pair(
    attempt: Callable[[int, int, int], np.ndarray],
    x: int, y: int, overhead: float, cfg: LatencyTableConfig,
) -> _PairRecord:
    """The Section 3.2 retry loop for one pair, under either scheme.

    ``attempt(x, y, retries)`` draws one attempt's raw samples (rdtsc
    overhead still included).  While the attempt is unstable the
    threshold doubles, up to ``max_stdev_threshold``.  Never raises: a
    pair that cannot stabilize comes back as a ``failed`` record, and
    :func:`collect_latency_table` reports it.
    """
    threshold = cfg.stdev_threshold
    retries = 0
    total_discarded = 0
    while True:
        samples = attempt(x, y, retries) - overhead
        median, stdev, discarded, accepted = _judge_attempt(
            samples, threshold, cfg
        )
        total_discarded += discarded
        if accepted:
            break
        retries += 1
        threshold *= 2.0
        if threshold > cfg.max_stdev_threshold:
            break
    attempts = retries + 1 if accepted else retries
    return _PairRecord(x, y, median, stdev, retries, total_discarded,
                       cfg.repetitions * attempts, not accepted)


# ------------------------------------------------------------------------
# The two sampling schemes: each yields its pairs' records in pair order.
# ------------------------------------------------------------------------


def _sequential_records(
    probe: MeasurementContext, overhead: float, cfg: LatencyTableConfig
) -> Iterator[_PairRecord]:
    """Every pair measured in turn from the probe's one RNG stream.

    Lazy: a context is warmed up just before its first pair, and each
    pair is measured only once the previous record has been folded, so
    the shared stream sees the draws in the order the goldens pin.  The
    probe counts its own samples.
    """
    n = probe.n_hw_contexts()
    reps = cfg.repetitions
    if cfg.vectorized:
        def attempt(x: int, y: int, retries: int) -> np.ndarray:
            return probe.sample_pair_latencies(
                x, y, reps, line_id=probe.fresh_line()
            )
    else:
        def attempt(x: int, y: int, retries: int) -> np.ndarray:
            line = probe.fresh_line()
            return np.array([probe.sample_pair_latency(x, y, line)
                             for _ in range(reps)])

    for x in range(n):
        for y in range(x, n):
            # Row 0 meets every context first: warm each just before.
            if cfg.warm_up and x == 0:
                probe.warm_up(y, cfg.warmup_loop_iters)
            if y > x:
                yield _measure_pair(attempt, x, y, overhead, cfg)


def _pair_seeded_chunk(
    spec: PairProbeSpec, pairs: list[tuple[int, int]], overhead: float,
    cfg: LatencyTableConfig,
) -> Iterator[_PairRecord]:
    """Measure pairs in order under the pair-seeded scheme, one at a
    time, up to and including the first that fails: the fold stops
    there, so no later pair is ever needed."""
    sampler = PairSampler(spec)

    def attempt(x: int, y: int, retries: int) -> np.ndarray:
        return sampler.sample_attempt(
            x, y, cfg.repetitions, attempt=retries, vectorized=cfg.vectorized
        )

    for x, y in pairs:
        record = _measure_pair(attempt, x, y, overhead, cfg)
        yield record
        if record.failed:
            return


def _measure_pairs_chunk(
    spec: PairProbeSpec, pairs: list[tuple[int, int]], overhead: float,
    cfg: LatencyTableConfig,
) -> tuple[list[_PairRecord], float]:
    """One worker's chunk of :func:`_pair_seeded_chunk`.

    Module level so :mod:`concurrent.futures` can pickle it; returns the
    chunk's records and its wall time in microseconds, so the parent can
    stitch one sub-trace span per worker chunk into its tracer.
    """
    start = time.perf_counter()
    records = list(_pair_seeded_chunk(spec, pairs, overhead, cfg))
    return records, (time.perf_counter() - start) * 1e6


def _chunk_pairs(
    pairs: list[tuple[int, int]], jobs: int
) -> list[list[tuple[int, int]]]:
    """Contiguous chunks, a few per worker for load balancing."""
    chunk = max(1, -(-len(pairs) // (jobs * 4)))
    return [pairs[i:i + chunk] for i in range(0, len(pairs), chunk)]


def _pair_seeded_records(
    probe: MeasurementContext, overhead: float, cfg: LatencyTableConfig
) -> Iterator[_PairRecord]:
    """Every pair measured from its own seeded substream.

    Every context is warmed up first (on the probe's shared stream);
    sampling then proceeds from the frozen
    :meth:`~MeasurementContext.batch_spec` snapshot.  With ``jobs=1`` it
    is lazy, one pair at a time in pair order, so a failed pair ends
    sampling.  Otherwise chunks go to a process pool and are collected
    in pair order up to the first chunk that holds a failed record; the
    chunks not yet started are cancelled.  Records come back in pair
    order whatever ``jobs`` is, and each record's samples are added to
    the probe's count as it is yielded.
    """
    n = probe.n_hw_contexts()
    if cfg.warm_up:
        for ctx in range(n):
            probe.warm_up(ctx, cfg.warmup_loop_iters)
    spec = probe.batch_spec()
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    if cfg.jobs > 1:
        tracer = probe.obs.tracer
        pool_start_us = tracer._now_us()
        results = []
        # ``jobs`` comes off the wire too: never fork more workers than
        # there are CPUs.  Chunks still follow ``jobs``, so the table
        # and the worker-chunk spans do not depend on the host.
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(cfg.jobs, os.cpu_count() or 1)
        ) as pool:
            futures = [
                pool.submit(_measure_pairs_chunk, spec, chunk, overhead, cfg)
                for chunk in _chunk_pairs(pairs, cfg.jobs)
            ]
            for future in futures:
                results.append(future.result())
                if results[-1][0][-1].failed:  # a chunk ends at a failure
                    break
            # The fold stops at that failure: cancel the chunks after it
            # that have not started, and read the others for errors.
            for future in futures[len(results):]:
                if not future.cancel():
                    future.result()
        # Stitch one child span per worker chunk into the parent trace.
        # Adopted spans ride along in exports only: the deterministic
        # summary stays identical to a jobs=1 run.
        for index, (records, dur_us) in enumerate(results):
            tracer.adopt_span(
                "lat_table.worker_chunk", dur_us=dur_us,
                start_us=pool_start_us, worker=index % cfg.jobs,
                chunk=index, n_pairs=len(records),
            )
        measured = (record for records, _ in results for record in records)
    else:
        measured = _pair_seeded_chunk(spec, pairs, overhead, cfg)
    for record in measured:
        probe.samples_taken += record.samples
        yield record


def collect_latency_table(
    probe: MeasurementContext,
    cfg: LatencyTableConfig | None = None,
) -> LatencyTableResult:
    """Fill the N x N latency table (Figure 6, step 1).

    The one fold over the selected scheme's records: the table, the
    ``lat_table.*`` instruments, and a :class:`MeasurementError` on the
    first pair that never stabilized.
    """
    cfg = cfg or LatencyTableConfig()
    pair = cfg.effective_sampling() == "pair"
    records = _pair_seeded_records if pair else _sequential_records
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

        for rec in records(probe, overhead, cfg):
            x, y = rec.x, rec.y
            if rec.failed:
                obs.instant(
                    "lat_table.pair_failed", pair=[int(x), int(y)],
                    stdev=rec.stdev, median=rec.median,
                )
                raise MeasurementError(
                    f"pair ({x}, {y}) never stabilized: stdev "
                    f"{rec.stdev:.1f} vs median {rec.median:.1f} after "
                    f"{rec.retries} retries — rerun libmctop solo on the "
                    "machine, possibly with different settings "
                    "(Section 3.5)"
                )
            retried += 1 if rec.retries else 0
            discarded_total += rec.discarded
            table[x, y] = table[y, x] = max(rec.median, 0.0)
            stdevs[x, y] = stdevs[y, x] = rec.stdev
            pair_counter.inc()
            discard_hist.observe(rec.discarded / rec.samples)
            stdev_hist.observe(rec.stdev)
            if rec.retries:
                retry_counter.inc(rec.retries)
                obs.instant("lat_table.retry", pair=[int(x), int(y)],
                            retries=rec.retries)

        discard_counter.inc(discarded_total)
        samples_taken = probe.samples_taken - start_samples
        obs.counter("lat_table.samples").inc(samples_taken)

    return LatencyTableResult(
        table=table,
        repetitions=cfg.repetitions,
        samples_taken=samples_taken,
        retried_pairs=retried,
        tsc_overhead=overhead,
        discarded_samples=discarded_total,
        per_pair_stdev=stdevs,
    )
