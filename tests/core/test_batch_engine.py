"""The batched measurement engine: equivalence, determinism, config.

The engine's whole value proposition is "same bits, less time", so
nearly every test here is an equality assertion:

* sequential scheme: the vectorized per-attempt batch must be
  bit-identical to the original one-sample-at-a-time loop (the golden
  fixtures pin the latter);
* pair-seeded scheme: scalar, vectorized and multi-process collection
  must all produce the same table, stdevs and retry counts;
* the config round-trips through dicts and rejects unknown keys.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.algorithm.lat_table import (
    LatencyTableConfig,
    collect_latency_table,
)
from repro.errors import ConfigError, MctopError, ReproError
from repro.hardware import MeasurementContext, NoiseProfile, get_machine
from repro.hardware.probes import PairSampler


def _collect(machine_name, cfg, seed=5):
    probe = MeasurementContext(get_machine(machine_name), seed=seed)
    return collect_latency_table(probe, cfg)


def _assert_results_equal(a, b):
    assert np.array_equal(a.table, b.table)
    assert np.array_equal(a.per_pair_stdev, b.per_pair_stdev)
    assert a.retried_pairs == b.retried_pairs
    assert a.samples_taken == b.samples_taken
    assert a.discarded_samples == b.discarded_samples
    assert a.tsc_overhead == b.tsc_overhead


# ------------------------------------------------- sequential scheme


@pytest.mark.parametrize("machine", ["testbox", "opteron"])
def test_sequential_vectorized_equals_scalar(machine):
    """Same seed -> identical table, stdevs and retry counts."""
    vec = _collect(machine, LatencyTableConfig(vectorized=True))
    sca = _collect(machine, LatencyTableConfig(vectorized=False))
    _assert_results_equal(vec, sca)


def _oracle_pairs(machine):
    """A same-core pair when the machine has SMT, then a same-socket
    pair on another core and a cross-socket pair."""
    n = machine.spec.n_contexts
    core = machine.core_of
    socket = machine.socket_of
    pairs = [(0, y) for y in range(1, n) if core(y) == core(0)][:1]
    pairs += [(0, y) for y in range(1, n)
              if core(y) != core(0) and socket(y) == socket(0)][:1]
    pairs += [(1, y) for y in range(2, n) if socket(y) != socket(1)][-1:]
    return pairs


#: case -> (MeasurementContext keywords, warm the cores first,
#: VirtualTsc attributes to set)
_ORACLE_CASES = {
    # Warm cores: the DVFS factor is ~1 and noise dominates.
    "warm": ({}, True, {}),
    # Cold cores: every sample moves the DVFS trajectory.
    "cold": ({}, False, {}),
    # Background activity: spike-heavy, so the exponential is drawn often.
    "not_solo": ({"solo": False}, False, {}),
    # No noise draws at all; only the rdtsc normal.
    "quiet": ({"noise": NoiseProfile.quiet()}, False, {}),
    # An exact TSC: no rdtsc draw, only the noise.
    "exact_tsc": ({}, False, {"jitter": 0.0}),
    # Noise wider than any latency and an rdtsc cost near zero, so both
    # max(·, 0.0) clamps fire.
    "clamped": ({"noise": NoiseProfile(jitter_sigma=400.0)}, False,
                {"overhead": 0.5}),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
@pytest.mark.parametrize("machine_name", ["testbox", "opteron", "ivy"])
def test_probe_batch_equals_scalar_samples(machine_name, case):
    """sample_pair_latencies is n scalar sample_pair_latency calls, bit
    for bit: the same samples, the same samples_taken, the same DVFS
    warmth on every core, and the same generator state afterwards —
    equal state shows the same draws were consumed in the same order.
    testbox and ivy have SMT, so their first pair is a same-core pair."""
    kwargs, warm, tsc_attrs = _ORACLE_CASES[case]
    machine = get_machine(machine_name)
    pairs = _oracle_pairs(machine)
    if machine.spec.n_contexts > machine.spec.n_cores:
        assert machine.core_of(pairs[0][0]) == machine.core_of(pairs[0][1])
    a = MeasurementContext(machine, seed=9, **kwargs)
    b = MeasurementContext(machine, seed=9, **kwargs)
    for probe in (a, b):
        for attr, value in tsc_attrs.items():
            setattr(probe.tsc, attr, value)
        if warm:
            for ctx in sorted({c for pair in pairs for c in pair}):
                probe.warm_up(ctx)
    n = 75
    for x, y in pairs:
        line_a, line_b = a.fresh_line(), b.fresh_line()
        scalar = np.array(
            [a.sample_pair_latency(x, y, line_a) for _ in range(n)]
        )
        batch = b.sample_pair_latencies(x, y, n, line_id=line_b)
        assert batch.dtype == scalar.dtype and batch.shape == (n,)
        assert batch.tobytes() == scalar.tobytes(), (x, y)
        if case == "clamped":
            assert (batch == 0.0).any()
    assert a.samples_taken == b.samples_taken == n * len(pairs)
    cores = range(machine.spec.n_cores)
    assert [a.dvfs.warmth_of(c) for c in cores] == \
        [b.dvfs.warmth_of(c) for c in cores]
    assert a._rng.bit_generator.state == b._rng.bit_generator.state


# ------------------------------------------------- pair-seeded scheme


@pytest.mark.parametrize("machine", ["testbox", "opteron"])
def test_pair_scheme_vectorized_equals_scalar(machine):
    vec = _collect(
        machine, LatencyTableConfig(sampling="pair", vectorized=True)
    )
    sca = _collect(
        machine, LatencyTableConfig(sampling="pair", vectorized=False)
    )
    _assert_results_equal(vec, sca)


def test_jobs_determinism():
    """jobs=4 merges into exactly the jobs=1 table (and stats)."""
    one = _collect("testbox", LatencyTableConfig(sampling="pair", jobs=1))
    four = _collect("testbox", LatencyTableConfig(sampling="pair", jobs=4))
    _assert_results_equal(one, four)


def test_jobs_obs_counters_match_parent():
    """The merged run reports the same counters a jobs=1 run does."""
    p1 = MeasurementContext(get_machine("testbox"), seed=5)
    p4 = MeasurementContext(get_machine("testbox"), seed=5)
    collect_latency_table(p1, LatencyTableConfig(sampling="pair", jobs=1))
    collect_latency_table(p4, LatencyTableConfig(sampling="pair", jobs=4))
    for name in ("lat_table.pairs", "lat_table.retries",
                 "lat_table.samples", "lat_table.discarded_samples"):
        assert p1.registry.value(name, 0) == p4.registry.value(name, 0), name
    assert p1.obs.summary() == p4.obs.summary()


def test_jobs_trace_stitching():
    """The merged parent trace carries one stitched child span per
    worker chunk, and summaries stay bit-identical across jobs values."""
    from repro.core.algorithm.lat_table import _chunk_pairs

    p1 = MeasurementContext(get_machine("testbox"), seed=5)
    p4 = MeasurementContext(get_machine("testbox"), seed=5)
    collect_latency_table(p1, LatencyTableConfig(sampling="pair", jobs=1))
    collect_latency_table(p4, LatencyTableConfig(sampling="pair", jobs=4))

    n = p4.n_hw_contexts()
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    expected_chunks = len(_chunk_pairs(pairs, 4))

    chunk_spans = p4.tracer.spans_named("lat_table.worker_chunk")
    assert len(chunk_spans) == expected_chunks
    (collect_span,) = p4.tracer.spans_named("lat_table.collect")
    for span in chunk_spans:
        assert span.stitched is True
        assert span.parent_id == collect_span.id
        assert span.args["n_pairs"] > 0
        assert 0 <= span.args["worker"] < 4
    assert sum(s.args["n_pairs"] for s in chunk_spans) == len(pairs)

    # A jobs=1 run has no worker chunks...
    assert p1.tracer.spans_named("lat_table.worker_chunk") == []
    # ...yet the deterministic summaries are bit-identical: stitched
    # spans are export-only and never leak into golden provenance.
    assert p1.obs.summary() == p4.obs.summary()
    s1, s4 = p1.tracer.summary(), p4.tracer.summary()
    assert s1["finished_spans"] == s4["finished_spans"]
    assert s1["instants"] == s4["instants"]
    assert s1["dropped_spans"] == s4["dropped_spans"] == 0
    # Per-name span *counts* match exactly (durations are wall clock).
    assert {k: v["count"] for k, v in s1["by_name"].items()} == \
        {k: v["count"] for k, v in s4["by_name"].items()}


def test_pair_sampler_order_independent():
    probe = MeasurementContext(get_machine("testbox"), seed=3)
    for ctx in range(probe.n_hw_contexts()):
        probe.warm_up(ctx)
    spec = probe.batch_spec()
    pairs = [(0, 1), (2, 5), (1, 6), (3, 4)]
    forward = PairSampler(spec)
    backward = PairSampler(spec)
    got_fwd = {p: forward.sample_attempt(*p, 32, attempt=0) for p in pairs}
    got_bwd = {
        p: backward.sample_attempt(*p, 32, attempt=0)
        for p in reversed(pairs)
    }
    for p in pairs:
        assert np.array_equal(got_fwd[p], got_bwd[p])


def test_infer_identical_across_modes():
    """Full inference is byte-identical for scalar/batched/jobs."""
    import json

    from repro import infer
    from repro.core.serialize import mctop_to_dict

    def doc(**knobs):
        mctop = infer("testbox", seed=1, sampling="pair", **knobs)
        return json.dumps(mctop_to_dict(mctop), sort_keys=True)

    scalar = doc(vectorized=False)
    batched = doc(vectorized=True)
    fanned = doc(vectorized=True, jobs=3)
    assert scalar == batched == fanned


# ------------------------------------------------------ configuration


def test_config_round_trips_through_dicts():
    cfg = LatencyTableConfig(repetitions=31, jobs=2, sampling="pair",
                             stdev_floor=2.5)
    assert LatencyTableConfig.from_dict(cfg.to_dict()) == cfg
    assert LatencyTableConfig.from_dict({}) == LatencyTableConfig()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="repetition_count"):
        LatencyTableConfig.from_dict({"repetition_count": 10})


def test_config_rejects_bad_sampling():
    with pytest.raises(ConfigError, match="sampling"):
        LatencyTableConfig(sampling="quantum")


def test_config_rejects_bad_jobs():
    with pytest.raises(ConfigError):
        LatencyTableConfig(jobs=0)
    with pytest.raises(ConfigError, match="sequential"):
        LatencyTableConfig(jobs=2, sampling="sequential")


def test_config_error_is_catchable_as_mctop_and_repro_error():
    with pytest.raises(MctopError):
        LatencyTableConfig.from_dict({"nope": 1})
    with pytest.raises(ReproError):
        LatencyTableConfig.from_dict({"nope": 1})


def test_effective_sampling_resolution():
    assert LatencyTableConfig().effective_sampling() == "sequential"
    assert LatencyTableConfig(jobs=2).effective_sampling() == "pair"
    assert LatencyTableConfig(sampling="pair").effective_sampling() == "pair"


def test_cache_key_dict_drops_execution_knobs():
    base = LatencyTableConfig(sampling="pair")
    for variant in (
        LatencyTableConfig(sampling="pair", jobs=4),
        LatencyTableConfig(sampling="pair", vectorized=False),
        dataclasses.replace(base, jobs=8),
    ):
        assert variant.cache_key_dict() == base.cache_key_dict()
    # ...but semantic knobs still separate entries.
    assert (
        LatencyTableConfig(repetitions=31).cache_key_dict()
        != base.cache_key_dict()
    )
    # auto with jobs resolves to the same key as explicit pair sampling.
    assert LatencyTableConfig(jobs=4).cache_key_dict() == base.cache_key_dict()
