"""Measurement-knob plumbing of the service ``infer`` verb.

The daemon accepts either the ``repetitions``/``jobs`` shortcuts or a
full ``table`` config document (the ``LatencyTableConfig.to_dict``
shape); both routes go through ``LatencyTableConfig.from_dict`` and
bad input comes back as an ``invalid_params`` service error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm.lat_table import LatencyTableConfig
from repro.errors import ServiceError
from repro.hardware import machine_names
from repro.obs import Observability
from repro.service.cache import InferenceCache, inference_key
from repro.service.handlers import (
    Handlers,
    TopologyParamsMemo,
    parse_inference_params,
)


@pytest.fixture()
def handlers():
    obs = Observability()
    return Handlers(cache=InferenceCache(obs=obs), obs=obs,
                    default_repetitions=31)


def test_defaults(handlers):
    machine, seed, table, key = handlers._inference_params(
        {"machine": "testbox"}
    )
    assert (machine, seed) == ("testbox", 0)
    assert key == inference_key(machine, seed, table)
    assert table == LatencyTableConfig(repetitions=31)


def test_jobs_param_switches_to_pair_sampling(handlers):
    _, _, table, _ = handlers._inference_params(
        {"machine": "testbox", "jobs": 4}
    )
    assert table.jobs == 4
    assert table.effective_sampling() == "pair"


def test_table_document_round_trip(handlers):
    doc = LatencyTableConfig(repetitions=15, sampling="pair").to_dict()
    _, _, table, _ = handlers._inference_params(
        {"machine": "testbox", "table": doc}
    )
    assert table == LatencyTableConfig(repetitions=15, sampling="pair")


def test_shortcuts_override_table_document(handlers):
    _, _, table, _ = handlers._inference_params(
        {"machine": "testbox", "table": {"repetitions": 99},
         "repetitions": 15, "jobs": 2}
    )
    assert table.repetitions == 15
    assert table.jobs == 2


@pytest.mark.parametrize("params", [
    {"machine": "testbox", "table": {"bogus_knob": 1}},
    {"machine": "testbox", "jobs": 0},
    {"machine": "testbox", "jobs": "four"},
    {"machine": "testbox", "table": {"sampling": "quantum"}},
    {"machine": "testbox", "table": {"jobs": 2, "sampling": "sequential"}},
    {"machine": "testbox", "repetitions": 0},
    {"machine": "testbox", "table": "not-a-dict"},
])
def test_bad_measurement_params_are_invalid_params(handlers, params):
    with pytest.raises(ServiceError) as excinfo:
        handlers._inference_params(params)
    assert excinfo.value.code == "invalid_params"


def test_cache_key_ignores_execution_knobs():
    """jobs/vectorized variants share one cache entry; semantic
    changes (and the sequential/pair schemes) do not."""
    pair = LatencyTableConfig(sampling="pair")
    assert inference_key("ivy", 1, pair) == inference_key(
        "ivy", 1, LatencyTableConfig(sampling="pair", jobs=8)
    )
    assert inference_key("ivy", 1, pair) == inference_key(
        "ivy", 1, LatencyTableConfig(sampling="pair", vectorized=False)
    )
    assert inference_key("ivy", 1, pair) != inference_key(
        "ivy", 1, LatencyTableConfig()
    )
    assert inference_key("ivy", 1, pair) != inference_key(
        "ivy", 1, LatencyTableConfig(sampling="pair", repetitions=31)
    )
    assert inference_key("ivy", 1, pair) != inference_key("ivy", 2, pair)


# ------------------------------------------------------------------------
# The params memo gives what the parse and the digest give, raw params in.
# ------------------------------------------------------------------------

#: Values that are equal, or print alike, but validate or digest apart.
SCALARS = st.sampled_from(
    (None, True, False, 0, 1, 2, 4, 31, -1, 1.0, 0.0, -0.0, 31.0, 0.07,
     "", "31", "auto", "pair", "sequential", "quantum", [], [1], {})
)
TABLE_KEYS = st.sampled_from(
    ("repetitions", "stdev_threshold", "stdev_floor", "warm_up", "jobs",
     "sampling", "vectorized", "max_discard_fraction", "bogus_knob")
)
RAW_PARAMS = st.fixed_dictionaries({}, optional={
    "machine": st.one_of(
        st.sampled_from(("testbox", "ivy", "cray-1", "", "synth:1")),
        SCALARS,
    ),
    "seed": SCALARS,
    "repetitions": SCALARS,
    "jobs": SCALARS,
    "table": st.one_of(SCALARS, st.dictionaries(TABLE_KEYS, SCALARS,
                                                max_size=4)),
    "policy": SCALARS,  # read by other layers, never by the parse
})


def _outcome(resolve) -> tuple:
    """The result's ``repr`` and top-level types, or the refusal."""
    try:
        resolved = resolve()
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("value", repr(resolved), tuple(map(type, resolved)))


def _direct(params, default_repetitions, known_machines):
    machine, seed, table = parse_inference_params(
        params, default_repetitions, known_machines
    )
    return machine, seed, table, inference_key(machine, seed, table)


class TestTopologyParamsMemo:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(history=st.lists(RAW_PARAMS, min_size=1, max_size=25),
           daemon=st.booleans())
    def test_matches_the_parse_and_the_digest(self, history, daemon):
        """Through one memo, twice over (so every params is also a
        hit): the same result as the parse plus the digest, or the same
        refusal, for the daemon's catalog check and the router's
        catalog-free parse alike."""
        default, known = (31, machine_names()) if daemon else (75, None)
        memo = TopologyParamsMemo()
        for params in history + history:
            want = _outcome(lambda: _direct(params, default, known))
            got = _outcome(lambda: memo.resolve(params, default, known))
            assert got == want, params

    @pytest.mark.parametrize("a, b", [
        ({"machine": "ivy"}, {"machine": "ivy", "seed": None}),
        ({"machine": "ivy", "seed": 1}, {"machine": "ivy", "seed": True}),
        ({"machine": "ivy", "seed": 1}, {"machine": "ivy", "seed": 1.0}),
        ({"machine": "ivy", "repetitions": 31},
         {"machine": "ivy", "repetitions": 31.0}),
        ({"machine": "ivy", "jobs": 1}, {"machine": "ivy", "jobs": True}),
        ({"machine": "ivy", "table": {"warm_up": 1}},
         {"machine": "ivy", "table": {"warm_up": True}}),
        ({"machine": "ivy", "table": {"stdev_floor": 3}},
         {"machine": "ivy", "table": {"stdev_floor": 3.0}}),
        ({"machine": "ivy", "table": {"stdev_floor": 0.0}},
         {"machine": "ivy", "table": {"stdev_floor": -0.0}}),
        ({"machine": "ivy", "table": {"repetitions": 9}},
         {"machine": "ivy", "table": {"repetitions": True}}),
        ({"machine": "ivy"}, {"machine": "ivy", "table": None}),
    ])
    def test_look_alike_params_never_alias(self, a, b):
        """Params that are equal, or differ only in a value's type or
        in a missing key, each get their own answer in either order."""
        for first, second in ((a, b), (b, a)):
            memo = TopologyParamsMemo()
            for params in (first, second, first, second):
                assert _outcome(lambda: memo.resolve(params)) \
                    == _outcome(lambda: _direct(params, 75, None))

    def test_params_too_deep_to_print_are_resolved_unmemoized(self):
        deep: list = []
        for _ in range(100_000):
            deep = [deep]
        params = {"machine": "ivy", "table": {"stdev_floor": deep}}
        memo = TopologyParamsMemo()
        assert _outcome(lambda: memo.resolve(params)) \
            == _outcome(lambda: _direct(params, 75, None))
        assert memo._memo == {}

    def test_a_refusal_is_never_kept(self):
        memo = TopologyParamsMemo()
        for _ in range(2):
            with pytest.raises(ServiceError, match="unknown machine"):
                memo.resolve({"machine": "cray-1"}, 31, machine_names())
        assert memo._memo == {}

    def test_the_memo_is_cleared_when_full(self):
        memo = TopologyParamsMemo()
        for seed in range(TopologyParamsMemo.MAX_ENTRIES + 3):
            assert memo.resolve({"machine": "ivy", "seed": seed})[3] \
                == inference_key("ivy", seed, LatencyTableConfig())
            assert len(memo._memo) <= TopologyParamsMemo.MAX_ENTRIES
        assert len(memo._memo) == 3
