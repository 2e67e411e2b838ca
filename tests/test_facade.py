"""The public API façade: ``from repro import ...``.

The package root is the supported import surface.  These tests pin the
exported names, the ``infer`` convenience entry point and the error
hierarchy's single root.
"""

import pytest

import repro
from repro import (
    ConfigError,
    LatencyTableConfig,
    Mctop,
    MctopError,
    PlacementPool,
    ReproError,
    infer,
    load_mctop,
    save_mctop,
)


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_facade_exports_are_canonical():
    from repro.core.algorithm.lat_table import (
        LatencyTableConfig as DeepConfig,
    )
    from repro.core.mctop import Mctop as DeepMctop
    from repro.core.serialize import load_mctop as deep_load
    from repro.place.pool import PlacementPool as DeepPool

    assert LatencyTableConfig is DeepConfig
    assert Mctop is DeepMctop
    assert load_mctop is deep_load
    assert PlacementPool is DeepPool


def test_fuzz_facade_exports_are_canonical():
    from repro.core.groundtruth import ground_truth_mctop as deep_truth
    from repro.fuzz import run_fuzz as deep_run_fuzz
    from repro.hardware.synth import SynthSpec as DeepSpec

    assert repro.run_fuzz is deep_run_fuzz
    assert repro.SynthSpec is DeepSpec
    assert repro.ground_truth_mctop is deep_truth
    assert repro.generate_spec(0).seed == 0


def test_infer_accepts_machine_name(tmp_path):
    mctop = infer("testbox", seed=1, repetitions=31)
    assert isinstance(mctop, Mctop)
    assert mctop.n_contexts == 8
    path = save_mctop(mctop, tmp_path / "t.mct")
    assert load_mctop(path).n_contexts == 8


def test_infer_accepts_machine_object_and_table_dict():
    machine = repro.get_machine("testbox")
    mctop = infer(machine, seed=1,
                  table={"repetitions": 31, "sampling": "pair"})
    assert mctop.n_contexts == 8


def test_infer_knobs_override_table():
    report_a = __import__(
        "repro.core.algorithm.inference", fromlist=["InferenceReport"]
    ).InferenceReport()
    infer("testbox", seed=1, table={"repetitions": 75},
          repetitions=31, report=report_a)
    n_pairs = 8 * 7 // 2
    assert report_a.samples_taken == n_pairs * 31


def test_infer_rejects_unknown_table_keys():
    with pytest.raises(ConfigError, match="repetition_count"):
        infer("testbox", table={"repetition_count": 10})


def test_infer_rejects_config_plus_knobs():
    from repro.core.algorithm.inference import InferenceConfig

    with pytest.raises(ConfigError):
        infer("testbox", config=InferenceConfig(), jobs=2)


def test_error_hierarchy_single_root():
    from repro.errors import (
        ClusteringError,
        MeasurementError,
        ProtocolError,
        ServiceError,
    )

    for exc_type in (MctopError, MeasurementError, ClusteringError,
                     ServiceError, ProtocolError, ConfigError):
        assert issubclass(exc_type, ReproError), exc_type


def test_probes_unknown_attribute_still_raises():
    import repro.hardware.probes as probes

    with pytest.raises(AttributeError):
        probes.definitely_not_a_name
