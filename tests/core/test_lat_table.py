"""Tests for step 1 of MCTOP-ALG: the latency-table collection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.core.algorithm.lat_table import (
    PAPER_DEFAULTS,
    LatencyTableConfig,
    collect_latency_table,
)
from repro.hardware import MeasurementContext, NoiseProfile, get_machine
from repro.obs import Observability


@pytest.fixture()
def quiet_probe(testbox):
    return MeasurementContext(testbox, noise=NoiseProfile.quiet(), seed=1)


class TestCollection:
    def test_table_shape_and_symmetry(self, testbox_probe):
        result = collect_latency_table(
            testbox_probe, LatencyTableConfig(repetitions=31)
        )
        n = testbox_probe.n_hw_contexts()
        assert result.table.shape == (n, n)
        assert np.array_equal(result.table, result.table.T)
        assert (np.diag(result.table) == 0).all()

    def test_medians_near_ground_truth(self, testbox):
        probe = MeasurementContext(testbox, seed=2)
        result = collect_latency_table(probe, LatencyTableConfig(repetitions=41))
        for a in range(testbox.spec.n_contexts):
            for b in range(a + 1, testbox.spec.n_contexts):
                true = testbox.comm_latency(a, b)
                assert abs(result.table[a, b] - true) < 8, (a, b)

    def test_quiet_machine_is_nearly_exact(self, quiet_probe, testbox):
        result = collect_latency_table(
            quiet_probe, LatencyTableConfig(repetitions=9)
        )
        for a in range(8):
            for b in range(a + 1, 8):
                # The TSC read cost has its own jitter (independent of
                # the noise profile), leaving ~2 cycles of residual.
                assert result.table[a, b] == pytest.approx(
                    testbox.comm_latency(a, b), abs=3.0
                )

    def test_sample_accounting(self, testbox_probe):
        cfg = LatencyTableConfig(repetitions=11)
        result = collect_latency_table(testbox_probe, cfg)
        n = testbox_probe.n_hw_contexts()
        n_pairs = n * (n - 1) // 2
        assert result.samples_taken >= n_pairs * cfg.repetitions
        assert result.repetitions == 11

    def test_tsc_overhead_estimated(self, testbox_probe):
        result = collect_latency_table(
            testbox_probe, LatencyTableConfig(repetitions=11)
        )
        assert 20 < result.tsc_overhead < 28  # true overhead is 24

    def test_without_warmup_tables_are_distorted(self, testbox):
        """Skipping DVFS warm-up inflates the measured latencies."""
        cold_probe = MeasurementContext(
            testbox, noise=NoiseProfile.quiet(), seed=3
        )
        cfg = LatencyTableConfig(repetitions=5, warm_up=False, stdev_floor=1e9)
        cold = collect_latency_table(cold_probe, cfg)
        true = testbox.comm_latency(0, 1)
        # The very first measured pair is taken on cold cores.
        assert cold.table[0, 1] > true + 15


class TestPaperDefaults:
    """Section 3.2's parameters, pinned so docstrings cannot drift."""

    def test_section_32_numbers(self):
        assert PAPER_DEFAULTS == {
            "repetitions": 2000,         # "2000 samples per pair"
            "stdev_threshold": 0.07,     # "standard deviation ... 7%"
            "max_stdev_threshold": 0.14, # doubled bound before giving up
        }

    def test_paper_constructor_applies_all_paper_values(self):
        cfg = LatencyTableConfig.paper()
        for field, value in PAPER_DEFAULTS.items():
            assert getattr(cfg, field) == value, field

    def test_library_defaults_share_thresholds_not_repetitions(self):
        """The library default keeps the paper's stability thresholds
        but deliberately uses fewer samples — the simulated probe needs
        far fewer than real hardware for a stable median."""
        cfg = LatencyTableConfig()
        assert cfg.stdev_threshold == PAPER_DEFAULTS["stdev_threshold"]
        assert cfg.max_stdev_threshold == (
            PAPER_DEFAULTS["max_stdev_threshold"]
        )
        assert cfg.repetitions < PAPER_DEFAULTS["repetitions"]

    def test_paper_constructor_overrides(self):
        fast = LatencyTableConfig.paper(repetitions=31)
        assert fast.repetitions == 31
        assert fast.stdev_threshold == PAPER_DEFAULTS["stdev_threshold"]


class TestInstrumentation:
    def test_metrics_recorded(self, testbox_probe):
        result = collect_latency_table(
            testbox_probe, LatencyTableConfig(repetitions=21)
        )
        reg = testbox_probe.obs.registry
        n = testbox_probe.n_hw_contexts()
        assert reg.value("lat_table.pairs") == n * (n - 1) // 2
        assert reg.value("lat_table.samples") == result.samples_taken
        assert reg.get("lat_table.pair_stdev").count == n * (n - 1) // 2
        spans = testbox_probe.obs.tracer.spans_named("lat_table.collect")
        assert len(spans) == 1
        assert spans[0].args["repetitions"] == 21

    def test_retries_counted_under_tight_thresholds(self, testbox):
        obs = Observability()
        probe = MeasurementContext(testbox, seed=5, obs=obs)
        # A threshold below ambient jitter forces retries on some pairs;
        # the generous ceiling lets the doubled threshold succeed.
        cfg = LatencyTableConfig(
            repetitions=41,
            stdev_threshold=0.01,
            max_stdev_threshold=0.2,
            stdev_floor=0.5,
        )
        result = collect_latency_table(probe, cfg)
        assert obs.registry.value("lat_table.retries") > 0
        assert obs.tracer.instants_named("lat_table.retry")
        assert result.discarded_samples > 0
        assert obs.registry.value("lat_table.discarded_samples") == (
            result.discarded_samples
        )


class TestStability:
    def test_impossible_threshold_raises(self, testbox):
        probe = MeasurementContext(
            testbox, noise=NoiseProfile(jitter_sigma=30.0), seed=4
        )
        cfg = LatencyTableConfig(
            repetitions=15,
            stdev_threshold=0.01,
            max_stdev_threshold=0.02,
            stdev_floor=0.1,
        )
        with pytest.raises(MeasurementError):
            collect_latency_table(probe, cfg)

    def test_spiky_environment_retries_but_succeeds(self, testbox):
        probe = MeasurementContext(
            testbox,
            noise=NoiseProfile(jitter_sigma=1.5, spurious_prob=0.08,
                               spurious_scale=200.0),
            seed=5,
        )
        result = collect_latency_table(
            probe, LatencyTableConfig(repetitions=41)
        )
        # Heavy spike rate forces some retries yet medians stay sane.
        assert abs(result.table[0, 1] - testbox.comm_latency(0, 1)) < 10

    def test_stdev_recorded(self, testbox_probe):
        result = collect_latency_table(
            testbox_probe, LatencyTableConfig(repetitions=21)
        )
        assert result.per_pair_stdev.shape == result.table.shape
        off_diag = result.per_pair_stdev[~np.eye(8, dtype=bool)]
        assert (off_diag >= 0).all()


def test_figure5_protocol_subtracts_overhead(testbox):
    """The measured median reflects the overhead subtraction: without
    it, every value would be ~24 cycles high."""
    probe = MeasurementContext(testbox, noise=NoiseProfile.quiet(), seed=6)
    result = collect_latency_table(probe, LatencyTableConfig(repetitions=9))
    true = testbox.comm_latency(3, 7)
    assert abs(result.table[3, 7] - true) < 3  # not true + 24


class TestMedian:
    """``_median`` is ``float(np.median(a))`` bit for bit: the stability
    verdict, and so every golden, rests on the median's exact value."""

    @staticmethod
    def _bits(value: float) -> bytes:
        return np.float64(value).tobytes()

    def test_matches_np_median_bit_for_bit(self):
        from repro.core.algorithm.lat_table import _median

        rng = np.random.default_rng(11)
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
        for size in list(range(1, 12)) + [31, 74, 75, 76, 2000]:
            for trial in range(40):
                a = np.round(rng.normal(100.0, 5.0, size), trial % 3)
                if trial % 4 == 1:
                    a[rng.integers(0, size, 1 + size // 4)] = 0.0
                    a[rng.integers(0, size, 1 + size // 4)] = -0.0
                elif trial % 4 == 2:
                    picks = rng.integers(0, size, 1 + size // 10)
                    a[picks] = rng.choice(specials, picks.size)
                got = _median(a)
                want = float(np.median(a))
                assert self._bits(got) == self._bits(want), (size, trial)

    def test_leaves_the_samples_untouched(self):
        from repro.core.algorithm.lat_table import _median

        a = np.random.default_rng(2).normal(50.0, 3.0, 75)
        before = a.copy()
        _median(a)
        assert a.tobytes() == before.tobytes()
