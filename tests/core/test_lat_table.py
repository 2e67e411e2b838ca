"""Tests for step 1 of MCTOP-ALG: the latency-table collection."""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import warnings

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


def test_pool_runs_at_most_one_worker_per_cpu(testbox, monkeypatch):
    """``jobs`` arrives off the wire: a pool never outnumbers the CPUs,
    and the table does not depend on how many workers ran it."""
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tables = [
        collect_latency_table(
            MeasurementContext(testbox, seed=3),
            LatencyTableConfig(repetitions=31, jobs=jobs),
        ).table
        for jobs in (4, 2)
    ]
    assert pools == [2, 2]
    assert tables[0].tobytes() == tables[1].tobytes()


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
    """``_median`` is ``float(np.median(a))`` and ``_std`` is
    ``float(np.std(a))``, bit for bit: the stability verdict, and so
    every golden, rests on their exact values."""

    @staticmethod
    def _bits(value: float) -> bytes:
        return np.float64(value).tobytes()

    @staticmethod
    def _corpus(sizes):
        """Rounded normal samples, some with ±0.0, some with ±NaN and
        ±inf, 40 arrays of each size."""
        rng = np.random.default_rng(11)
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
        for size in sizes:
            for trial in range(40):
                a = np.round(rng.normal(100.0, 5.0, size), trial % 3)
                if size and trial % 4 == 1:
                    a[rng.integers(0, size, 1 + size // 4)] = 0.0
                    a[rng.integers(0, size, 1 + size // 4)] = -0.0
                elif size and trial % 4 == 2:
                    picks = rng.integers(0, size, 1 + size // 10)
                    a[picks] = rng.choice(specials, picks.size)
                yield size, trial, a

    def test_matches_np_median_bit_for_bit(self):
        from repro.core.algorithm.lat_table import _median

        for size, trial, a in self._corpus(
                list(range(1, 12)) + [31, 74, 75, 76, 2000]):
            got = _median(a)
            want = float(np.median(a))
            assert self._bits(got) == self._bits(want), (size, trial)

    def test_std_matches_np_std_bit_for_bit(self):
        from repro.core.algorithm.lat_table import _std

        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for size, trial, a in self._corpus(
                    list(range(0, 12)) + [31, 60, 74, 75, 76, 2000]):
                before = a.tobytes()
                got = _std(a)
                assert a.tobytes() == before, (size, trial)
                want = float(np.std(a))
                assert self._bits(got) == self._bits(want), (size, trial)

    def test_leaves_the_samples_untouched(self):
        from repro.core.algorithm.lat_table import _median, _std

        a = np.random.default_rng(2).normal(50.0, 3.0, 75)
        before = a.copy()
        _median(a)
        _std(a)
        assert a.tobytes() == before.tobytes()


# ------------------------------------------------------------------------
# Pinned outputs of both sampling schemes.  The goldens pin only the
# sequential scheme's topologies; these pin each scheme's table, its
# collection statistics and how a retry and a failure read, so a change
# that moved every scheme together cannot pass unseen.
# ------------------------------------------------------------------------

#: scheme name -> the LatencyTableConfig keywords that select it.
SCHEMES = {
    "sequential": {},
    "pair": {"sampling": "pair"},
    "pair-jobs2": {"sampling": "pair", "jobs": 2},
}

#: (machine, scheme) at seed 5 and 31 repetitions -> sha256 of
#: ``table.tobytes()``, sha256 of ``per_pair_stdev.tobytes()``,
#: samples taken, discarded samples, warm-up rounds.  No pair retries.
#: ``jobs`` cannot change a bit, so "pair-jobs2" shares "pair"'s row.
PINNED = {
    ("testbox", "sequential"): (
        "99ac8524d61bf85a752d99bbc82d4faee3ae1ab1a828db2b84f981bbaadb0de7",
        "6fc196b060314c406375ac0fd0b58eb020c752df31be13ca90a72114963e646f",
        868, 1, 68,
    ),
    ("testbox", "pair"): (
        "4a806e0e6fab765385cb1002b723de1e951c5773044b598fb779f362d70b1c0e",
        "051345bb025313adad07e53e7a8b0246c6170447156af263b318ab3be05b6314",
        868, 0, 68,
    ),
    ("opteron", "sequential"): (
        "22fd8fbd0b0ffd7ad600d2accd605cd9210c4d416bcf7d9b0ea9eda59ea38be1",
        "b901cbeb11767d0583840d1a40ad60d4e7ad9c47be0b395ea32de4ae12b4779f",
        34968, 108, 96,
    ),
    ("opteron", "pair"): (
        "08ba62a6023f5ac4be2f1120c8107230ed9dd3b56f65302a9553e20803ce787c",
        "538705a9c76559858267455c025bd3c600acc22cf4c885652d417b527542ed13",
        34968, 90, 96,
    ),
    ("ivy", "sequential"): (
        "bbef99e523fee7d548fe563dd6f404f1ad32bce75226c466d84e237e8f827c2b",
        "fd62d142cf94214e4f4d52539380bbe9e1415fd0def295e32a6d442dc91a56e5",
        24180, 74, 350,
    ),
    ("ivy", "pair"): (
        "80142b0b3f0b73528d42b31d0f24207558278c9d4ee72cb3d1775dff2ed2b126",
        "6b824adbf9741e41080718cd7940234fe172a64bcbfbce78f030c5919feb4050",
        24180, 65, 349,
    ),
}

#: The retry configuration of ``test_retries_counted_under_tight_thresholds``
#: -> the ``lat_table.retry`` instants' args, in order, per scheme.
RETRY_CFG = dict(repetitions=41, stdev_threshold=0.01,
                 max_stdev_threshold=0.2, stdev_floor=0.5)
PINNED_RETRIES = {
    "sequential": [
        ((0, 1), 2), ((0, 4), 3), ((0, 5), 1), ((1, 2), 1), ((1, 4), 1),
        ((1, 5), 3), ((2, 3), 2), ((2, 6), 3), ((2, 7), 2), ((3, 6), 1),
        ((3, 7), 3), ((4, 5), 2), ((6, 7), 1),
    ],
    "pair": [
        ((0, 1), 2), ((0, 4), 3), ((0, 5), 1), ((1, 4), 1), ((1, 5), 3),
        ((2, 3), 1), ((2, 6), 4), ((2, 7), 2), ((3, 6), 1), ((3, 7), 3),
        ((4, 5), 2), ((6, 7), 2),
    ],
}

#: A pair that never settles: testbox, seed 1, jitter 2.0 against a
#: 1%..2% threshold.  Per scheme: the failed pair's stdev and median
#: (as the pair_failed instant carries them) and the warm-ups done.
FAIL_CFG = dict(repetitions=15, stdev_threshold=0.01,
                max_stdev_threshold=0.02, stdev_floor=0.1)
PINNED_FAILURE = {
    "sequential": (2.32415897085411, 26.669563444748555, 5, 62),
    "pair": (2.0794776734679608, 24.78445882473534, 8, 68),
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestPinnedOutputs:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("machine", ["testbox", "opteron", "ivy"])
    def test_table_and_statistics(self, machine, scheme):
        probe = MeasurementContext(get_machine(machine), seed=5)
        result = collect_latency_table(
            probe, LatencyTableConfig(repetitions=31, **SCHEMES[scheme])
        )
        table, stdev, samples, discarded, rounds = \
            PINNED[(machine, scheme.split("-")[0])]
        n = probe.n_hw_contexts()
        assert _sha256(result.table) == table
        assert _sha256(result.per_pair_stdev) == stdev
        assert result.samples_taken == samples
        assert result.retried_pairs == 0
        assert result.discarded_samples == discarded
        assert probe.obs.summary() == {
            "counters": {
                "lat_table.discarded_samples": discarded,
                "lat_table.pairs": n * (n - 1) // 2,
                "lat_table.retries": 0,
                "lat_table.samples": samples,
                "probe.warmup_rounds": rounds,
                "probe.warmups": n,
            },
            "dropped_events": 0,
            "instants": 0,
            "spans": 1,
        }

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_retry_instants(self, testbox, scheme):
        probe = MeasurementContext(testbox, seed=5)
        collect_latency_table(
            probe, LatencyTableConfig(**RETRY_CFG, **SCHEMES[scheme])
        )
        got = [(tuple(i.args["pair"]), i.args["retries"])
               for i in probe.tracer.instants_named("lat_table.retry")]
        expected = PINNED_RETRIES[scheme.split("-")[0]]
        assert got == expected
        assert probe.registry.value("lat_table.retries") == \
            sum(r for _, r in expected)

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_failure_report(self, testbox, scheme, vectorized):
        probe = MeasurementContext(
            testbox, noise=NoiseProfile(jitter_sigma=2.0), seed=1
        )
        cfg = LatencyTableConfig(**FAIL_CFG, vectorized=vectorized,
                                 **SCHEMES[scheme])
        with pytest.raises(MeasurementError) as exc:
            collect_latency_table(probe, cfg)
        stdev, median, warmups, rounds = PINNED_FAILURE[scheme.split("-")[0]]
        assert str(exc.value) == (
            f"pair (0, 4) never stabilized: stdev {stdev:.1f} vs median "
            f"{median:.1f} after 2 retries — rerun libmctop solo on the "
            "machine, possibly with different settings (Section 3.5)"
        )
        (failed,) = probe.tracer.instants_named("lat_table.pair_failed")
        assert failed.args == {"pair": [0, 4], "stdev": stdev,
                               "median": median}
        # Pairs (0, 1)..(0, 3) were folded, one of them retried once; the
        # failed pair's 2 x 15 samples are counted, but lat_table.samples
        # is not, and only the contexts measured so far are warm under
        # the sequential scheme.
        assert probe.samples_taken == 90
        assert probe.obs.summary() == {
            "counters": {
                "lat_table.discarded_samples": 0,
                "lat_table.pairs": 3,
                "lat_table.retries": 1,
                "probe.warmup_rounds": rounds,
                "probe.warmups": warmups,
            },
            "dropped_events": 0,
            "instants": 2,
            "spans": 1,
        }

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_pair_scheme_stops_at_the_failed_pair(self, testbox, vectorized,
                                                  monkeypatch):
        """Under the pair scheme a failed pair ends sampling: the 6
        attempts (90 samples) the report counts are the only ones
        drawn, not the whole table's."""
        from repro.hardware.probes import PairSampler

        attempts = []
        real = PairSampler.sample_attempt

        def counting(self, *args, **kwargs):
            attempts.append(args[:2])
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PairSampler, "sample_attempt", counting)
        probe = MeasurementContext(
            testbox, noise=NoiseProfile(jitter_sigma=2.0), seed=1
        )
        cfg = LatencyTableConfig(**FAIL_CFG, vectorized=vectorized,
                                 sampling="pair")
        with pytest.raises(MeasurementError, match=r"pair \(0, 4\)"):
            collect_latency_table(probe, cfg)
        assert len(attempts) == 6
        assert attempts[-2:] == [(0, 4), (0, 4)]
        assert probe.samples_taken == 6 * FAIL_CFG["repetitions"]

    def test_pair_scheme_collects_no_chunk_after_the_failed_one(
            self, testbox):
        """Over a pool the first chunk holds the failed pair (0, 4), so
        it is the only chunk collected and stitched into the trace."""
        probe = MeasurementContext(
            testbox, noise=NoiseProfile(jitter_sigma=2.0), seed=1
        )
        cfg = LatencyTableConfig(**FAIL_CFG, sampling="pair", jobs=2)
        with pytest.raises(MeasurementError, match=r"pair \(0, 4\)"):
            collect_latency_table(probe, cfg)
        (chunk,) = probe.tracer.spans_named("lat_table.worker_chunk")
        assert chunk.args["n_pairs"] == 4
