"""Dynamic voltage and frequency scaling (DVFS) model.

Section 3.5 of the paper describes DVFS as the main enemy of accurate
latency measurement: an underutilized core runs below its maximum
frequency, inflating every cycle count taken on it.  libmctop fights
this by spinning on a core until back-to-back timed loops stop getting
faster.

We model each core's frequency as an exponential ramp from ``freq_min``
to ``freq_max`` driven by accumulated busy cycles, with an idle decay
back toward ``freq_min``.  The ramp constant is chosen so that a few
hundred microseconds of spinning (what libmctop actually does) reaches
the maximum state — and so that *skipping* the warm-up visibly distorts
measurements, which the test suite checks.
"""

from __future__ import annotations

import math

from repro.hardware.machine import MachineSpec


class DvfsState:
    """Per-core frequency state of one machine."""

    #: busy cycles (at fmax) for ~63% of the ramp
    RAMP_TAU = 200_000.0
    #: idle "events" for the frequency to decay back down
    IDLE_DECAY = 0.25

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self._warmth = [0.0] * spec.n_cores  # 0 = cold, 1 = fully ramped

    def frequency(self, core: int) -> float:
        """Current frequency of a core in GHz."""
        s = self.spec
        return s.freq_min_ghz + (s.freq_max_ghz - s.freq_min_ghz) * self._warmth[core]

    def factor(self, core: int) -> float:
        """Multiplier applied to measured cycle counts on this core.

        A core at half frequency makes a fixed-wall-clock event appear
        to take proportionally fewer *reference* cycles — but the
        timestamp counter on modern machines is invariant, so what the
        probe observes is the event's wall-clock time converted at the
        invariant rate.  The visible effect of a cold core is the
        *execution* on it being slower; communication latency itself is
        largely unaffected, while spin-loop calibration runs are.  We
        fold both into a single pessimistic factor: cycle counts taken
        on a cold core are inflated by fmax/fcur.
        """
        return self.spec.freq_max_ghz / self.frequency(core)

    def is_max(self, core: int) -> bool:
        return self._warmth[core] > 0.995

    # Batched measurement support: the probes' sampling loops
    # (``MeasurementContext.sample_pair_latencies`` and the pair
    # scheme's ``PairSampler``) advance the warmth recurrence outside
    # this class, with the per-step ``math.exp`` hoisted, so they need
    # raw access to the state and the exact per-step decay factor.  The
    # sequential loop also inlines ``factor_from_warmth``'s arithmetic.
    # ``run_busy``, ``factor`` and these helpers MUST stay bit-for-bit
    # consistent with those loops — the golden-topology fixtures pin it.
    def warmth_of(self, core: int) -> float:
        """Raw ramp state of a core (0 = cold, 1 = fully ramped)."""
        return self._warmth[core]

    def set_warmth(self, core: int, warmth: float) -> None:
        self._warmth[core] = warmth

    @classmethod
    def busy_decay(cls, cycles: float) -> float:
        """The multiplier ``run_busy`` applies to (1 - warmth) per call."""
        return math.exp(-cycles / cls.RAMP_TAU)

    def factor_from_warmth(self, warmth: float) -> float:
        """:meth:`factor` computed from an explicit warmth value."""
        s = self.spec
        freq = s.freq_min_ghz + (s.freq_max_ghz - s.freq_min_ghz) * warmth
        return s.freq_max_ghz / freq

    def run_busy(self, core: int, cycles: float) -> None:
        """Account busy execution on a core, ramping it up."""
        w = self._warmth[core]
        self._warmth[core] = 1.0 - (1.0 - w) * math.exp(-cycles / self.RAMP_TAU)

    def go_idle(self, core: int) -> None:
        """One idle step (e.g. the thread moved away)."""
        self._warmth[core] *= 1.0 - self.IDLE_DECAY

    def reset(self) -> None:
        self._warmth = [0.0] * self.spec.n_cores

    def fixed_frequency(self) -> bool:
        """True when the machine has no DVFS range at all."""
        return self.spec.freq_min_ghz >= self.spec.freq_max_ghz
