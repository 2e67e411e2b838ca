"""The measurement interface between MCTOP-ALG and the (simulated) hardware.

The paper stresses that MCTOP-ALG needs only three things from the OS:
the number of hardware contexts, the number of memory nodes, and the
ability to pin threads (Section 3).  Everything else is *measured*.
:class:`MeasurementContext` is exactly that boundary: the inference
algorithm and the enrichment plugins may only talk to the hardware
through this class, which layers DVFS behaviour, rdtsc overhead and
measurement noise on top of the deterministic coherence simulator.

Tests that want ground truth use the underlying :class:`Machine`
directly; the algorithm never does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.coherence import CoherenceSimulator
from repro.hardware.dvfs import DvfsState
from repro.hardware.machine import Machine
from repro.hardware.noise import NoiseProfile, NoiseSource
from repro.hardware.os_view import OsTopology, read_os_topology
from repro.hardware.timers import VirtualTsc
from repro.obs import Observability

#: cycles of extra overhead per (1 - 1/ramp) of DVFS coldness on the
#: measuring / remote core — cold cores visibly distort samples.
_DVFS_PENALTY_LOCAL = 90.0
_DVFS_PENALTY_REMOTE = 45.0

#: cycles of busy work one probe sample accounts on each involved core.
_SAMPLE_BUSY_CYCLES = 900.0


class MeasurementContext:
    """A solo measurement run on one machine.

    Parameters
    ----------
    machine:
        The simulated processor.
    noise:
        Noise environment; defaults to the realistic profile.
    seed:
        Seed for every stochastic component, making runs reproducible.
    solo:
        The paper requires a solo execution for the inference run.  With
        ``solo=False`` we model background OS activity by inflating the
        spurious-spike probability — used by failure-injection tests.
    obs:
        Observability container (metrics registry + tracer).  A fresh
        one is created when not given; pass a shared instance to merge
        the measurement trace with a larger run's trace.
    """

    def __init__(
        self,
        machine: Machine,
        noise: NoiseProfile | None = None,
        seed: int = 0,
        solo: bool = True,
        obs: Observability | None = None,
    ):
        self.machine = machine
        self.obs = obs if obs is not None else Observability()
        profile = noise if noise is not None else NoiseProfile()
        if not solo and profile.enabled:
            profile = NoiseProfile(
                jitter_sigma=profile.jitter_sigma * 3,
                spurious_prob=min(0.5, profile.spurious_prob * 40),
                spurious_scale=profile.spurious_scale,
            )
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.noise = NoiseSource(profile, self._rng)
        self.coherence = CoherenceSimulator(machine)
        self.dvfs = DvfsState(machine.spec)
        self.tsc = VirtualTsc(rng=self._rng)
        self.os: OsTopology = read_os_topology(machine)
        self._next_line = 0
        self.samples_taken = 0

    @property
    def registry(self):
        """The metrics registry benchmarks and tests assert against."""
        return self.obs.registry

    @property
    def tracer(self):
        return self.obs.tracer

    # ----------------------------------------------------- OS facilities
    def n_hw_contexts(self) -> int:
        return self.os.n_contexts

    def n_nodes(self) -> int:
        return self.os.n_nodes

    # ------------------------------------------------------- calibration
    def estimate_tsc_overhead(self, reps: int = 128) -> float:
        return self.tsc.estimate_overhead(reps)

    def fresh_line(self) -> int:
        """Allocate a cache line nobody has touched yet."""
        self._next_line += 1
        return self._next_line

    # -------------------------------------------------------- spin loops
    def timed_spin(self, ctx: int, iterations: int,
                   sibling_busy: bool = False) -> float:
        """Run and time a calibrated spin loop on ``ctx``.

        The building block for both the DVFS warm-up loop and SMT
        detection (Section 3.5).  Timing reflects the core's current
        DVFS state; running the loop warms the core up.
        """
        core = self.machine.core_of(ctx)
        true = self.machine.spin_loop_cycles(iterations, sibling_busy)
        measured = true * self.dvfs.factor(core)
        measured += self.tsc.measurement_overhead()
        measured += self.noise.sample()
        self.dvfs.run_busy(core, true)
        return max(measured, 0.0)

    def warm_up(self, ctx: int, loop_iters: int = 50_000,
                tolerance: float = 0.005, max_rounds: int = 64) -> int:
        """Spin on a context until back-to-back loops stop speeding up.

        Returns the number of rounds used.  This is libmctop's
        "reducing the effects of DVFS" procedure.
        """
        rounds = max_rounds
        prev = self.timed_spin(ctx, loop_iters)
        for round_no in range(1, max_rounds):
            cur = self.timed_spin(ctx, loop_iters)
            if cur >= prev * (1.0 - tolerance):
                rounds = round_no + 1
                break
            prev = cur
        self.obs.counter("probe.warmups").inc()
        self.obs.counter("probe.warmup_rounds").inc(rounds)
        return rounds

    def paired_spin(self, x: int, y: int, iterations: int) -> float:
        """Time a spin loop on ``x`` while ``y`` spins concurrently.

        The SMT-detection probe (Section 3.5): if the two contexts share
        a core, SMT resource sharing slows the loop down.  The caller
        does not know whether they share a core — that is what it is
        trying to find out.
        """
        same_core = self.machine.core_of(x) == self.machine.core_of(y)
        self.dvfs.run_busy(self.machine.core_of(y), iterations * 0.5)
        return self.timed_spin(x, iterations, sibling_busy=same_core)

    # -------------------------------------------------- pair measurement
    def sample_pair_latency(self, x: int, y: int, line_id: int) -> float:
        """One raw Figure-5 sample: ``y`` owns the line, ``x``'s CAS is timed.

        The returned value still contains the rdtsc read overhead; the
        measurement layer subtracts its own *estimate* of that overhead,
        exactly as the paper's pseudo-code does.
        """
        true = self.coherence.probe_pair_rfo(requester=x, owner=y, line_id=line_id)
        cx = self.machine.core_of(x)
        cy = self.machine.core_of(y)
        cold_x = self.dvfs.factor(cx) - 1.0
        cold_y = self.dvfs.factor(cy) - 1.0
        measured = (
            true
            + cold_x * _DVFS_PENALTY_LOCAL
            + cold_y * _DVFS_PENALTY_REMOTE
            + self.tsc.measurement_overhead()
            + self.noise.sample()
        )
        self.dvfs.run_busy(cx, _SAMPLE_BUSY_CYCLES)
        self.dvfs.run_busy(cy, _SAMPLE_BUSY_CYCLES)
        self.samples_taken += 1
        return max(measured, 0.0)

    def sample_pair_latencies(
        self, x: int, y: int, n: int, line_id: int | None = None
    ) -> np.ndarray:
        """``n`` Figure-5 samples for one pair as a single array.

        Produces bit-for-bit the values ``n`` consecutive
        :meth:`sample_pair_latency` calls would, and leaves the shared
        generator, the DVFS state and ``samples_taken`` exactly where
        they would leave them, from one loop whose only calls are the
        generator draws:

        * the MESI transaction is priced through the coherence
          simulator once — in the absence of contention the protocol is
          deterministic (Observation 1), so every later lock-step CAS
          on the same line costs exactly the same cycles (and leaves
          the line in the same MODIFIED-at-``x`` state);
        * the DVFS factor (:meth:`DvfsState.factor_from_warmth`) and the
          warmth recurrence (:meth:`DvfsState.run_busy`) are inlined,
          with the frequency range and the per-step decay hoisted;
        * the rdtsc read cost (:meth:`VirtualTsc.read_cost`) and the
          noise (:meth:`NoiseSource.sample`) are drawn inline from the
          generator both were built on, in their order: the rdtsc
          normal, the jitter normal, the spike uniform, then the
          exponential when the sample spikes.  That order is what the
          golden-topology fixtures pin down.
        """
        line = self.fresh_line() if line_id is None else line_id
        true = self.coherence.probe_pair_rfo(requester=x, owner=y, line_id=line)
        cx = self.machine.core_of(x)
        cy = self.machine.core_of(y)
        same_core = cx == cy
        dvfs = self.dvfs
        f_min = dvfs.spec.freq_min_ghz
        f_max = dvfs.spec.freq_max_ghz
        f_span = f_max - f_min
        decay = DvfsState.busy_decay(_SAMPLE_BUSY_CYCLES)
        wx = dvfs.warmth_of(cx)
        wy = dvfs.warmth_of(cy)
        local = _DVFS_PENALTY_LOCAL
        remote = _DVFS_PENALTY_REMOTE
        tsc_base = self.tsc.overhead
        tsc_jitter = self.tsc.jitter
        tsc_drawn = tsc_jitter > 0
        profile = self.noise.profile
        noisy = profile.enabled
        sigma = profile.jitter_sigma
        spike_prob = profile.spurious_prob
        spike_scale = profile.spurious_scale
        # normal(0.0, s) is 0.0 + s * standard_normal(): the same draw,
        # and for s > 0 the same value, without normal()'s per-call
        # argument checks.  The rdtsc scale is > 0 whenever it is drawn;
        # a noise scale that is not keeps normal(), and with it numpy's
        # own handling of such a scale.
        sigma_scales = sigma > 0
        standard_normal = self._rng.standard_normal
        normal = self._rng.normal
        uniform = self._rng.random
        exponential = self._rng.exponential
        out = np.empty(n)
        for i in range(n):
            cold_x = f_max / (f_min + f_span * wx) - 1.0
            if same_core:
                cold_y = cold_x
            else:
                cold_y = f_max / (f_min + f_span * wy) - 1.0
            if tsc_drawn:
                tsc = tsc_base + tsc_jitter * standard_normal()
                if not tsc > 0.0:  # max(0.0, tsc)
                    tsc = 0.0
            else:
                tsc = tsc_base
            if noisy:
                if sigma_scales:
                    noise = sigma * standard_normal()
                else:
                    noise = normal(0.0, sigma)
                if uniform() < spike_prob:
                    noise += exponential(spike_scale)
            else:
                noise = 0.0
            measured = true + cold_x * local + cold_y * remote + tsc + noise
            if measured < 0.0:  # max(measured, 0.0)
                measured = 0.0
            out[i] = measured
            wx = 1.0 - (1.0 - wx) * decay
            if same_core:
                wx = 1.0 - (1.0 - wx) * decay
            else:
                wy = 1.0 - (1.0 - wy) * decay
        dvfs.set_warmth(cx, wx)
        if not same_core:
            dvfs.set_warmth(cy, wy)
        self.samples_taken += n
        return out

    def batch_spec(self) -> "PairProbeSpec":
        """Snapshot for the order-independent pair-seeded sampling scheme.

        Captures everything a (possibly remote) worker needs to measure
        any context pair independently: the machine, the noise profile,
        the true rdtsc parameters, the probe seed and the current
        per-core DVFS warmth.  See :class:`PairProbeSpec`.
        """
        return PairProbeSpec(
            machine=self.machine,
            noise=self.noise.profile,
            tsc_overhead=self.tsc.overhead,
            tsc_jitter=self.tsc.jitter,
            seed=self.seed,
            warmth=tuple(self.dvfs.warmth_of(c)
                         for c in range(self.machine.spec.n_cores)),
        )

    # ------------------------------------------------------------ memory
    def mem_latency_sample(self, ctx: int, node: int) -> float:
        """Per-access latency of a random pointer chase in ``node``."""
        self.obs.counter("probe.mem_latency_samples").inc()
        true = self.machine.mem_latency(self.machine.socket_of(ctx), node)
        return max(true + self.noise.sample(), 0.0)

    def mem_bandwidth_sample(self, ctxs: list[int], node: int) -> float:
        """GB/s achieved by ``ctxs`` streaming from ``node`` together.

        Threads of one socket share that socket's path to the node;
        contexts of the same core do not add bandwidth beyond the core.
        """
        self.obs.counter("probe.mem_bandwidth_samples").inc()
        per_socket: dict[int, set[int]] = {}
        for ctx in ctxs:
            per_socket.setdefault(self.machine.socket_of(ctx), set()).add(
                self.machine.core_of(ctx)
            )
        total = 0.0
        for socket, cores in per_socket.items():
            cap = self.machine.mem_bandwidth(socket, node)
            single = self.machine.mem_bandwidth_single(socket, node)
            total += min(len(cores) * single, cap)
        rel_noise = 1.0 + self.noise.sample() / 2000.0
        return max(total * rel_noise, 0.0)

    # ------------------------------------------------------------- power
    def has_power_interface(self) -> bool:
        """True when the machine exposes RAPL-style counters (Intel)."""
        return self.machine.spec.power is not None

    def power_sample(self, active_ctxs: list[int], with_dram: bool = False) -> float:
        """Package power (Watts) with the given contexts running a
        memory-intensive workload — what the power plugin reads."""
        from repro.errors import MeasurementError
        from repro.hardware.power import PowerModel

        if not self.has_power_interface():
            raise MeasurementError(
                f"{self.machine.spec.name} has no power interface"
            )
        self.obs.counter("probe.power_samples").inc()
        model = PowerModel(self.machine)
        sockets = range(self.machine.spec.n_sockets)
        true = sum(model.estimate(active_ctxs, with_dram, sockets=sockets).values())
        return max(true * (1.0 + self.noise.sample() / 3000.0), 0.0)

    def cache_latency_sample(self, ctx: int, working_set_bytes: int) -> float:
        """Dependent-load latency for a working set of the given size."""
        from repro.hardware.caches import CacheHierarchy

        self.obs.counter("probe.cache_latency_samples").inc()

        spec = self.machine.spec
        hierarchy = CacheHierarchy(
            spec.caches,
            self.machine.mem_latency(
                self.machine.socket_of(ctx),
                self.machine.local_node_of_socket(self.machine.socket_of(ctx)),
            ),
        )
        true = hierarchy.latency_for_working_set(working_set_bytes)
        return max(true + self.noise.sample() * 0.3, 0.5)


# ===================== pair-seeded sampling scheme =====================
#
# The sequential scheme above threads one RNG stream through every pair
# in measurement order, which makes the collection loop inherently
# serial: pair k+1's draws depend on how many draws pair k consumed
# (spurious spikes and retries are data dependent).  The *pair-seeded*
# scheme instead derives an independent substream per (pair, attempt)
# from the probe seed, and freezes the DVFS state at its post-warm-up
# snapshot, so any context pair can be measured by any worker in any
# order — the foundation of ``LatencyTableConfig(jobs=N)``.
#
# Determinism contract: for a given (machine, seed, config) the scheme
# yields bit-identical samples whether consumed sample-by-sample
# (``vectorized=False``), as whole-batch numpy draws, or fanned out
# over N processes.  That works because numpy ``Generator`` batch draws
# consume the underlying bitstream exactly like repeated scalar draws,
# provided the draw *order* is fixed — so the scheme fixes it: per
# attempt, first the ``n`` rdtsc-jitter normals, then the ``n``
# Gaussian-noise normals, then the ``n`` spike uniforms, then one
# exponential per spike in ascending sample order.


@dataclass(frozen=True)
class PairProbeSpec:
    """Everything a worker needs to measure any pair independently.

    Produced by :meth:`MeasurementContext.batch_spec` after warm-up;
    plain picklable data so chunks of pairs can cross process
    boundaries for the parallel fan-out.
    """

    machine: Machine
    noise: NoiseProfile
    tsc_overhead: float
    tsc_jitter: float
    seed: int
    warmth: tuple[float, ...]  # per-core DVFS ramp state at snapshot


def pair_rng(seed: int, x: int, y: int, attempt: int) -> np.random.Generator:
    """The deterministic substream of one measurement attempt."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(x, y, attempt))
    )


class PairSampler:
    """Measures context pairs under the pair-seeded scheme.

    One instance per worker.  DVFS cold-core penalties are precomputed
    per core as additive per-sample arrays (the warmth trajectory over
    a batch depends only on the snapshot warmth, which is fixed), and
    the MESI transaction is priced once per attempt through a local
    coherence simulator on a fresh line.
    """

    def __init__(self, spec: PairProbeSpec):
        self.spec = spec
        self.machine = spec.machine
        self.coherence = CoherenceSimulator(spec.machine)
        self._dvfs = DvfsState(spec.machine.spec)
        self._decay = DvfsState.busy_decay(_SAMPLE_BUSY_CYCLES)
        self._next_line = 0
        # (core, doubled) -> (local_add, remote_add) per-sample arrays.
        self._adds: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------ internals
    def _dvfs_adds(
        self, core: int, n: int, doubled: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample additive DVFS penalties for a core's trajectory.

        ``doubled`` models a same-core (SMT) pair, where both per-sample
        ``run_busy`` accounts land on the one core.
        """
        cached = self._adds.get((core, doubled))
        if cached is not None and cached[0].size >= n:
            return cached[0][:n], cached[1][:n]
        w = self.spec.warmth[core]
        factor = self._dvfs.factor_from_warmth
        decay = self._decay
        local = np.empty(n)
        remote = np.empty(n)
        for i in range(n):
            cold = factor(w) - 1.0
            local[i] = cold * _DVFS_PENALTY_LOCAL
            remote[i] = cold * _DVFS_PENALTY_REMOTE
            w = 1.0 - (1.0 - w) * decay
            if doubled:
                w = 1.0 - (1.0 - w) * decay
        self._adds[(core, doubled)] = (local, remote)
        return local, remote

    # ------------------------------------------------------------- sampling
    def sample_attempt(
        self, x: int, y: int, n: int, attempt: int, vectorized: bool = True
    ) -> np.ndarray:
        """``n`` raw samples (rdtsc overhead still included) for one
        measurement attempt of pair ``(x, y)``.

        ``vectorized=False`` is the reference scalar engine, the oracle
        of the engine-mode test in ``benchmarks/`` and of
        ``tests/core/test_batch_engine.py``: it prices the coherence
        transaction, walks the DVFS trajectory and draws from the
        substream one sample at a time, the way the pre-batching engine
        did.  Both paths produce bit-identical arrays — only the cost
        differs.
        """
        cx = self.machine.core_of(x)
        cy = self.machine.core_of(y)
        same_core = cx == cy
        rng = pair_rng(self.spec.seed, x, y, attempt)
        spec = self.spec
        profile = spec.noise
        self._next_line += 1
        line = self._next_line

        if vectorized:
            true = self.coherence.probe_pair_rfo(
                requester=x, owner=y, line_id=line
            )
            add_x, _ = self._dvfs_adds(cx, n, doubled=same_core)
            _, add_y = self._dvfs_adds(cy, n, doubled=same_core)
            if spec.tsc_jitter > 0:
                tscv = np.maximum(
                    0.0, spec.tsc_overhead + rng.normal(0.0, spec.tsc_jitter, n)
                )
            else:
                tscv = np.full(n, spec.tsc_overhead)
            if profile.enabled:
                z = rng.normal(0.0, profile.jitter_sigma, n)
                u = rng.random(n)
                spikes = np.flatnonzero(u < profile.spurious_prob)
                if spikes.size:
                    z[spikes] += rng.exponential(
                        profile.spurious_scale, spikes.size
                    )
            else:
                z = np.zeros(n)
            measured = ((true + add_x) + add_y) + tscv + z
            return np.where(measured > 0.0, measured, 0.0)

        # Scalar reference: everything per sample.  The coherence probe
        # is re-run each time (the line's MESI state is stable after the
        # first lock-step round, so the price is the same), the DVFS
        # recurrence is stepped inline, and every draw is a separate
        # scalar RNG call in the scheme's canonical distribution order.
        factor = self._dvfs.factor_from_warmth
        decay = self._decay
        wx = spec.warmth[cx]
        wy = spec.warmth[cy]
        add_x_s = np.empty(n)
        add_y_s = np.empty(n)
        trues = np.empty(n)
        for i in range(n):
            trues[i] = self.coherence.probe_pair_rfo(
                requester=x, owner=y, line_id=line
            )
            cold_x = factor(wx) - 1.0
            cold_y = cold_x if same_core else factor(wy) - 1.0
            add_x_s[i] = cold_x * _DVFS_PENALTY_LOCAL
            add_y_s[i] = cold_y * _DVFS_PENALTY_REMOTE
            wx = 1.0 - (1.0 - wx) * decay
            if same_core:
                wx = 1.0 - (1.0 - wx) * decay
            else:
                wy = 1.0 - (1.0 - wy) * decay
        tscv_s = np.empty(n)
        for i in range(n):
            if spec.tsc_jitter > 0:
                tscv_s[i] = max(
                    0.0, spec.tsc_overhead + rng.normal(0.0, spec.tsc_jitter)
                )
            else:
                tscv_s[i] = spec.tsc_overhead
        z_s = np.empty(n)
        if profile.enabled:
            for i in range(n):
                z_s[i] = rng.normal(0.0, profile.jitter_sigma)
            flagged = [i for i in range(n) if rng.random() < profile.spurious_prob]
            for i in flagged:
                z_s[i] += rng.exponential(profile.spurious_scale)
        else:
            z_s.fill(0.0)
        out = np.empty(n)
        for i in range(n):
            v = ((trues[i] + add_x_s[i]) + add_y_s[i]) + tscv_s[i] + z_s[i]
            out[i] = v if v > 0.0 else 0.0
        return out
