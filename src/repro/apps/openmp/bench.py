"""The Figure 12 experiment: MCTOP_MP vs vanilla OpenMP on graph kernels.

Cost model of one parallel region: every superstep, each thread chases
``random_access_per_edge`` dependent loads per edge (divided by the
memory-level parallelism modern cores extract), streams
``stream_bytes_per_edge`` and computes, then crosses a barrier.  What
placement changes is *where* those accesses land:

* vanilla OpenMP does not pin threads and the graph is first-touched by
  whichever contexts the OS picked, so accesses spread *uniformly* over
  all memory nodes — on a big machine almost everything is remote;
* MCTOP_MP pins with a policy and data is first-touched by its
  consumer, so most accesses stay local (``LOCALITY`` below).

MCTOP_MP additionally pays for its automatic policy selection: it runs
a couple of supersteps under every candidate configuration before
committing — for short, sync-heavy kernels (Hop Distance) this
overhead can make it *slower* than vanilla, exactly the up-to-9%
regressions the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.mctop import Mctop
from repro.hardware.machine import Machine
from repro.apps.openmp.graphs import GraphScale
from repro.apps.openmp.kernels import (
    ALL_KERNELS,
    COMBINATION_PARTS,
    KernelProfile,
)
from repro.place import Placement, Policy
from repro.sim import Barrier, BarrierWait, Compute, Engine, MemChase, MemStream

#: effective memory-level parallelism of dependent graph accesses
MLP = 10.0
#: fraction of a distributed (first-touch-by-consumer) graph that a
#: thread finds on its local node
LOCALITY = 0.7
#: supersteps run per candidate during automatic policy selection
SAMPLE_STEPS = 2
#: fraction of the graph the selection samples ("small parts of the
#: workload", Section 7.4)
SAMPLE_FRACTION = 0.04

#: candidate configurations the auto-selector tries (policy grid)
CANDIDATE_POLICIES = (
    Policy.CON_HWC,
    Policy.CON_CORE_HWC,
    Policy.BALANCE_CORE_HWC,
    Policy.RR_CORE,
)


def _access_mix(mctop: Mctop, ctx: int, layout: str) -> list[tuple[int, float]]:
    """(node, weight) distribution of one thread's memory accesses."""
    nodes = mctop.node_ids()
    if layout == "uniform":
        return [(n, 1.0 / len(nodes)) for n in nodes]
    if layout == "distributed":
        local = mctop.get_local_node(ctx)
        others = [n for n in nodes if n != local]
        if not others:
            return [(local, 1.0)]
        remote_w = (1.0 - LOCALITY) / len(others)
        return [(local, LOCALITY)] + [(n, remote_w) for n in others]
    raise ValueError(f"unknown layout {layout!r}")


def simulate_region(
    machine: Machine,
    mctop: Mctop,
    profile: KernelProfile,
    placement: Placement | None,
    layout: str,
    scale: GraphScale,
    supersteps: int | None = None,
) -> float:
    """Seconds one parallel region takes under a placement."""
    if placement is None:  # vanilla: OS spreads over everything
        placement = Placement(mctop, Policy.SEQUENTIAL)
    ctxs = placement.ordering
    n_threads = len(ctxs)
    steps = supersteps if supersteps is not None else profile.supersteps
    edges_per_thread = scale.n_edges / n_threads

    used = set(ctxs)
    engine = Engine(machine)
    barrier = Barrier(n_threads)

    def worker(i: int):
        ctx = ctxs[i]
        mix = _access_mix(mctop, ctx, layout)
        core = mctop.core_of_context(ctx)
        siblings = set(mctop.core_get_contexts(core)) - {ctx}
        thrash = profile.smt_cache_thrash if siblings & used else 1.0
        chases = edges_per_thread * profile.random_access_per_edge / MLP
        stream_bytes = edges_per_thread * profile.stream_bytes_per_edge
        compute = edges_per_thread * profile.compute_per_edge * thrash
        for _ in range(steps):
            for node, w in mix:
                yield MemChase(node, chases * w)
                yield MemStream(node, stream_bytes * w)
            yield Compute(compute)
            yield BarrierWait(barrier)

    for i, ctx in enumerate(ctxs):
        engine.spawn(ctx, worker(i))
    return engine.run().seconds


def candidate_grid(mctop: Mctop) -> list[tuple[Policy, int]]:
    """(policy, n_threads) configurations the auto-selector evaluates."""
    grid = []
    for policy in CANDIDATE_POLICIES:
        for n in sorted({mctop.n_cores, mctop.n_contexts}):
            grid.append((policy, n))
    return grid


@dataclass
class McTopMpRun:
    """Outcome of one MCTOP_MP auto-selected region."""

    kernel: str
    seconds: float
    sampling_seconds: float
    chosen: tuple[Policy, int] | None


def run_mctop_mp(
    machine: Machine,
    mctop: Mctop,
    profile: KernelProfile,
    scale: GraphScale,
) -> McTopMpRun:
    """Automatic policy selection, then the full region under the winner."""
    sampling = 0.0
    best: tuple[Policy, int] | None = None
    best_sample = float("inf")
    sample_scale = GraphScale(
        n_nodes=max(int(scale.n_nodes * SAMPLE_FRACTION), 1),
        n_edges=max(int(scale.n_edges * SAMPLE_FRACTION), 1),
    )
    for policy, n in candidate_grid(mctop):
        placement = Placement(mctop, policy, n_threads=n)
        sample = simulate_region(
            machine, mctop, profile, placement, "distributed", sample_scale,
            supersteps=SAMPLE_STEPS,
        )
        sampling += sample
        if sample < best_sample:
            best_sample = sample
            best = (policy, n)
    placement = Placement(mctop, best[0], n_threads=best[1])
    full = simulate_region(
        machine, mctop, profile, placement, "distributed", scale
    )
    return McTopMpRun(
        kernel=profile.name,
        seconds=sampling + full,
        sampling_seconds=sampling,
        chosen=best,
    )


def run_vanilla(
    machine: Machine,
    mctop: Mctop,
    profile: KernelProfile,
    scale: GraphScale,
) -> float:
    """Vanilla libgomp: unpinned team over every context, uniform data."""
    return simulate_region(
        machine, mctop, profile, None, "uniform", scale
    )


@dataclass
class Figure12Cell:
    platform: str
    workload: str
    vanilla_seconds: float
    mctop_seconds: float
    chosen: tuple[Policy, int] | None = None

    @property
    def relative_time(self) -> float:
        return self.mctop_seconds / self.vanilla_seconds


@dataclass
class Figure12Result:
    cells: list[Figure12Cell] = field(default_factory=list)

    def average_relative_time(self) -> float:
        return sum(c.relative_time for c in self.cells) / len(self.cells)

    def table(self) -> str:
        lines = [
            f"{'platform':<10} {'workload':<22} {'rel time':>8}  chosen"
        ]
        for c in self.cells:
            chosen = (
                f"{c.chosen[0].value}/{c.chosen[1]}" if c.chosen else "-"
            )
            lines.append(
                f"{c.platform:<10} {c.workload:<22} {c.relative_time:>8.2f}"
                f"  {chosen}"
            )
        return "\n".join(lines)


def run_figure12(
    machine: Machine,
    mctop: Mctop,
    scale: GraphScale | None = None,
    kernels: tuple[KernelProfile, ...] = ALL_KERNELS,
    include_combination: bool = True,
) -> Figure12Result:
    """All Figure 12 workloads on one platform."""
    scale = scale or GraphScale.paper()
    result = Figure12Result()
    #: kernel -> (vanilla seconds, MCTOP_MP seconds) of its cell
    seconds: dict[KernelProfile, tuple[float, float]] = {}
    for profile in kernels:
        vanilla = run_vanilla(machine, mctop, profile, scale)
        placed = run_mctop_mp(machine, mctop, profile, scale)
        seconds[profile] = (vanilla, placed.seconds)
        result.cells.append(
            Figure12Cell(
                platform=machine.spec.name,
                workload=profile.name,
                vanilla_seconds=vanilla,
                mctop_seconds=placed.seconds,
                chosen=placed.chosen,
            )
        )
    if include_combination:
        # Vanilla cannot change placement between the two kernels; the
        # single (unpinned, uniform) configuration serves both, while
        # MCTOP_MP re-selects per region.  A simulation is a pure
        # function of its inputs, so a part the loop above ran is
        # reused, not simulated again.
        parts = [
            seconds.get(p) or (
                run_vanilla(machine, mctop, p, scale),
                run_mctop_mp(machine, mctop, p, scale).seconds,
            )
            for p in COMBINATION_PARTS
        ]
        result.cells.append(
            Figure12Cell(
                platform=machine.spec.name,
                workload="combination",
                vanilla_seconds=sum(vanilla for vanilla, _ in parts),
                mctop_seconds=sum(placed for _, placed in parts),
            )
        )
    return result
