"""Differential test: the engine against the rescanning code it replaced.

The engine keeps per-core and per-socket counts so that every event
costs O(1) machine lookups, and the machine answers ``core_of``,
``socket_of`` and ``comm_latency`` from tables and a memo.  The oracle
below is the earlier code, kept as it was:

* package power from a rescan of every thread, summing
  ``PowerModel.estimate`` on every event (socket power from the
  context list, not from counts);
* SMT siblings from a scan of every thread;
* ``core_of``, ``socket_of`` and ``comm_latency`` from their formulas.

Generated programs must give bit-equal ``RunStats`` on both.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.locks.algorithms import TasLock, TicketLock
from repro.hardware import get_machine, get_spec, machine_names
from repro.hardware.machine import Machine, PowerProfile, _pair_jitter
from repro.hardware.power import PowerModel
from repro.sim import (
    Acquire,
    Barrier,
    BarrierWait,
    Communicate,
    Compute,
    Engine,
    MemChase,
    MemStream,
    Release,
    Sleep,
)


# ------------------------------------------------------------ the oracle
class FormulaMachine(Machine):
    """Context lookups and pair latencies computed on every call."""

    def socket_of(self, ctx: int) -> int:
        return self.core_of(ctx) // self.spec.cores_per_socket

    def core_of(self, ctx: int) -> int:
        spec = self.spec
        self._check_ctx(ctx)
        if spec.numbering == "smt_blocked":
            return ctx % spec.n_cores
        return ctx // spec.smt_per_core

    def comm_latency(self, a: int, b: int) -> int:
        spec = self.spec
        if a == b:
            return 0
        ca, cb = self.core_of(a), self.core_of(b)
        if ca == cb:
            return spec.smt_latency + _pair_jitter(a, b, spec.smt_jitter)
        sa, sb = ca // spec.cores_per_socket, cb // spec.cores_per_socket
        if sa == sb:
            base = spec.core_latency
            if (spec.core_cluster_size > 1
                    and self.cluster_of(ca) == self.cluster_of(cb)):
                base = spec.core_cluster_latency
            return base + _pair_jitter(a, b, spec.intra_jitter)
        base = self.interconnect.latency(sa, sb)
        return base + _pair_jitter(a, b, spec.cross_jitter)


class ListPowerModel(PowerModel):
    """Socket power from the list of active contexts."""

    def socket_power(self, active_ctxs_on_socket, with_dram=False):
        p = self.profile
        ctxs = list(active_ctxs_on_socket)
        cores = {self.machine.core_of(c) for c in ctxs}
        watts = p.idle_socket
        watts += len(cores) * p.first_context
        watts += (len(ctxs) - len(cores)) * p.extra_context
        if with_dram:
            watts += p.dram_active if ctxs else p.dram_idle
        return watts


class RescanEngine(Engine):
    """Scans every thread for SMT siblings and for package power.

    It inherits the engine's incremental counts without reading them,
    and checks at every event that they equal a recount.
    """

    def __init__(self, machine, track_energy=False, obs=None):
        super().__init__(machine, track_energy, obs)
        if track_energy:
            self._power_model = ListPowerModel(machine)

    def _computing_siblings(self, thread):
        core = self.machine.core_of(thread.ctx)
        return sum(
            1
            for t in self.threads
            if t is not thread
            and not t.finished
            and t.computing
            and self.machine.core_of(t.ctx) == core
        )

    def _check_counts(self) -> None:
        machine = self.machine
        spec = machine.spec
        computing = [0] * spec.n_cores
        on_core = [0] * spec.n_cores
        ctxs = [0] * spec.n_sockets
        for t in self.threads:
            core = machine.core_of(t.ctx)
            computing[core] += t.computing
            if not t.finished and not t.blocked:
                on_core[core] += 1
                ctxs[machine.socket_of(t.ctx)] += 1
        cores = [0] * spec.n_sockets
        for core, n in enumerate(on_core):
            cores[core // spec.cores_per_socket] += n > 0
        assert self._computing == computing
        assert self._active_on_core == on_core
        assert self._active_ctxs == ctxs
        assert self._active_cores == cores

    def _account_energy(self, at):
        if self._power_model is None:
            return
        self._check_counts()
        dt_cycles = at - self._last_energy_time
        if dt_cycles <= 0:
            return
        active = [
            t.ctx for t in self.threads if not t.finished and not t.blocked
        ]
        watts = sum(
            self._power_model.estimate(
                active,
                with_dram=True,
                sockets=range(self.machine.spec.n_sockets),
            ).values()
        )
        seconds = dt_cycles / (self.machine.spec.freq_max_ghz * 1e9)
        self._energy += watts * seconds
        self._last_energy_time = at
        self.obs.counter("sim.energy_samples").inc()
        self.obs.histogram("sim.power_watts").observe(watts)


# ------------------------------------------------------------ programs
# Ivy (smt_blocked, RAPL power) and sparc (smt_consecutive, 8-way SMT)
# given a power profile so that energy runs on both numbering schemes.
SPECS = {
    "ivy": get_spec("ivy"),
    "sparc": replace(get_spec("sparc"),
                     power=PowerProfile(18.0, 3.0, 0.5, 12.0)),
}


def _context_pool(machine: Machine) -> list[int]:
    """Contexts that share cores and sockets often: two cores of socket
    0 and the first core of socket 1, every SMT sibling of each."""
    cps = machine.spec.cores_per_socket
    return sorted(c for core in (0, 1, cps)
                  for c in machine.contexts_of_core(core))


def _ops(machine: Machine):
    nodes = st.integers(0, machine.spec.n_nodes - 1)
    pool = _context_pool(machine)
    return st.one_of(
        st.tuples(st.just("compute"), st.integers(1, 20_000)),
        st.tuples(st.just("stream"), nodes, st.integers(1_000, 4_000_000)),
        st.tuples(st.just("chase"), nodes, st.integers(1, 200)),
        st.tuples(st.just("comm"), st.sampled_from(pool)),
        st.tuples(st.just("sleep"), st.integers(0, 20_000)),
        st.tuples(st.just("lock"), st.integers(0, 1), st.integers(1, 3_000)),
    )


@st.composite
def programs(draw, machine: Machine):
    """Threads (possibly several on one context) running phases of
    commands, every thread crossing the same barrier between phases."""
    pool = _context_pool(machine)
    n_phases = draw(st.integers(1, 3))
    threads = [
        (draw(st.sampled_from(pool)),
         [draw(st.lists(_ops(machine), max_size=5)) for _ in range(n_phases)])
        for _ in range(draw(st.integers(1, 6)))
    ]
    crossing_cost = draw(st.sampled_from([None, None, 0.0, 75.0]))
    return threads, crossing_cost


def _run(engine_cls, machine, program, track_energy):
    threads, crossing_cost = program
    engine = engine_cls(machine, track_energy=track_energy)
    barrier = Barrier(len(threads), crossing_cost=crossing_cost)
    locks = [TicketLock(), TasLock(seed=3)]

    def body(phases):
        for i, phase in enumerate(phases):
            if i:
                yield BarrierWait(barrier)
            for op in phase:
                kind = op[0]
                if kind == "compute":
                    yield Compute(op[1])
                elif kind == "stream":
                    yield MemStream(op[1], op[2])
                elif kind == "chase":
                    yield MemChase(op[1], op[2])
                elif kind == "comm":
                    yield Communicate(op[1])
                elif kind == "sleep":
                    yield Sleep(op[1])
                else:
                    lock = locks[op[1]]
                    yield Acquire(lock)
                    yield Compute(op[2])
                    yield Release(lock)
        return sum(len(phase) for phase in phases)

    for ctx, phases in threads:
        engine.spawn(ctx, body(phases))
    return engine.run()


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("track_energy", [True, False])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_matches_rescan(name, track_energy, data):
    spec = SPECS[name]
    machine, oracle = Machine(spec), FormulaMachine(spec)
    program = data.draw(programs(machine))
    stats = _run(Engine, machine, program, track_energy)
    expected = _run(RescanEngine, oracle, program, track_energy)
    assert stats == expected
    assert list(stats.metrics) == list(expected.metrics)
    assert (stats.energy_joules is None) is not track_energy


def test_study_shaped_run_matches_rescan():
    """Forty threads over every ivy context, both siblings of each core
    busy at once: the regime of Figures 8-12."""
    spec = SPECS["ivy"]
    program = (
        [(ctx, [[("compute", 5_000 + 37 * ctx), ("lock", ctx % 2, 500)],
                [("stream", ctx % 2, 200_000), ("comm", (ctx + 11) % 40)]])
         for ctx in range(spec.n_contexts)],
        None,
    )
    stats = _run(Engine, Machine(spec), program, True)
    assert stats == _run(RescanEngine, FormulaMachine(spec), program, True)


# ------------------------------------------------- machine lookup tables
@pytest.mark.parametrize("name", machine_names())
def test_lookups_match_formulas(name):
    machine = get_machine(name)
    oracle = FormulaMachine(machine.spec)
    n = machine.spec.n_contexts
    for ctx in range(n):
        assert machine.core_of(ctx) == oracle.core_of(ctx)
        assert machine.socket_of(ctx) == oracle.socket_of(ctx)
    for a in range(n):
        for b in range(n):
            assert machine.comm_latency(a, b) == oracle.comm_latency(a, b)
    # Answered from the memo the second time round.
    assert all(machine.comm_latency(a, b) == oracle.comm_latency(a, b)
               for a in range(0, n, 7) for b in range(0, n, 5))
