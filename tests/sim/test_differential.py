"""Differential test: the engine against the rescanning code it replaced.

The engine keeps per-core, per-socket and per-node counts and a few
memos so that an event costs its pricing and little else, and the
machine answers ``core_of``, ``socket_of`` and ``comm_latency`` from
tables and a memo.  The oracle below is the earlier code, kept as it
was, so that it cannot follow the engine when the engine changes:

* :class:`HeadEngine`, the event loop before those cuts: a closure on
  the heap for every resume, an ``isinstance`` chain for every command,
  ``_account_energy`` called on every event and observing every sample,
  package power summed with a generator, scans over every memory
  channel, ``mem_latency`` asked on every chase and a barrier crossing
  that reads every pair of waiting contexts each time;
* :class:`RescanEngine` on top of it: package power from a rescan of
  every thread, summing ``PowerModel.estimate`` on every event (socket
  power from the context list, not from counts), and SMT siblings from
  a scan of every thread;
* ``core_of``, ``socket_of`` and ``comm_latency`` from their formulas.

Generated programs must give bit-equal ``RunStats`` (metrics included)
on both, and the oracle's overrides must actually run.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.locks.algorithms import TasLock, TicketLock
from repro.errors import SimulationError
from repro.hardware import get_machine, get_spec, machine_names
from repro.hardware.machine import Machine, PowerProfile, _pair_jitter
from repro.hardware.power import PowerModel
from repro.obs import Observability
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
    RunStats,
    SimThread,
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


def _head_barrier_arrive(barrier: Barrier, engine, thread) -> None:
    """A barrier arrival that reads every waiting pair at each crossing."""
    barrier._waiting.append(thread)
    if len(barrier._waiting) < barrier.parties:
        engine.block(thread)
        return
    cost = barrier.crossing_cost
    if cost is None:
        ctxs = [t.ctx for t in barrier._waiting]
        cost = 0.0
        if len(ctxs) > 1:
            latency = engine.machine.comm_latency
            cost = float(max(latency(a, b) for i, a in enumerate(ctxs)
                             for b in ctxs[i + 1:]))
    waiters, barrier._waiting = barrier._waiting, []
    barrier.crossings += 1
    for t in waiters:
        engine.wake(t, engine.now + cost)


class _HeadChannel:
    """A (socket, node) memory channel, as :class:`HeadEngine` keeps it."""

    def __init__(self, machine: Machine, socket: int, node: int) -> None:
        self.node = node
        self.cap = machine.mem_bandwidth(socket, node)
        self.single = machine.mem_bandwidth_single(socket, node)
        self.node_cap = machine.mem_bandwidth(machine.socket_of_node(node),
                                              node)
        self.streams: dict[SimThread, list[float]] = {}
        self.last_update = 0.0
        self.epoch = 0


class HeadEngine:
    """The event loop as it was: every cost the engine since dropped."""

    def __init__(self, machine, track_energy=False, obs=None):
        self.machine = machine
        self.obs = obs if obs is not None else Observability()
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self.threads = []
        self._channels = {}
        spec = machine.spec
        self._computing = [0] * spec.n_cores
        self._energy = None
        self._power_model = None
        if track_energy:
            self._power_model = PowerModel(machine)
            self._energy = 0.0
            self._last_energy_time = 0.0
            self._active_on_core = [0] * spec.n_cores
            self._active_ctxs = [0] * spec.n_sockets
            self._active_cores = [0] * spec.n_sockets
            self._watts = None

    def spawn(self, ctx, program, name=""):
        machine = self.machine
        thread = SimThread(tid=len(self.threads), ctx=ctx, program=program,
                           name=name or f"t{len(self.threads)}",
                           core=machine.core_of(ctx),
                           socket=machine.socket_of(ctx))
        self.threads.append(thread)
        self._count_active(thread, 1)
        self.obs.counter("sim.threads_spawned").inc()
        self._at(self.now, lambda: self._step(thread))
        return thread

    def _at(self, when, action):
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, action))

    def _computing_siblings(self, thread):
        computing = self._computing[thread.core]
        return computing - 1 if thread.computing else computing

    def smt_factor(self, thread):
        siblings = self._computing_siblings(thread)
        slow = self.machine.spec.smt_slowdown
        return 1.0 + siblings * (slow - 1.0)

    def _node_streams(self, node):
        return sum(len(ch.streams) for ch in self._channels.values()
                   if ch.node == node)

    def _stream_rate(self, ch, sharers):
        node_streams = max(self._node_streams(ch.node), sharers, 1)
        per_thread = min(ch.single, ch.cap / max(sharers, 1),
                         ch.node_cap / node_streams)
        return max(per_thread / self.machine.spec.freq_max_ghz, 1e-12)

    def _advance_channel(self, ch):
        dt = self.now - ch.last_update
        if dt > 0 and ch.streams:
            rate = self._stream_rate(ch, len(ch.streams))
            for state in ch.streams.values():
                state[0] = max(state[0] - rate * dt, 0.0)
        ch.last_update = self.now

    def _rebalance_channel(self, ch):
        ch.epoch += 1
        epoch = ch.epoch
        if not ch.streams:
            return
        if len(ch.streams) > 1:
            self.obs.counter("sim.bw_contention_events").inc()
            self.obs.histogram("sim.bw_sharers").observe(len(ch.streams))
        rate = self._stream_rate(ch, len(ch.streams))
        next_done = min(state[0] for state in ch.streams.values()) / rate
        next_done = max(next_done, math.ulp(self.now))
        self._at(self.now + next_done,
                 lambda e=epoch: self._channel_event(ch, e))

    def _advance_node_channels(self, node):
        for ch in self._channels.values():
            if ch.node == node:
                self._advance_channel(ch)

    def _rebalance_node_channels(self, node):
        for ch in self._channels.values():
            if ch.node == node:
                self._rebalance_channel(ch)

    def _channel_event(self, ch, epoch):
        if epoch != ch.epoch:
            return
        self._advance_node_channels(ch.node)
        rate = self._stream_rate(ch, len(ch.streams) or 1)
        threshold = max(rate * 1e-3, 1e-6)
        finished = [(thread, state) for thread, state in ch.streams.items()
                    if state[0] <= threshold]
        for thread, state in finished:
            del ch.streams[thread]
            thread.busy_cycles += self.now - state[1]
        self._rebalance_node_channels(ch.node)
        for thread, _ in finished:
            self._step(thread)

    def run(self, max_cycles=float("inf")):
        events = 0
        with self.obs.span("sim.run", n_threads=len(self.threads)):
            while self._heap:
                at, _, action = heapq.heappop(self._heap)
                if at > max_cycles:
                    raise SimulationError(
                        f"simulation exceeded {max_cycles} cycles — deadlock "
                        "or runaway program?"
                    )
                self._account_energy(at)
                self.now = at
                events += 1
                action()
        stuck = [t.name for t in self.threads if not t.finished]
        if stuck:
            raise SimulationError(
                f"threads {stuck} never finished (lock/barrier deadlock?)"
            )
        self.obs.counter("sim.events").inc(events)
        self.obs.gauge("sim.cycles").set(self.now)
        busy_hist = self.obs.histogram("sim.thread_busy_cycles")
        blocked_hist = self.obs.histogram("sim.thread_blocked_cycles")
        for t in self.threads:
            busy_hist.observe(t.busy_cycles)
            blocked_hist.observe(t.blocked_cycles)
        return RunStats(
            cycles=self.now,
            seconds=self.now / (self.machine.spec.freq_max_ghz * 1e9),
            energy_joules=self._energy,
            per_thread_busy={t.tid: t.busy_cycles for t in self.threads},
            per_thread_blocked={t.tid: t.blocked_cycles
                                for t in self.threads},
            results={t.tid: t.result for t in self.threads},
            metrics=self.obs.registry.snapshot(),
        )

    def _step(self, thread):
        if thread.blocked:
            self._set_blocked(thread, False)
        if thread.computing:
            thread.computing = False
            self._computing[thread.core] -= 1
        try:
            command = next(thread.program)
        except StopIteration as stop:
            if not thread.finished:
                thread.finished = True
                self._count_active(thread, -1)
            thread.result = stop.value
            return
        self._dispatch(thread, command)

    def _dispatch(self, thread, command):
        obs = self.obs
        if isinstance(command, Compute):
            factor = self.smt_factor(thread)
            if factor > 1.0:
                obs.counter("sim.smt_contended_computes").inc()
            duration = command.cycles * factor
            thread.computing = True
            self._computing[thread.core] += 1
            thread.busy_cycles += duration
            self._at(self.now + duration, lambda: self._step(thread))
        elif isinstance(command, MemStream):
            obs.counter("sim.mem_streams").inc()
            key = (thread.socket, command.node)
            ch = self._channels.get(key)
            if ch is None:
                ch = self._channels[key] = _HeadChannel(self.machine, *key)
            self._advance_node_channels(command.node)
            ch.streams[thread] = [float(command.n_bytes), self.now]
            self._rebalance_node_channels(command.node)
        elif isinstance(command, MemChase):
            duration = command.accesses * self.machine.mem_latency(
                thread.socket, command.node)
            thread.busy_cycles += duration
            self._at(self.now + duration, lambda: self._step(thread))
        elif isinstance(command, Communicate):
            duration = float(
                self.machine.comm_latency(thread.ctx, command.peer_ctx))
            thread.busy_cycles += duration
            self._at(self.now + duration, lambda: self._step(thread))
        elif isinstance(command, Sleep):
            self._at(self.now + command.cycles, lambda: self._step(thread))
        elif isinstance(command, BarrierWait):
            obs.counter("sim.barrier_waits").inc()
            if isinstance(command.barrier, Barrier):
                _head_barrier_arrive(command.barrier, self, thread)
            else:
                command.barrier._arrive(self, thread)
        elif isinstance(command, Acquire):
            obs.counter("sim.lock_acquires").inc()
            command.lock._request(self, thread)
        elif isinstance(command, Release):
            obs.counter("sim.lock_releases").inc()
            command.lock._release(self, thread)
        else:
            raise SimulationError(f"unknown command {command!r}")

    def wake(self, thread, at):
        if at < self.now:
            raise SimulationError("cannot wake a thread in the past")
        if thread.block_start is not None:
            thread.blocked_cycles += at - thread.block_start
            thread.block_start = None
        self._set_blocked(thread, False)
        self._at(at, lambda: self._step(thread))

    def block(self, thread):
        self._set_blocked(thread, True)
        thread.block_start = self.now
        self.obs.counter("sim.blocks").inc()

    def _set_blocked(self, thread, blocked):
        if thread.blocked != blocked:
            thread.blocked = blocked
            if not thread.finished:
                self._count_active(thread, -1 if blocked else 1)

    def _count_active(self, thread, delta):
        if self._power_model is None:
            return
        before = self._active_on_core[thread.core]
        self._active_on_core[thread.core] = before + delta
        if not before or not before + delta:
            self._active_cores[thread.socket] += delta
        self._active_ctxs[thread.socket] += delta
        self._watts = None

    def _package_watts(self):
        model = self._power_model
        return sum(model.socket_watts(ctxs, cores, with_dram=True)
                   for ctxs, cores in zip(self._active_ctxs,
                                          self._active_cores))

    def _account_energy(self, at):
        if self._power_model is None:
            return
        dt_cycles = at - self._last_energy_time
        if dt_cycles <= 0:
            return
        watts = self._watts
        if watts is None:
            watts = self._watts = self._package_watts()
        seconds = dt_cycles / (self.machine.spec.freq_max_ghz * 1e9)
        self._energy += watts * seconds
        self._last_energy_time = at
        self.obs.counter("sim.energy_samples").inc()
        self.obs.histogram("sim.power_watts").observe(watts)


class RescanEngine(HeadEngine):
    """Scans every thread for SMT siblings and for package power.

    It inherits the incremental counts without reading them, checks at
    every event that they equal a recount, and counts in ``calls`` how
    often each of its overrides ran.
    """

    def __init__(self, machine, track_energy=False, obs=None):
        super().__init__(machine, track_energy, obs)
        self.calls: Counter = Counter()
        if track_energy:
            self._power_model = ListPowerModel(machine)

    def _computing_siblings(self, thread):
        self.calls["_computing_siblings"] += 1
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
        self.calls["_account_energy"] += 1
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
    commands, every thread crossing the same barrier between phases.
    With ``meet``, the first even number of threads also end each phase
    at a 2-party barrier, so whoever arrives first crosses together."""
    pool = _context_pool(machine)
    n_phases = draw(st.integers(1, 4))
    threads = [
        (draw(st.sampled_from(pool)),
         [draw(st.lists(_ops(machine), max_size=5)) for _ in range(n_phases)])
        for _ in range(draw(st.integers(1, 6)))
    ]
    crossing_cost = draw(st.sampled_from([None, None, 0.0, 75.0]))
    meet = draw(st.booleans())
    return threads, crossing_cost, meet


def _run(engine_cls, machine, program, track_energy):
    threads, crossing_cost, meet = program
    engine = engine_cls(machine, track_energy=track_energy)
    barrier = Barrier(len(threads), crossing_cost=crossing_cost)
    pair = Barrier(2)
    meeting = len(threads) // 2 * 2 if meet else 0
    locks = [TicketLock(), TasLock(seed=3)]

    def body(tid, phases):
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
            if tid < meeting:
                yield BarrierWait(pair)
        return sum(len(phase) for phase in phases)

    for tid, (ctx, phases) in enumerate(threads):
        engine.spawn(ctx, body(tid, phases))
    return engine, engine.run()


def _assert_same(program, name="ivy", track_energy=True) -> RescanEngine:
    """Run a program on both engines; return the oracle."""
    spec = SPECS[name]
    _, stats = _run(Engine, Machine(spec), program, track_energy)
    oracle, expected = _run(RescanEngine, FormulaMachine(spec), program,
                            track_energy)
    assert stats == expected
    assert list(stats.metrics) == list(expected.metrics)
    assert (stats.energy_joules is None) is not track_energy
    return oracle


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("track_energy", [True, False])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_matches_rescan(name, track_energy, data):
    program = data.draw(programs(Machine(SPECS[name])))
    oracle = _assert_same(program, name, track_energy)
    # The oracle's overrides ran: it did not compare the engine with
    # itself.
    computes = any(op[0] in ("compute", "lock")
                   for _, phases in program[0] for phase in phases
                   for op in phase)
    assert (oracle.calls["_computing_siblings"] > 0) is computes
    assert (oracle.calls["_account_energy"] > 0) is track_energy


def _assert_overrides_ran(oracle: RescanEngine) -> None:
    assert oracle.calls["_computing_siblings"] > 0
    assert oracle.calls["_account_energy"] > 0


def test_study_shaped_run_matches_rescan():
    """Forty threads over every ivy context, both siblings of each core
    busy at once: the regime of Figures 8-12."""
    program = (
        [(ctx, [[("compute", 5_000 + 37 * ctx), ("lock", ctx % 2, 500)],
                [("stream", ctx % 2, 200_000), ("comm", (ctx + 11) % 40)]])
         for ctx in range(SPECS["ivy"].n_contexts)],
        None,
        True,
    )
    _assert_overrides_ran(_assert_same(program))


def test_streams_from_two_sockets_to_one_node():
    """Both sockets stream from node 0 at once, with sizes that finish
    at different times: each completion changes the node's share."""
    machine = Machine(SPECS["ivy"])
    a, b = machine.contexts_of_socket(0)[:2]
    c, d = machine.contexts_of_socket(1)[:2]
    program = (
        [(a, [[("stream", 0, 3_000_000), ("compute", 100),
               ("stream", 0, 500_000)]]),
         (b, [[("stream", 0, 1_000_000), ("stream", 1, 800_000)]]),
         (c, [[("stream", 0, 2_000_000), ("compute", 2_000)]]),
         (d, [[("stream", 0, 4_000_000)]])],
        None,
        False,
    )
    _assert_overrides_ran(_assert_same(program))


def _crossing_program(engine, pair):
    """Four threads, each crossing a 2-party barrier three times after
    computes that make a different pair arrive first in every round."""
    machine = engine.machine
    ctxs = [machine.context_id(0, 0), machine.context_id(1, 0),
            machine.context_id(machine.spec.cores_per_socket, 0),
            machine.context_id(0, 1)]
    cycles = [(1_000, 100_000, 300_000), (2_000, 200_000, 500_000),
              (50_000, 50_000, 600_000), (60_000, 200_000, 100_000)]

    def body(rounds):
        for c in rounds:
            yield Compute(c)
            yield BarrierWait(pair)

    for ctx, rounds in zip(ctxs, cycles):
        engine.spawn(ctx, body(rounds))


@pytest.mark.parametrize("track_energy", [True, False])
def test_barrier_crossed_by_changing_parties(track_energy):
    """A barrier crossed six times by six different pairs of contexts
    (same socket, across sockets, SMT siblings) charges each crossing
    its own pair's latency."""
    spec = SPECS["ivy"]
    runs = []
    for engine_cls, machine in ((Engine, Machine(spec)),
                                (RescanEngine, FormulaMachine(spec))):
        engine = engine_cls(machine, track_energy=track_energy)
        pair = Barrier(2)
        _crossing_program(engine, pair)
        runs.append(engine.run())
        assert pair.crossings == 6
    assert runs[0] == runs[1]
    if track_energy:
        _assert_overrides_ran(engine)


def test_two_threads_on_one_context_meet_at_a_barrier():
    """Two threads share a context (their pair latency is 0) and cross
    barriers with each other and with a third thread, three times."""
    machine = Machine(SPECS["ivy"])
    shared = machine.context_id(2, 0)
    other = machine.context_id(machine.spec.cores_per_socket + 1, 1)
    program = (
        [(shared, [[("compute", 3_000)], [("lock", 0, 200)],
                   [("sleep", 50)], [("compute", 10)]]),
         (shared, [[("compute", 1_000)], [("comm", other)],
                   [("compute", 400)], [("chase", 1, 20)]]),
         (other, [[("sleep", 9_000)], [("compute", 700)],
                  [("stream", 0, 90_000)], []])],
        None,
        True,  # the two threads on ``shared`` also meet each phase
    )
    _assert_overrides_ran(_assert_same(program))


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
