"""Discrete-event execution engine over a simulated machine.

Threads are Python generators pinned to hardware contexts; they yield
:mod:`repro.sim.commands` and the engine advances virtual time (in
cycles at the machine's maximum frequency), pricing every command from
the machine model:

* ``Compute`` pays SMT interference when siblings compute concurrently;
* ``MemStream`` shares each (socket, node) channel's bandwidth among
  its concurrent streams;
* ``MemChase`` pays the NUMA latency of every dependent access;
* ``Communicate`` pays the coherence latency between two contexts;
* locks and barriers delegate to their objects (see
  :mod:`repro.apps.locks` and :mod:`repro.sim.sync`).

When the machine has a power profile the engine also integrates energy:
package power is a function of which contexts are active, sampled at
every scheduling event.

An event costs its pricing and little else.  No event rescans the
threads, the channels or the machine: a thread's core and socket are
read once at spawn, and the engine keeps, incrementally, the number of
computing threads per core (SMT interference), each node's channels
and live streams, and, when it tracks energy, the active threads per
core plus the active contexts and active cores per socket (package
power).  Those counts change only where a thread's ``computing``,
``blocked`` or ``finished`` flag or a channel's streams do, and only
this module sets them, so at every event they equal a recount and
every result is bit-identical to one.  A thread's resume is the thread
itself on the heap, a command finds its handler in one dict, and the
energy samples are summed in :meth:`Engine.run`'s loop.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Generator

from repro.errors import SimulationError
from repro.hardware.machine import Machine
from repro.obs import Observability
from repro.sim.commands import (
    Acquire,
    BarrierWait,
    Communicate,
    Compute,
    MemChase,
    MemStream,
    Release,
    Sleep,
)

Program = Generator[Any, None, Any]


@dataclass
class SimThread:
    """One simulated thread pinned to a hardware context."""

    tid: int
    ctx: int
    program: Program
    name: str = ""
    finished: bool = False
    result: Any = None
    busy_cycles: float = 0.0
    blocked_cycles: float = 0.0
    blocked: bool = False
    computing: bool = False
    block_start: float | None = None
    core: int = -1
    socket: int = -1

    def __hash__(self) -> int:
        return self.tid


@dataclass
class RunStats:
    """What a finished simulation reports.

    ``per_thread_blocked`` is the lock/barrier wait time per thread and
    ``metrics`` a snapshot of the engine's observability registry (lock
    acquisitions, bandwidth-contention events, energy samples, ...).
    """

    cycles: float
    seconds: float
    energy_joules: float | None
    per_thread_busy: dict[int, float] = field(default_factory=dict)
    per_thread_blocked: dict[int, float] = field(default_factory=dict)
    results: dict[int, Any] = field(default_factory=dict)
    metrics: dict[str, dict] = field(default_factory=dict)


def _instrument(kind: str, name: str) -> cached_property:
    """An engine attribute holding one registry instrument.

    The instrument is created on first use, as a direct registry call
    would, so a run's metrics hold exactly the instruments it touched;
    after that it reads as a plain attribute.
    """
    return cached_property(lambda engine: getattr(engine.obs, kind)(name))


class Engine:
    """The event loop: a heap of ``(time, seq, thread | callback)``.

    A thread's resume is the thread itself, run as ``_step(thread)``;
    only a channel completion is a callback.  Ties break on ``seq``, the
    push order.
    """

    _spawned = _instrument("counter", "sim.threads_spawned")
    _smt_contended = _instrument("counter", "sim.smt_contended_computes")
    _mem_streams = _instrument("counter", "sim.mem_streams")
    _barrier_waits = _instrument("counter", "sim.barrier_waits")
    _lock_acquires = _instrument("counter", "sim.lock_acquires")
    _lock_releases = _instrument("counter", "sim.lock_releases")
    _blocks = _instrument("counter", "sim.blocks")
    _bw_contention = _instrument("counter", "sim.bw_contention_events")
    _bw_sharers = _instrument("histogram", "sim.bw_sharers")
    _energy_samples = _instrument("counter", "sim.energy_samples")
    _power_watts = _instrument("histogram", "sim.power_watts")

    def __init__(self, machine: Machine, track_energy: bool = False,
                 obs: Observability | None = None):
        self.machine = machine
        self.obs = obs if obs is not None else Observability()
        self.now = 0.0
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()  # push order: ties break on it
        self.threads: list[SimThread] = []
        spec = machine.spec
        self._computing = [0] * spec.n_cores  # computing threads per core
        self._smt_step = spec.smt_slowdown - 1.0
        # Memory channels by (socket, node), and per node its channels
        # in creation order and its count of live streams.
        self._channels: dict[tuple[int, int], _Channel] = {}
        self._node_channels: dict[int, list[_Channel]] = {}
        self._streams_on_node: dict[int, int] = {}
        self._mem_latency: dict[tuple[int, int], int] = {}
        self._energy: float | None = None
        self._power_model = None
        if track_energy:
            from repro.hardware.power import PowerModel

            self._power_model = PowerModel(machine)
            self._energy = 0.0
            self._last_energy_time = 0.0
            # Active (neither blocked nor finished) threads per core,
            # and per socket the active threads ("contexts": two
            # threads on one context count twice, as in a rescan) and
            # the cores with at least one active thread.
            self._active_on_core = [0] * spec.n_cores
            self._active_ctxs = [0] * spec.n_sockets
            self._active_cores = [0] * spec.n_sockets
            self._watts: float | None = None  # None: counts changed
            self._socket_watts: dict[tuple[int, int], float] = {}

    # ----------------------------------------------------------- spawning
    def spawn(self, ctx: int, program: Program, name: str = "") -> SimThread:
        machine = self.machine
        thread = SimThread(tid=len(self.threads), ctx=ctx, program=program,
                           name=name or f"t{len(self.threads)}",
                           core=machine.core_of(ctx),
                           socket=machine.socket_of(ctx))
        self.threads.append(thread)
        self._count_active(thread, 1)
        self._spawned.inc()
        self._at(self.now, thread)
        return thread

    def _at(self, when: float, item: Any) -> None:
        """Schedule a thread's resume, or a callback, at ``when``."""
        heapq.heappush(self._heap, (when, next(self._seq), item))

    # ------------------------------------------------------------ pricing
    def smt_factor(self, thread: SimThread) -> float:
        """Compute-slowdown from SMT siblings currently computing."""
        siblings = self._computing[thread.core]
        if thread.computing:
            siblings -= 1
        return 1.0 + siblings * self._smt_step

    def _stream_rate(self, ch: "_Channel", sharers: int) -> float:
        """Per-stream bytes/cycle on a channel with ``sharers`` streams.

        Three limits apply: what a single thread can pull, the channel's
        path capacity (local controller or interconnect link), and the
        node's DRAM itself — sockets streaming from the same node share
        its DRAM bandwidth, they do not add to it.
        """
        node_streams = max(self._streams_on_node[ch.node], sharers, 1)
        per_thread = min(ch.single, ch.cap / max(sharers, 1),
                         ch.node_cap / node_streams)
        return max(per_thread / self.machine.spec.freq_max_ghz, 1e-12)

    def _advance_channel(self, ch: "_Channel") -> None:
        """Progress every active stream of a channel up to ``now``."""
        dt = self.now - ch.last_update
        if dt > 0 and ch.streams:
            rate = self._stream_rate(ch, len(ch.streams))
            for state in ch.streams.values():
                state[0] = max(state[0] - rate * dt, 0.0)
        ch.last_update = self.now

    def _rebalance_channel(self, ch: "_Channel") -> None:
        """Reschedule the channel's next completion after a change.

        Only the *earliest* finisher gets an event (one heap push per
        membership change instead of one per stream); when it fires,
        every stream that has drained by then completes together.
        """
        ch.epoch += 1
        epoch = ch.epoch
        if not ch.streams:
            return
        if len(ch.streams) > 1:
            # Several streams now share this channel's bandwidth.
            self._bw_contention.inc()
            self._bw_sharers.observe(len(ch.streams))
        rate = self._stream_rate(ch, len(ch.streams))
        next_done = min(state[0] for state in ch.streams.values()) / rate
        # Never schedule below the current time's float resolution: a
        # nearly-drained stream would otherwise fire at `now` forever.
        next_done = max(next_done, math.ulp(self.now))
        self._at(
            self.now + next_done,
            lambda e=epoch: self._channel_event(ch, e),
        )

    def _advance_node_channels(self, node: int) -> None:
        for ch in self._node_channels[node]:
            self._advance_channel(ch)

    def _rebalance_node_channels(self, node: int) -> None:
        # A membership change on one channel shifts the DRAM share of
        # every other channel reading the same node.
        for ch in self._node_channels[node]:
            self._rebalance_channel(ch)

    def _channel_event(self, ch: "_Channel", epoch: int) -> None:
        if epoch != ch.epoch:
            return  # stale event
        self._advance_node_channels(ch.node)
        # "Finished" is judged in time, not bytes: anything that would
        # drain within a micro-cycle is done (bytes-level thresholds
        # dead-lock against float resolution at large timestamps).
        rate = self._stream_rate(ch, len(ch.streams) or 1)
        threshold = max(rate * 1e-3, 1e-6)
        finished = [
            (thread, state)
            for thread, state in ch.streams.items()
            if state[0] <= threshold
        ]
        for thread, state in finished:
            del ch.streams[thread]
            thread.busy_cycles += self.now - state[1]
        self._streams_on_node[ch.node] -= len(finished)
        self._rebalance_node_channels(ch.node)
        for thread, _ in finished:
            self._step(thread)

    # ---------------------------------------------------------- main loop
    def run(self, max_cycles: float = float("inf")) -> RunStats:
        """Run every thread to completion (or fail at ``max_cycles``).

        With energy tracking on, each event with time elapsed since the
        last sample adds package power times that time, in the order
        and with the expressions of a per-event sample, and observes
        the watts in ``sim.power_watts``.  The samples reach
        ``sim.energy_samples`` as one count, flushed in a ``finally``:
        a run that raises leaves the registry as per-event sampling
        would.
        """
        events = 0
        heap = self._heap
        pop = heapq.heappop
        step = self._step
        tracking = self._power_model is not None
        if tracking:
            energy = self._energy
            last_sample = self._last_energy_time
            hz = self.machine.spec.freq_max_ghz * 1e9
        samples = 0
        with self.obs.span("sim.run", n_threads=len(self.threads)):
            try:
                while heap:
                    at, _, item = pop(heap)
                    if at > max_cycles:
                        raise SimulationError(
                            f"simulation exceeded {max_cycles} cycles — "
                            "deadlock or runaway program?"
                        )
                    if tracking:
                        dt_cycles = at - last_sample
                        if dt_cycles > 0:
                            watts = self._watts
                            if watts is None:
                                watts = self._watts = self._package_watts()
                            energy += watts * (dt_cycles / hz)
                            last_sample = at
                            samples += 1
                            self._power_watts.observe(watts)
                    self.now = at
                    events += 1
                    if item.__class__ is SimThread:
                        step(item)
                    else:
                        item()
            finally:
                if tracking:
                    self._energy = energy
                    self._last_energy_time = last_sample
                if samples:
                    self._energy_samples.inc(samples)
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
        spec = self.machine.spec
        seconds = self.now / (spec.freq_max_ghz * 1e9)
        return RunStats(
            cycles=self.now,
            seconds=seconds,
            energy_joules=self._energy,
            per_thread_busy={t.tid: t.busy_cycles for t in self.threads},
            per_thread_blocked={
                t.tid: t.blocked_cycles for t in self.threads
            },
            results={t.tid: t.result for t in self.threads},
            metrics=self.obs.registry.snapshot(),
        )

    def _step(self, thread: SimThread) -> None:
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
        handler = _HANDLERS.get(type(command))
        if handler is None:
            handler = _subclass_handler(command)
        handler(self, thread, command)

    # ----------------------------------------------------------- commands
    # One handler per command type, found through ``_HANDLERS``.  Each
    # runs from ``_step``, which has already cleared ``computing``.
    def _compute(self, thread: SimThread, command: Compute) -> None:
        factor = self.smt_factor(thread)
        if factor > 1.0:
            self._smt_contended.inc()
        duration = command.cycles * factor
        thread.computing = True
        self._computing[thread.core] += 1
        thread.busy_cycles += duration
        self._at(self.now + duration, thread)

    def _mem_stream(self, thread: SimThread, command: MemStream) -> None:
        self._mem_streams.inc()
        node = command.node
        key = (thread.socket, node)
        ch = self._channels.get(key)
        if ch is None:
            # Creating the channel validates the socket and the node.
            ch = self._channels[key] = _Channel(self.machine, *key)
            self._node_channels.setdefault(node, []).append(ch)
            self._streams_on_node.setdefault(node, 0)
        self._advance_node_channels(node)
        ch.streams[thread] = [float(command.n_bytes), self.now]
        self._streams_on_node[node] += 1
        self._rebalance_node_channels(node)

    def _mem_chase(self, thread: SimThread, command: MemChase) -> None:
        key = (thread.socket, command.node)
        latency = self._mem_latency.get(key)
        if latency is None:
            # The machine validates the socket and the node.
            latency = self._mem_latency[key] = self.machine.mem_latency(*key)
        duration = command.accesses * latency
        thread.busy_cycles += duration
        self._at(self.now + duration, thread)

    def _communicate(self, thread: SimThread, command: Communicate) -> None:
        duration = float(
            self.machine.comm_latency(thread.ctx, command.peer_ctx)
        )
        thread.busy_cycles += duration
        self._at(self.now + duration, thread)

    def _sleep(self, thread: SimThread, command: Sleep) -> None:
        self._at(self.now + command.cycles, thread)

    def _barrier_wait(self, thread: SimThread, command: BarrierWait) -> None:
        self._barrier_waits.inc()
        command.barrier._arrive(self, thread)

    def _acquire(self, thread: SimThread, command: Acquire) -> None:
        self._lock_acquires.inc()
        command.lock._request(self, thread)

    def _release(self, thread: SimThread, command: Release) -> None:
        self._lock_releases.inc()
        command.lock._release(self, thread)

    # --------------------------------------------------------- wake/block
    def wake(self, thread: SimThread, at: float) -> None:
        """Used by locks and barriers to resume a blocked thread."""
        if at < self.now:
            raise SimulationError("cannot wake a thread in the past")
        if thread.block_start is not None:
            # The blocked interval ends when the thread actually resumes.
            thread.blocked_cycles += at - thread.block_start
            thread.block_start = None
        self._set_blocked(thread, False)
        self._at(at, thread)

    def block(self, thread: SimThread) -> None:
        self._set_blocked(thread, True)
        thread.block_start = self.now
        self._blocks.inc()

    def _set_blocked(self, thread: SimThread, blocked: bool) -> None:
        if thread.blocked != blocked:
            thread.blocked = blocked
            if not thread.finished:
                self._count_active(thread, -1 if blocked else 1)

    # ------------------------------------------------------------- energy
    def _count_active(self, thread: SimThread, delta: int) -> None:
        """A thread became active (``delta=1``) or inactive (``-1``)."""
        if self._power_model is None:
            return
        before = self._active_on_core[thread.core]
        self._active_on_core[thread.core] = before + delta
        if not before or not before + delta:  # the core woke or idled
            self._active_cores[thread.socket] += delta
        self._active_ctxs[thread.socket] += delta
        self._watts = None

    def _package_watts(self) -> float:
        """Package power (all sockets, DRAM included) of the counts.

        The sum ``sum()`` would make over the sockets in socket order,
        from integer 0, of ``PowerModel.socket_watts``, memoized per
        ``(active contexts, active cores)``: the same double as summing
        ``PowerModel.estimate(active, with_dram=True, sockets=all)``.
        """
        memo = self._socket_watts
        watts = 0
        for counts in zip(self._active_ctxs, self._active_cores):
            part = memo.get(counts)
            if part is None:
                part = memo[counts] = self._power_model.socket_watts(
                    *counts, with_dram=True)
            watts += part
        return watts


#: Command type -> its ``Engine`` handler.
_HANDLERS: dict[type, Callable[[Engine, SimThread, Any], None]] = {
    Compute: Engine._compute,
    MemStream: Engine._mem_stream,
    MemChase: Engine._mem_chase,
    Communicate: Engine._communicate,
    Sleep: Engine._sleep,
    BarrierWait: Engine._barrier_wait,
    Acquire: Engine._acquire,
    Release: Engine._release,
}


def _subclass_handler(
    command: Any,
) -> Callable[[Engine, SimThread, Any], None]:
    """The handler of the first command type, in ``_HANDLERS`` order,
    that ``command`` is an instance of: a subclass of a command
    dispatches as its base does."""
    for kind, handler in _HANDLERS.items():
        if isinstance(command, kind):
            return handler
    raise SimulationError(f"unknown command {command!r}")


class _Channel:
    """Fair-shared memory channel: one per (socket, node) pair.

    ``streams`` maps each active thread to ``[remaining_bytes,
    start_time]``; completions are rescheduled (with an epoch tag to
    cancel stale events) whenever a stream joins or leaves.  The
    channel's three bandwidth limits (GB/s) are read from the machine
    once, which also rejects a socket or node the machine lacks.
    """

    __slots__ = ("node", "cap", "single", "node_cap", "streams",
                 "last_update", "epoch")

    def __init__(self, machine: Machine, socket: int, node: int) -> None:
        self.node = node
        self.cap = machine.mem_bandwidth(socket, node)
        self.single = machine.mem_bandwidth_single(socket, node)
        self.node_cap = machine.mem_bandwidth(machine.socket_of_node(node),
                                              node)
        self.streams: dict[SimThread, list[float]] = {}
        self.last_update = 0.0
        self.epoch = 0
