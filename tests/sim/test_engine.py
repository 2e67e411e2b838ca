"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import MachineModelError, SimulationError
from repro.hardware import get_machine
from repro.sim import (
    Barrier,
    BarrierWait,
    Communicate,
    Compute,
    Engine,
    Flag,
    MemChase,
    MemStream,
    Sleep,
)


@pytest.fixture()
def engine(testbox):
    return Engine(testbox)


class TestCompute:
    def test_single_thread_duration(self, engine):
        def prog():
            yield Compute(1000)
            return "done"

        t = engine.spawn(0, prog())
        stats = engine.run()
        assert stats.cycles == 1000
        assert stats.results[t.tid] == "done"

    def test_smt_interference(self, testbox):
        """Two compute threads on one core run slower than on two."""
        def prog():
            yield Compute(10_000)

        same_core = Engine(testbox)
        c0, c1 = testbox.contexts_of_core(0)
        same_core.spawn(c0, prog())
        same_core.spawn(c1, prog())
        t_same = same_core.run().cycles

        diff_core = Engine(testbox)
        diff_core.spawn(testbox.context_id(0, 0), prog())
        diff_core.spawn(testbox.context_id(1, 0), prog())
        t_diff = diff_core.run().cycles

        assert t_diff == 10_000
        assert t_same > t_diff * 1.3

    def test_sequential_compute_accumulates(self, engine):
        def prog():
            yield Compute(300)
            yield Compute(700)

        engine.spawn(0, prog())
        assert engine.run().cycles == 1000


class TestDispatch:
    """A command finds its handler by its type; a subclass of a command
    type dispatches as its base does, and anything else is refused."""

    def test_compute_subclass_prices_like_compute(self, testbox):
        class TaggedCompute(Compute):
            pass

        def prog(kind):
            yield kind(10_000)
            yield kind(500)

        c0, c1 = testbox.contexts_of_core(0)
        runs = []
        for kind in (Compute, TaggedCompute):
            engine = Engine(testbox, track_energy=True)
            engine.spawn(c0, prog(kind))
            engine.spawn(c1, prog(kind))
            runs.append(engine.run())
        base, tagged = runs
        assert base.cycles > 10_500  # the siblings slowed each other
        assert tagged == base

    def test_unknown_command_is_refused(self, engine):
        def prog():
            yield "compute please"

        engine.spawn(0, prog())
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        assert str(excinfo.value) == "unknown command 'compute please'"


class TestMemory:
    def test_chase_pays_numa_latency(self, testbox):
        def prog(node):
            yield MemChase(node, accesses=100)

        local = Engine(testbox)
        local.spawn(0, prog(0))
        t_local = local.run().cycles

        remote = Engine(testbox)
        remote.spawn(0, prog(1))
        t_remote = remote.run().cycles

        assert t_local == 100 * testbox.mem_latency(0, 0)
        assert t_remote > t_local

    def test_stream_bandwidth_sharing(self, testbox):
        """Many streams on one channel take longer than one stream."""
        n_bytes = 50e6

        def prog():
            yield MemStream(0, n_bytes)

        solo = Engine(testbox)
        solo.spawn(0, prog())
        t_solo = solo.run().cycles

        crowd = Engine(testbox)
        for ctx in testbox.contexts_of_socket(0):
            crowd.spawn(ctx, prog())
        t_crowd = crowd.run().cycles

        # 4 streams fair-share the 20 GB/s channel: 5 GB/s each.
        fair_rate = testbox.mem_bandwidth(0, 0) / 4
        expected = n_bytes / (fair_rate / testbox.spec.freq_max_ghz)
        assert t_crowd == pytest.approx(expected, rel=0.01)
        assert t_crowd > t_solo

    def test_remote_stream_slower(self, testbox):
        n_bytes = 10e6

        def prog(node):
            yield MemStream(node, n_bytes)

        local = Engine(testbox)
        local.spawn(0, prog(0))
        remote = Engine(testbox)
        remote.spawn(0, prog(1))
        assert remote.run().cycles > local.run().cycles

    def test_node_dram_cap_shared_across_sockets(self, testbox):
        """Two sockets streaming from one node split its DRAM bandwidth
        — remote access does not add bandwidth to a node."""
        n_bytes = 20e6

        def prog():
            yield MemStream(0, n_bytes)

        both = Engine(testbox)
        both.spawn(testbox.contexts_of_socket(0)[0], prog())
        both.spawn(testbox.contexts_of_socket(1)[0], prog())
        t_both = both.run().cycles

        solo = Engine(testbox)
        solo.spawn(testbox.contexts_of_socket(0)[0], prog())
        t_solo = solo.run().cycles
        # Node 0's DRAM (20 GB/s) splits two ways: 10 GB/s each, which
        # exceeds the single-thread limit (7 GB/s) -> no slowdown here;
        # but with 4 streams per socket the node cap binds.
        assert t_both >= t_solo

        crowd = Engine(testbox)
        for ctx in testbox.contexts_of_socket(0):
            crowd.spawn(ctx, prog())
        for ctx in testbox.contexts_of_socket(1):
            crowd.spawn(ctx, prog())
        t_crowd = crowd.run().cycles
        # 8 streams over a 20 GB/s node: 2.5 GB/s each.
        expected = n_bytes / ((testbox.mem_bandwidth(0, 0) / 8)
                              / testbox.spec.freq_max_ghz)
        assert t_crowd == pytest.approx(expected, rel=0.02)

    def test_streams_on_distinct_channels_independent(self, testbox):
        def prog(node):
            yield MemStream(node, 10e6)

        both = Engine(testbox)
        both.spawn(testbox.contexts_of_socket(0)[0], prog(0))
        both.spawn(testbox.contexts_of_socket(1)[0], prog(1))
        t_both = both.run().cycles

        one = Engine(testbox)
        one.spawn(testbox.contexts_of_socket(0)[0], prog(0))
        t_one = one.run().cycles
        assert t_both == pytest.approx(t_one, rel=0.01)


class TestMemoryOutsideMachine:
    """Ivy has memory nodes 0 and 1: any other node is an error, not a
    wrapped index into the hop table or a bare IndexError."""

    @staticmethod
    def _run(machine, command):
        def prog():
            yield command

        engine = Engine(machine)
        engine.spawn(0, prog())
        return engine.run()

    def test_chase_negative_node(self, ivy):
        with pytest.raises(MachineModelError):
            self._run(ivy, MemChase(node=-1, accesses=10))

    def test_chase_missing_node(self, ivy):
        with pytest.raises(MachineModelError):
            self._run(ivy, MemChase(node=7, accesses=10))

    def test_stream_missing_node(self, ivy):
        with pytest.raises(MachineModelError):
            self._run(ivy, MemStream(7, 1e6))

    def test_stream_negative_node(self, ivy):
        with pytest.raises(MachineModelError):
            self._run(ivy, MemStream(-1, 1e6))


class TestCommunicate:
    def test_pays_topology_latency(self, testbox):
        peer = testbox.contexts_of_socket(1)[0]

        def prog():
            yield Communicate(peer)

        engine = Engine(testbox)
        engine.spawn(0, prog())
        assert engine.run().cycles == testbox.comm_latency(0, peer)


class TestSynchronization:
    def test_barrier_waits_for_all(self, testbox):
        barrier = Barrier(2, crossing_cost=0.0)
        log = []

        def fast():
            yield Compute(100)
            yield BarrierWait(barrier)
            log.append(("fast", "after"))

        def slow():
            yield Compute(5000)
            yield BarrierWait(barrier)
            log.append(("slow", "after"))

        engine = Engine(testbox)
        engine.spawn(0, fast())
        engine.spawn(1, slow())
        stats = engine.run()
        assert stats.cycles == 5000
        assert len(log) == 2
        assert barrier.crossings == 1

    def test_barrier_crossing_cost_is_topology_aware(self, testbox):
        def prog(b):
            yield BarrierWait(b)

        cross = Barrier(2)
        e1 = Engine(testbox)
        e1.spawn(testbox.contexts_of_socket(0)[0], prog(cross))
        e1.spawn(testbox.contexts_of_socket(1)[0], prog(cross))
        t_cross = e1.run().cycles

        local = Barrier(2)
        e2 = Engine(testbox)
        c0, c1 = testbox.contexts_of_core(0)
        e2.spawn(c0, prog(local))
        e2.spawn(c1, prog(local))
        t_local = e2.run().cycles
        assert t_cross > t_local

    def test_barrier_reusable(self, testbox):
        barrier = Barrier(2, crossing_cost=10.0)

        def prog():
            for _ in range(3):
                yield Compute(10)
                yield BarrierWait(barrier)

        engine = Engine(testbox)
        engine.spawn(0, prog())
        engine.spawn(1, prog())
        engine.run()
        assert barrier.crossings == 3

    def test_flag_signal(self, testbox):
        flag = Flag()
        order = []

        def waiter():
            yield BarrierWait(flag)
            order.append("woke")

        def setter():
            yield Compute(2000)
            flag.set(engine)
            order.append("set")

        engine = Engine(testbox)
        engine.spawn(0, waiter())
        engine.spawn(1, setter())
        stats = engine.run()
        assert stats.cycles == 2000
        assert "woke" in order

    def test_deadlock_detected(self, testbox):
        barrier = Barrier(2)

        def lonely():
            yield BarrierWait(barrier)

        engine = Engine(testbox)
        engine.spawn(0, lonely())
        with pytest.raises(SimulationError):
            engine.run()

    def test_runaway_detected(self, testbox):
        def forever():
            while True:
                yield Compute(1000)

        engine = Engine(testbox)
        engine.spawn(0, forever())
        with pytest.raises(SimulationError):
            engine.run(max_cycles=50_000)


class TestSleepAndStats:
    def test_sleep_not_busy(self, engine):
        def prog():
            yield Compute(100)
            yield Sleep(900)

        t = engine.spawn(0, prog())
        stats = engine.run()
        assert stats.cycles == 1000
        assert stats.per_thread_busy[t.tid] == 100

    def test_seconds_conversion(self, testbox):
        def prog():
            yield Compute(2_000_000)  # 2M cycles at 2 GHz = 1 ms

        engine = Engine(testbox)
        engine.spawn(0, prog())
        stats = engine.run()
        assert stats.seconds == pytest.approx(1e-3)

    def test_metrics_hold_only_instruments_used(self, testbox):
        """Instruments are created on first use: a run without locks,
        barriers or streams reports no zero-valued counters for them."""
        def prog():
            yield Compute(100)
            yield Sleep(5)

        engine = Engine(testbox)
        engine.spawn(0, prog())
        assert sorted(engine.run().metrics) == [
            "sim.cycles", "sim.events", "sim.thread_blocked_cycles",
            "sim.thread_busy_cycles", "sim.threads_spawned",
        ]

    def test_spawn_bad_context(self, engine):
        def prog():
            yield Compute(1)

        with pytest.raises(MachineModelError):
            engine.spawn(10_000, prog())


class TestEnergy:
    def test_energy_tracked_on_intel(self, testbox):
        def prog():
            yield Compute(10_000_000)

        engine = Engine(testbox, track_energy=True)
        engine.spawn(0, prog())
        stats = engine.run()
        assert stats.energy_joules is not None and stats.energy_joules > 0

    def test_more_threads_more_power(self, testbox):
        def prog():
            yield Compute(10_000_000)

        one = Engine(testbox, track_energy=True)
        one.spawn(0, prog())
        e_one = one.run().energy_joules

        # Two threads on two sockets: same duration, more watts.
        two = Engine(testbox, track_energy=True)
        two.spawn(testbox.contexts_of_socket(0)[0], prog())
        two.spawn(testbox.contexts_of_socket(1)[0], prog())
        e_two = two.run().energy_joules
        assert e_two > e_one

    def test_energy_none_without_tracking(self, testbox):
        def prog():
            yield Compute(10)

        engine = Engine(testbox)
        engine.spawn(0, prog())
        assert engine.run().energy_joules is None
