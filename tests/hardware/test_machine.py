"""Unit tests for the machine model: numbering, latencies, memory."""

from __future__ import annotations

import pytest

from repro.errors import MachineModelError
from repro.hardware import get_machine, get_spec, machine_names
from repro.hardware.machine import Machine, _pair_jitter


@pytest.mark.parametrize("name", machine_names())
class TestEveryMachine:
    def test_context_mapping_roundtrip(self, name):
        m = get_machine(name)
        spec = m.spec
        for ctx in range(spec.n_contexts):
            core = m.core_of(ctx)
            smt = m.smt_index_of(ctx)
            assert m.context_id(core, smt) == ctx

    def test_socket_partition(self, name):
        m = get_machine(name)
        seen: set[int] = set()
        for s in range(m.spec.n_sockets):
            ctxs = m.contexts_of_socket(s)
            assert len(ctxs) == m.spec.cores_per_socket * m.spec.smt_per_core
            assert not seen & set(ctxs)
            seen.update(ctxs)
        assert len(seen) == m.spec.n_contexts

    def test_core_partition(self, name):
        m = get_machine(name)
        seen: set[int] = set()
        for core in range(m.spec.n_cores):
            ctxs = m.contexts_of_core(core)
            assert len(ctxs) == m.spec.smt_per_core
            for c in ctxs:
                assert m.core_of(c) == core
            seen.update(ctxs)
        assert len(seen) == m.spec.n_contexts

    def test_latency_symmetric_and_zero_diagonal(self, name):
        m = get_machine(name)
        step = max(1, m.spec.n_contexts // 12)
        sample = range(0, m.spec.n_contexts, step)
        for a in sample:
            assert m.comm_latency(a, a) == 0
            for b in sample:
                assert m.comm_latency(a, b) == m.comm_latency(b, a)

    def test_latency_ordering(self, name):
        """SMT < intra-socket < cross-socket latency, where applicable."""
        m = get_machine(name)
        spec = m.spec
        intra = m.comm_latency(m.context_id(0, 0), m.context_id(1, 0))
        if spec.has_smt:
            smt = m.comm_latency(m.context_id(0, 0), m.context_id(0, 1))
            assert smt < intra
        if spec.n_sockets > 1:
            other = m.contexts_of_socket(1)[0]
            cross = m.comm_latency(m.context_id(0, 0), other)
            assert intra < cross

    def test_memory_local_is_fastest(self, name):
        m = get_machine(name)
        for s in range(m.spec.n_sockets):
            local = m.local_node_of_socket(s)
            lat_local = m.mem_latency(s, local)
            bw_local = m.mem_bandwidth(s, local)
            for node in range(m.spec.n_nodes):
                if node == local:
                    continue
                assert m.mem_latency(s, node) > lat_local
                assert m.mem_bandwidth(s, node) < bw_local

    def test_single_thread_bandwidth_below_socket(self, name):
        m = get_machine(name)
        local = m.local_node_of_socket(0)
        assert m.mem_bandwidth_single(0, local) < m.mem_bandwidth(0, local)


class TestNumberingSchemes:
    def test_ivy_smt_blocked(self, ivy):
        # Context 0 and 20 are SMT siblings of core 0 (paper, Figure 6).
        assert ivy.core_of(0) == ivy.core_of(20) == 0
        assert ivy.smt_index_of(0) == 0
        assert ivy.smt_index_of(20) == 1
        # Contexts 0..9 are socket 0, 10..19 socket 1.
        assert ivy.socket_of(9) == 0
        assert ivy.socket_of(10) == 1

    def test_sparc_consecutive(self, sparc):
        # Contexts 0..7 share core 0 (paper, Figure 3).
        assert {sparc.core_of(c) for c in range(8)} == {0}
        assert sparc.core_of(8) == 1
        assert sparc.socket_of(63) == 0
        assert sparc.socket_of(64) == 1


class TestPaperLatencies:
    """The canonical numbers from the paper's figures."""

    def test_ivy_clusters(self, ivy):
        smt = ivy.comm_latency(0, 20)
        intra = ivy.comm_latency(0, 5)
        cross = ivy.comm_latency(0, 15)
        assert abs(smt - 28) <= ivy.spec.smt_jitter
        assert abs(intra - 112) <= ivy.spec.intra_jitter
        assert abs(cross - 308) <= ivy.spec.cross_jitter

    def test_opteron_three_cross_levels(self, opteron):
        sib = opteron.socket_latency(0, 1)
        direct = opteron.socket_latency(0, 2)
        two_hop = opteron.socket_latency(0, 3)
        assert sib == 197
        assert direct == 217
        assert two_hop == 300

    def test_westmere_two_hop(self):
        m = get_machine("westmere")
        assert m.socket_latency(0, 1) == 341
        assert m.socket_latency(0, 4) == 458  # antipode, 2 hops
        assert m.interconnect.hops(0, 4) == 2

    def test_sparc_memory_figures(self, sparc):
        assert sparc.mem_latency(0, 0) == 479
        assert sparc.mem_bandwidth(0, 0) == pytest.approx(28.2)
        assert sparc.mem_latency(0, 1) == 479 + 205


class TestJitter:
    def test_symmetric_and_bounded(self):
        for amp in (1, 5, 12):
            for a in range(20):
                for b in range(20):
                    j = _pair_jitter(a, b, amp)
                    assert j == _pair_jitter(b, a, amp)
                    assert -amp <= j <= amp

    def test_zero_amplitude(self):
        assert _pair_jitter(3, 9, 0) == 0

    def test_spreads_values(self):
        values = {_pair_jitter(a, b, 10) for a in range(30) for b in range(a)}
        assert len(values) > 10


class TestSpecValidation:
    def test_bad_numbering_rejected(self):
        spec = get_spec("testbox")
        with pytest.raises(MachineModelError):
            type(spec)(**{**spec.__dict__, "numbering": "weird"})

    def test_context_out_of_range(self, testbox):
        with pytest.raises(MachineModelError):
            testbox.comm_latency(0, 10_000)

    @pytest.mark.parametrize("ctx", [-1, 40, 999])
    def test_same_context_out_of_range(self, ivy, ctx):
        # Both contexts are validated before the same-context shortcut.
        with pytest.raises(MachineModelError):
            ivy.comm_latency(ctx, ctx)

    @pytest.mark.parametrize("ctx", [-1, 40])
    def test_lookup_out_of_range(self, ivy, ctx):
        # A negative id must not wrap around the context tables.
        for lookup in (ivy.core_of, ivy.socket_of):
            with pytest.raises(MachineModelError):
                lookup(ctx)

    @pytest.mark.parametrize("socket, node", [(0, -1), (0, 2), (0, 7),
                                              (-1, 0), (2, 0)])
    def test_memory_outside_machine(self, ivy, socket, node):
        for query in (ivy.mem_latency, ivy.mem_bandwidth,
                      ivy.mem_bandwidth_single):
            with pytest.raises(MachineModelError):
                query(socket, node)

    def test_bad_cluster_size(self):
        spec = get_spec("clusterix")
        with pytest.raises(MachineModelError):
            type(spec)(**{**spec.__dict__, "core_cluster_size": 5})

    def test_bad_node_permutation(self):
        spec = get_spec("opteron")
        with pytest.raises(MachineModelError):
            type(spec)(**{**spec.__dict__, "os_node_permutation": (0, 1)})

    def test_unknown_machine(self):
        with pytest.raises(MachineModelError):
            get_spec("pdp11")


class TestClusterMachine:
    def test_cluster_latency_level(self):
        m = get_machine("clusterix")
        # Cores 0,1,2 share a cluster; 3,4,5 are the other cluster.
        a = m.context_id(0, 0)
        b = m.context_id(1, 0)
        c = m.context_id(3, 0)
        in_cluster = m.comm_latency(a, b)
        out_cluster = m.comm_latency(a, c)
        assert abs(in_cluster - 60) <= m.spec.intra_jitter
        assert abs(out_cluster - 120) <= m.spec.intra_jitter
        assert in_cluster < out_cluster

    def test_spin_loop_smt_slowdown(self):
        m = get_machine("clusterix")
        solo = m.spin_loop_cycles(1000, sibling_busy=False)
        shared = m.spin_loop_cycles(1000, sibling_busy=True)
        assert shared > solo * 1.3


def test_describe_mentions_dimensions(ivy):
    text = ivy.describe()
    assert "2 sockets" in text and "40 hw contexts" in text


def test_machine_requires_connected_graph():
    from repro.hardware.caches import CacheLevelSpec
    from repro.hardware.machine import MachineSpec, MemoryProfile

    with pytest.raises(MachineModelError):
        Machine(
            MachineSpec(
                name="split",
                n_sockets=2,
                cores_per_socket=1,
                smt_per_core=1,
                freq_min_ghz=1,
                freq_max_ghz=1,
                caches=(CacheLevelSpec(1, 32, 4),),
                smt_latency=20,
                core_latency=100,
                links={},  # sockets not connected
                memory=MemoryProfile(200, 10.0),
            )
        )
