"""Tests for Placement objects and the placement pool."""

from __future__ import annotations

import pytest

from repro.core.algorithm import InferenceConfig, LatencyTableConfig, infer_topology
from repro.errors import PlacementError
from repro.hardware import get_machine
from repro.place import Placement, PlacementPool, Policy

FAST = InferenceConfig(table=LatencyTableConfig(repetitions=31))


@pytest.fixture(scope="module")
def ivy_m():
    return infer_topology(get_machine("ivy"), seed=1, config=FAST)


@pytest.fixture(scope="module")
def op():
    return infer_topology(get_machine("opteron"), seed=1, config=FAST)


class TestPinUnpin:
    def test_pin_follows_ordering(self, ivy_m):
        p = Placement(ivy_m, Policy.CON_HWC, n_threads=4)
        pins = [p.pin() for _ in range(4)]
        assert [t.ctx for t in pins] == p.ordering

    def test_pin_exhaustion(self, ivy_m):
        p = Placement(ivy_m, Policy.CON_HWC, n_threads=2)
        p.pin()
        p.pin()
        with pytest.raises(PlacementError):
            p.pin()

    def test_unpin_recycles(self, ivy_m):
        p = Placement(ivy_m, Policy.CON_HWC, n_threads=2)
        a = p.pin()
        p.pin()
        p.unpin(a.ctx)
        again = p.pin()
        assert again.ctx == a.ctx

    def test_unpin_unknown(self, ivy_m):
        p = Placement(ivy_m, Policy.CON_HWC, n_threads=2)
        with pytest.raises(PlacementError):
            p.unpin(999)

    def test_pinned_thread_info(self, ivy_m):
        p = Placement(ivy_m, Policy.CON_HWC, n_threads=1)
        t = p.pin()
        assert t.socket_id == ivy_m.socket_of_context(t.ctx)
        assert t.local_node == ivy_m.get_local_node(t.ctx)
        assert t.ctx_index_in_socket >= 0


class TestFigure7:
    """The paper's example: CON_HWC, 30 threads on Ivy."""

    @pytest.fixture(scope="class")
    def place30(self, ivy_m):
        return Placement(ivy_m, Policy.CON_HWC, n_threads=30)

    def test_cores_and_sockets(self, place30):
        assert place30.n_threads == 30
        assert len(place30.cores_used()) == 15  # paper: "# Cores: 15"
        assert len(place30.sockets_used()) == 2

    def test_contexts_per_socket(self, place30):
        counts = sorted(place30.contexts_per_socket().values(), reverse=True)
        assert counts == [20, 10]  # "# HW ctx / socket: 20 10"

    def test_cores_per_socket(self, place30):
        counts = sorted(place30.cores_per_socket().values(), reverse=True)
        assert counts == [10, 5]  # "# Cores / socket: 10 5"

    def test_bw_proportions(self, place30):
        props = sorted(
            place30.bandwidth_proportions().values(), reverse=True
        )
        assert props[0] == pytest.approx(20 / 30, abs=0.02)
        assert sum(props) == pytest.approx(1.0)

    def test_max_latency_is_cross_socket(self, place30, ivy_m):
        assert place30.max_latency() == ivy_m.socket_latency(
            *ivy_m.socket_ids()
        )

    def test_power_estimates(self, place30):
        no_dram = place30.max_power(with_dram=False)
        with_dram = place30.max_power(with_dram=True)
        # Figure 7: 110.1 W without DRAM, 200.6 W with.
        assert sum(no_dram.values()) == pytest.approx(110.1, abs=4.0)
        assert sum(with_dram.values()) == pytest.approx(200.6, abs=8.0)

    def test_print_stats_format(self, place30):
        text = place30.print_stats()
        assert "MCTOP_PLACE_CON_HWC" in text
        assert "# Cores         : 15" in text
        assert "Max latency" in text
        assert "Watt" in text
        assert "Min bandwidth" in text

    def test_min_bandwidth_positive(self, place30):
        assert place30.min_bandwidth() > 0


class TestNonIntelPlacement:
    def test_no_power_lines(self, op):
        p = Placement(op, Policy.CON_HWC, n_threads=12)
        assert p.max_power(True) is None
        assert p.estimated_power() is None
        assert "Watt" not in p.print_stats()


class TestPool:
    def test_lazy_caching(self, ivy_m):
        pool = PlacementPool(ivy_m)
        a = pool.get(Policy.CON_HWC, n_threads=8)
        b = pool.get(Policy.CON_HWC, n_threads=8)
        c = pool.get(Policy.CON_HWC, n_threads=4)
        assert a is b
        assert a is not c
        assert len(pool) == 2

    def test_set_policy_switches_active(self, ivy_m):
        pool = PlacementPool(ivy_m)
        first = pool.set_policy(Policy.RR_CORE, n_threads=6)
        assert pool.active is first
        second = pool.set_policy("CON_CORE", n_threads=6)
        assert pool.active is second
        assert pool.active.policy is Policy.CON_CORE

    def test_a_refused_switch_keeps_the_active_placement(self, ivy_m):
        pool = PlacementPool(ivy_m)
        first = pool.set_policy(Policy.RR_CORE, n_threads=6)
        with pytest.raises(PlacementError):
            pool.set_policy(Policy.RR_CORE, n_threads=ivy_m.n_contexts + 1)
        assert pool.active is first
        assert len(pool) == 1

    def test_active_requires_set(self, ivy_m):
        pool = PlacementPool(ivy_m)
        with pytest.raises(PlacementError):
            _ = pool.active

    def test_pins_survive_policy_switch(self, ivy_m):
        pool = PlacementPool(ivy_m)
        a = pool.set_policy(Policy.CON_HWC, n_threads=4)
        t = a.pin()
        pool.set_policy(Policy.RR_CORE, n_threads=4)
        # The old placement still tracks its pin.
        assert t.ctx in a.pinned_contexts()

    def test_policies_cached_listing(self, ivy_m):
        pool = PlacementPool(ivy_m)
        pool.get(Policy.CON_HWC)
        pool.get(Policy.RR_CORE)
        assert pool.policies_cached() == [Policy.CON_HWC, Policy.RR_CORE]

    def test_string_policy_accepted(self, ivy_m):
        pool = PlacementPool(ivy_m)
        p = pool.get("BALANCE_HWC", n_threads=4)
        assert p.policy is Policy.BALANCE_HWC
