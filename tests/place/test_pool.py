"""PlacementPool bounds: LRU eviction, clear(), len(), pinned entries.

The ``Mctop.placements`` shared pool is pinned in
:class:`TestDeprecationAndAlias`.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.algorithm import (
    InferenceConfig,
    LatencyTableConfig,
    infer_topology,
)
from repro.errors import PlacementError
from repro.hardware import get_machine
from repro.place import PlacementPool, Policy

@pytest.fixture(scope="module")
def tb_mctop():
    return infer_topology(
        get_machine("testbox"), seed=1,
        config=InferenceConfig(table=LatencyTableConfig(repetitions=15)),
    )


class TestUnbounded:
    def test_len_and_reuse(self, tb_mctop):
        pool = PlacementPool(tb_mctop)
        assert len(pool) == 0
        a = pool.get(Policy.CON_HWC, 4)
        assert pool.get(Policy.CON_HWC, 4) is a
        pool.get(Policy.RR_CORE, 4)
        assert len(pool) == 2

    def test_clear(self, tb_mctop):
        pool = PlacementPool(tb_mctop)
        pool.set_policy(Policy.CON_HWC, 4)
        pool.clear()
        assert len(pool) == 0
        assert pool.policies_cached() == []
        with pytest.raises(PlacementError):
            pool.active


class TestBounded:
    def test_lru_eviction_order(self, tb_mctop):
        pool = PlacementPool(tb_mctop, max_entries=2)
        pool.get(Policy.CON_HWC, 4)
        pool.get(Policy.RR_CORE, 4)
        pool.get(Policy.CON_HWC, 4)  # refresh; RR_CORE is now oldest
        pool.get(Policy.BALANCE_CORE, 4)
        assert len(pool) == 2
        assert pool.policies_cached() == [
            Policy.BALANCE_CORE, Policy.CON_HWC
        ]

    def test_eviction_recreates_transparently(self, tb_mctop):
        pool = PlacementPool(tb_mctop, max_entries=1)
        a = pool.get(Policy.CON_HWC, 4)
        pool.get(Policy.RR_CORE, 4)
        b = pool.get(Policy.CON_HWC, 4)  # evicted above, rebuilt here
        assert a is not b
        assert a.ordering == b.ordering

    def test_active_placement_is_never_evicted(self, tb_mctop):
        pool = PlacementPool(tb_mctop, max_entries=2)
        active = pool.set_policy(Policy.CON_HWC, 4)
        pool.get(Policy.RR_CORE, 4)
        pool.get(Policy.BALANCE_CORE, 4)  # would evict the LRU = active
        assert pool.active is active
        assert Policy.CON_HWC in pool.policies_cached()
        assert len(pool) == 2

    def test_tight_bound_keeps_new_active(self, tb_mctop):
        pool = PlacementPool(tb_mctop, max_entries=1)
        pool.set_policy(Policy.CON_HWC, 4)
        fresh = pool.set_policy(Policy.RR_CORE, 4)
        assert pool.active is fresh
        assert len(pool) == 1

    def test_switching_all_policies_respects_bound(self, tb_mctop):
        pool = PlacementPool(tb_mctop, max_entries=4)
        for policy in Policy:
            placement = pool.set_policy(policy, 4)
            assert pool.active is placement
            assert len(pool) <= 4

    def test_invalid_bound(self, tb_mctop):
        with pytest.raises(PlacementError):
            PlacementPool(tb_mctop, max_entries=0)


class TestPinnedEntries:
    """Regression: LRU eviction must not drop session-pinned placements.

    A daemon session holds pins on a placement while its threads run;
    evicting it would rebuild the placement with blank pin state on the
    next ``get()``, silently double-booking contexts.
    """

    def test_pinned_placement_survives_eviction(self, tb_mctop):
        pool = PlacementPool(tb_mctop, max_entries=1)
        a = pool.get(Policy.CON_HWC, 4)
        thread = a.pin()
        assert a.in_use
        pool.get(Policy.RR_CORE, 4)  # would evict a under plain LRU
        assert len(pool) == 2        # pool overflows instead
        assert pool.get(Policy.CON_HWC, 4) is a
        assert thread.ctx in a.pinned_contexts()

    def test_unpinned_placement_evicts_normally_again(self, tb_mctop):
        pool = PlacementPool(tb_mctop, max_entries=1)
        a = pool.get(Policy.CON_HWC, 4)
        thread = a.pin()
        pool.get(Policy.RR_CORE, 4)          # overflow: a is pinned
        a.unpin(thread.ctx)
        assert not a.in_use
        pool.get(Policy.BALANCE_CORE, 4)     # now eviction catches up
        assert len(pool) == 1
        b = pool.get(Policy.CON_HWC, 4)      # rebuilt from scratch
        assert b is not a

    def test_everything_pinned_overflows_without_error(self, tb_mctop):
        pool = PlacementPool(tb_mctop, max_entries=1)
        for policy in (Policy.CON_HWC, Policy.RR_CORE, Policy.BALANCE_CORE):
            pool.get(policy, 2).pin()
        assert len(pool) == 3


class TestDeprecationAndAlias:
    def test_mctop_placements_property_does_not_warn(self, tb_mctop):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pool = tb_mctop.placements
        assert isinstance(pool, PlacementPool)

    def test_mctop_placements_is_cached(self, tb_mctop):
        assert tb_mctop.placements is tb_mctop.placements

    def test_placements_pool_works_like_any_other(self, tb_mctop):
        pool = tb_mctop.placements
        a = pool.get(Policy.CON_HWC, 4)
        assert pool.get(Policy.CON_HWC, 4) is a
