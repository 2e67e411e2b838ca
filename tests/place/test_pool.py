"""PlacementPool: reuse, len() and clear()."""

from __future__ import annotations

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
