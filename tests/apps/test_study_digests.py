"""The four application studies, pinned to their result digests.

``sha256(result.table())`` of Figures 8, 9, 10 and 12 on ivy, at
reduced configurations that run in a few seconds together.  Any change
to the simulation's semantics (timing, contention, handover, energy)
moves at least one digest; a change that only makes the engine faster
must move none.  Figure 10's table rounds relative energy to two
decimals, so its run times and energies are also pinned at full
precision.

After an intended change of semantics, print the new values with::

    PYTHONPATH=src python tests/apps/test_study_digests.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.locks import LockExperimentConfig, run_figure8
from repro.apps.mapreduce import ALL_PROFILES, run_figure10
from repro.apps.openmp import ALL_KERNELS, GraphScale, run_figure12
from repro.apps.sort import run_figure9
from repro.core.algorithm import (
    InferenceConfig,
    LatencyTableConfig,
    infer_topology,
)
from repro.hardware import get_machine

EXPECTED = {
    "fig08": "f6f35c1e28611062fa57364a22144a4e65b5353e80b730efdbd0de9ef209250a",
    "fig09": "70fc1c24112a0551b9c9971b370a7ea934c0ed6fe6377605992d6f2870678de6",
    "fig10": "9ec1dc2eb53cb3c9b04d574a6ce8e546b7e98b86bf4563cffbf67d81818003ac",
    "fig10.cells": "b6765c5b2eb4c59d1f6b3b4ad9883a4204ca207c5c272972174bb405e9c44a46",
    "fig12": "5567275b47d1dfd6a95b8ac699e1ef688c0419dc4a8e59d410479f1e3107fef3",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def study_digests() -> dict[str, str]:
    """Run the reduced studies on ivy (the figure benchmarks' topology:
    seed 1, 31 repetitions) and digest their results."""
    machine = get_machine("ivy")
    mctop = infer_topology(machine, seed=1, config=InferenceConfig(
        table=LatencyTableConfig(repetitions=31)))
    fig10 = run_figure10(machine, mctop, profiles=tuple(
        p for p in ALL_PROFILES if p.name != "word-count"))
    return {
        "fig08": _sha(run_figure8(
            machine, mctop, thread_counts=[1, 10, 20, 40],
            cfg=LockExperimentConfig(iterations=20)).table()),
        "fig09": _sha(run_figure9(machine, mctop).table()),
        "fig10": _sha(fig10.table()),
        "fig10.cells": _sha(repr([
            (c.default_seconds, c.mctop_seconds,
             c.default_energy, c.mctop_energy)
            for c in fig10.cells])),
        "fig12": _sha(run_figure12(
            machine, mctop, scale=GraphScale.paper(),
            kernels=ALL_KERNELS[:2], include_combination=True).table()),
    }


@pytest.fixture(scope="module")
def digests():
    return study_digests()


@pytest.mark.parametrize("study", sorted(EXPECTED))
def test_study_digest(digests, study):
    assert digests[study] == EXPECTED[study]


if __name__ == "__main__":
    for name, digest in study_digests().items():
        print(f'    "{name}": "{digest}",')
