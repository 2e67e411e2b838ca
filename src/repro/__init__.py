"""repro — a faithful reproduction of MCTOP (EuroSys 2017).

"Abstracting Multi-Core Topologies with MCTOP", Chatzopoulos, Guerraoui,
Harris, Trigonakis.

The package provides:

* :mod:`repro.hardware` — simulated multi-core machines (the five
  evaluation platforms of the paper plus synthetic ones) with a MESI
  coherence simulator, DVFS, rdtsc and noise models;
* :mod:`repro.core` — the MCTOP topology abstraction, the MCTOP-ALG
  inference algorithm, enrichment plugins, serialization and
  visualization;
* :mod:`repro.place` — the MCTOP-PLACE thread-placement library and its
  12 policies;
* :mod:`repro.sim` — a discrete-event execution engine for running
  placement-sensitive workloads on simulated machines;
* :mod:`repro.apps` — the paper's four application studies (lock
  backoffs, topology-aware mergesort, Metis MapReduce, OpenMP).

This module is the public API façade.  Everything a typical user needs
imports from ``repro`` directly; the deep module paths stay available
for power users and remain stable.

Quickstart
----------
>>> from repro import PlacementPool, infer, place
>>> mctop = infer("ivy", seed=1)
>>> mctop.n_sockets, mctop.n_cores, mctop.has_smt
(2, 20, True)
>>> place(mctop, "RR_CORE", 8).ordering     # indexed placement query
(0, 10, 1, 11, 2, 12, 3, 13)
>>> pool = PlacementPool(mctop)             # switch policy between phases
"""

from repro.errors import (
    ClusteringError,
    ConfigError,
    InferenceError,
    MachineModelError,
    MctopError,
    MeasurementError,
    PlacementError,
    ReproError,
    SerializationError,
    ServiceError,
    SimulationError,
    ValidationError,
)
from repro.hardware import PAPER_PLATFORMS, get_machine, get_spec, machine_names

__version__ = "1.1.0"

__all__ = [
    "ClusteringError",
    "ConfigError",
    "DriftReport",
    "DriftThresholds",
    "InferenceError",
    "LatencyTableConfig",
    "MachineModelError",
    "Mctop",
    "MctopError",
    "MeasurementError",
    "Objective",
    "PAPER_PLATFORMS",
    "PlacementError",
    "PlacementIndex",
    "PlacementPool",
    "PlacementResult",
    "ReproError",
    "SerializationError",
    "ServiceError",
    "SimulationError",
    "SloEngine",
    "SynthParams",
    "SynthSpec",
    "TraceStore",
    "ValidationError",
    "__version__",
    "compare_mctops",
    "generate_spec",
    "get_machine",
    "get_spec",
    "ground_truth_mctop",
    "infer",
    "infer_topology",
    "load_mctop",
    "machine_names",
    "parse_objectives",
    "place",
    "place_many",
    "run_fuzz",
    "save_mctop",
]

#: lazy attribute -> "module:attribute"; keeps `import repro` fast and
#: avoids import cycles while making the façade names first class.
_LAZY_EXPORTS = {
    "compare_mctops": "repro.obs.diff:compare_mctops",
    "DriftReport": "repro.obs.diff:DriftReport",
    "DriftThresholds": "repro.obs.diff:DriftThresholds",
    "Objective": "repro.obs.slo:Objective",
    "SloEngine": "repro.obs.slo:SloEngine",
    "parse_objectives": "repro.obs.slo:parse_objectives",
    "TraceStore": "repro.obs.trace_store:TraceStore",
    "infer": "repro.api:infer",
    "infer_topology": "repro.core.algorithm.inference:infer_topology",
    "load_mctop": "repro.core.serialize:load_mctop",
    "save_mctop": "repro.core.serialize:save_mctop",
    "Mctop": "repro.core.mctop:Mctop",
    "LatencyTableConfig": "repro.core.algorithm.lat_table:LatencyTableConfig",
    "PlacementIndex": "repro.place.index:PlacementIndex",
    "PlacementPool": "repro.place.pool:PlacementPool",
    "PlacementResult": "repro.place.index:PlacementResult",
    "SynthParams": "repro.hardware.synth:SynthParams",
    "SynthSpec": "repro.hardware.synth:SynthSpec",
    "generate_spec": "repro.hardware.synth:generate_spec",
    "ground_truth_mctop": "repro.core.groundtruth:ground_truth_mctop",
    "run_fuzz": "repro.fuzz:run_fuzz",
}


def __getattr__(name: str):
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module_name, _, attr = target.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(__all__))


# ``repro.place`` names both the subpackage and the façade's placement
# helper.  Importing the subpackage binds it as an attribute here, so
# the helper must be bound *after* it (eagerly, not via the lazy table)
# for ``from repro import place`` to mean the function deterministically.
# ``from repro.place import Policy`` keeps working — submodule imports
# resolve through ``sys.modules``, not this attribute.
import repro.place as _place_package  # noqa: E402,F401
from repro.api import place, place_many  # noqa: E402
