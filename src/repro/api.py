"""The friendly front door of the library.

``repro.infer`` is what scripts and notebooks should call: it accepts a
catalog machine *name* (or a :class:`~repro.hardware.machine.Machine`,
or a prepared :class:`~repro.hardware.probes.MeasurementContext`) plus
the handful of measurement knobs people actually turn — ``repetitions``,
``jobs``, ``sampling``, ``vectorized`` — and assembles the full
:class:`~repro.core.algorithm.inference.InferenceConfig` plumbing
itself.  Power users keep passing a complete ``config``.

``repro.place`` / ``repro.place_many`` are the placement twins: give
them a topology — an :class:`~repro.core.mctop.Mctop`, a saved ``.mct``
path, or a catalog machine name — plus a policy and thread count, and
they answer from the topology's precomputed
:class:`~repro.place.index.PlacementIndex` (building it on first use,
a dictionary lookup after that).

Everything here re-exports through :mod:`repro`::

    >>> from repro import infer, place
    >>> mctop = infer("ivy", seed=1, jobs=4)
    >>> place(mctop, "RR_CORE", 8).ordering
    (0, 10, 1, 11, 2, 12, 3, 13)
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.errors import ConfigError


def infer(
    machine,
    seed: int = 0,
    *,
    repetitions: int | None = None,
    jobs: int | None = None,
    sampling: str | None = None,
    vectorized: bool | None = None,
    table: "Any | None" = None,
    config: "Any | None" = None,
    noise=None,
    solo: bool = True,
    name: str | None = None,
    report=None,
    obs=None,
):
    """Run MCTOP-ALG and return the inferred ``Mctop``.

    Parameters
    ----------
    machine:
        A catalog machine name (``"ivy"``, ``"sparc"``, ...), a
        :class:`Machine`, or an existing :class:`MeasurementContext`.
    repetitions, jobs, sampling, vectorized:
        Shortcuts for the matching :class:`LatencyTableConfig` fields;
        ``jobs=N`` fans the latency-table collection out over ``N``
        worker processes (switching to the order-independent ``pair``
        sampling scheme — see :mod:`repro.core.algorithm.lat_table`).
    table:
        A full :class:`LatencyTableConfig`, or a plain dict routed
        through :meth:`LatencyTableConfig.from_dict` (unknown keys
        raise :class:`ConfigError`).  The shortcut knobs above override
        individual fields of it.
    config:
        A complete :class:`InferenceConfig`.  Mutually exclusive with
        the measurement knobs — pass one or the other.

    The remaining parameters (``noise``, ``solo``, ``name``, ``report``,
    ``obs``) pass straight through to
    :func:`~repro.core.algorithm.inference.infer_topology`.
    """
    from repro.core.algorithm.inference import InferenceConfig, infer_topology
    from repro.core.algorithm.lat_table import LatencyTableConfig
    from repro.hardware import get_machine

    if isinstance(machine, str):
        machine = get_machine(machine)

    knobs = {
        "repetitions": repetitions,
        "jobs": jobs,
        "sampling": sampling,
        "vectorized": vectorized,
    }
    overrides = {k: v for k, v in knobs.items() if v is not None}
    if config is not None:
        if overrides or table is not None:
            raise ConfigError(
                "pass measurement knobs either through config= or "
                "individually (repetitions/jobs/sampling/vectorized/"
                "table), not both"
            )
    else:
        if isinstance(table, dict):
            table_cfg = LatencyTableConfig.from_dict(table)
        elif table is not None:
            table_cfg = table
        else:
            table_cfg = LatencyTableConfig()
        if overrides:
            table_cfg = dataclasses.replace(table_cfg, **overrides)
        config = InferenceConfig(table=table_cfg)

    return infer_topology(
        machine, seed=seed, config=config, noise=noise, solo=solo,
        name=name, report=report, obs=obs,
    )


def _resolve_mctop(mctop_or_name, seed: int, infer_kwargs: dict):
    """An ``Mctop`` from whatever the placement helpers were handed:
    a topology object (as-is), the path of a saved description file
    (loaded), or a catalog machine name
    (inferred through :func:`infer`, measurement knobs forwarded)."""
    from pathlib import Path

    from repro.core.mctop import Mctop
    from repro.core.serialize import load_mctop

    if isinstance(mctop_or_name, Mctop):
        return mctop_or_name
    if isinstance(mctop_or_name, (str, Path)):
        if Path(mctop_or_name).is_file():
            return load_mctop(mctop_or_name)
        return infer(str(mctop_or_name), seed=seed, **infer_kwargs)
    raise ConfigError(
        "place() needs an Mctop, a description-file path, or a catalog "
        f"machine name, got {type(mctop_or_name).__name__}"
    )


def place(
    mctop_or_name,
    policy: str = "CON_HWC",
    n_threads: int | None = None,
    *,
    n_sockets: int | None = None,
    seed: int = 0,
    **infer_kwargs,
):
    """One placement query, answered from the topology's index.

    Returns a :class:`~repro.place.index.PlacementResult` — the
    ordering, the Figure-7 stats block and the placement's maximum
    cross-context latency — byte-identical to what the legacy
    :class:`~repro.place.placement.Placement` path computes.  The
    index is built (and cached on the ``Mctop``) on first use; every
    later call is a dictionary lookup.

    ``mctop_or_name`` is an :class:`~repro.core.mctop.Mctop`, a saved
    description-file path, or a catalog machine name (inferred with
    ``seed`` and any extra measurement knobs).
    """
    mctop = _resolve_mctop(mctop_or_name, seed, infer_kwargs)
    return mctop.placement_index().get(policy, n_threads, n_sockets)


def place_many(
    mctop_or_name,
    queries,
    *,
    seed: int = 0,
    **infer_kwargs,
):
    """A batch of placement queries against one topology.

    ``queries`` is an iterable of dicts — ``policy`` plus
    ``n_threads``/``n_sockets`` (the wire aliases ``threads``/
    ``sockets`` are accepted too) — and the result is the matching
    list of :class:`~repro.place.index.PlacementResult`.  The topology
    is resolved once and every query is an index lookup, so a thousand
    queries cost barely more than one.
    """
    mctop = _resolve_mctop(mctop_or_name, seed, infer_kwargs)
    index = mctop.placement_index()
    results = []
    for query in queries:
        policy = query.get("policy", "CON_HWC")
        n_threads = query.get("n_threads", query.get("threads"))
        n_sockets = query.get("n_sockets", query.get("sockets"))
        results.append(index.get(policy, n_threads, n_sockets))
    return results
