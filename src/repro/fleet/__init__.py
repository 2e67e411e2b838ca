"""repro.fleet — a sharded ``mctopd`` fleet behind one router.

The measure-once/serve-many idea of :mod:`repro.service`, scaled out:
a :class:`FleetRouter` speaks the same NDJSON protocol clients already
use and consistent-hashes every topology request's inference digest
(:mod:`repro.fleet.ring`) onto a ring of member daemons, so the same
uncached topology always lands on the same member and its local
single-flight keeps MCTOP-ALG at one run *fleet-wide*.  A health loop
(:mod:`repro.fleet.health`) joins, degrades, ejects and rejoins
members from the ring off the same liveness + drift-severity signals
``/healthz`` serves; members ask ring-adjacent peers for cached
``.mct.gz`` blobs before running the algorithm (``cache_fetch``); and
``metrics``/``drift`` fan out and merge (:mod:`repro.obs.merge`) into
one fleet-wide document ``mctop top`` renders unchanged.  See
``docs/FLEET.md``.
"""

from __future__ import annotations

from repro.fleet.health import HealthManager, probe_member
from repro.fleet.members import (
    MemberConnection,
    MemberSpec,
    MemberState,
    one_shot_request,
    parse_member,
    parse_members,
)
from repro.fleet.ring import DEFAULT_REPLICAS, HashRing
from repro.fleet.router import FleetRouter, RouterConfig
from repro.fleet.serve import run_fleet

__all__ = [
    "DEFAULT_REPLICAS",
    "FleetRouter",
    "HashRing",
    "HealthManager",
    "MemberConnection",
    "MemberSpec",
    "MemberState",
    "RouterConfig",
    "one_shot_request",
    "parse_member",
    "parse_members",
    "probe_member",
    "run_fleet",
]
