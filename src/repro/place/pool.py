"""MCTOP-PLACE pool: runtime selection of placement policies.

Software systems change their placement needs between phases (the
paper's OpenMP extension switches policy between parallel regions).
The pool lazily instantiates one :class:`Placement` per (policy,
n_threads, n_sockets) configuration and lets callers switch the active
one at runtime.  It keeps every configuration it has made: its holders
(the OpenMP runtime, the application studies) switch among a handful.
``mctopd`` keeps no pool: it answers ``pool_switch`` from the
topology's :class:`~repro.place.index.PlacementIndex` and remembers
only each session's recent configurations.
"""

from __future__ import annotations

from repro.errors import PlacementError
from repro.core.mctop import Mctop
from repro.place.placement import Placement
from repro.place.policies import Policy


class PlacementPool:
    """A pool of placements over one topology."""

    def __init__(self, mctop: Mctop):
        self.mctop = mctop
        self._cache: dict[tuple, Placement] = {}
        self._active_key: tuple | None = None

    def get(
        self,
        policy: Policy | str,
        n_threads: int | None = None,
        n_sockets: int | None = None,
    ) -> Placement:
        """Fetch (creating if needed) the placement for a configuration."""
        policy = Policy(policy) if isinstance(policy, str) else policy
        key = (policy, n_threads, n_sockets)
        placement = self._cache.get(key)
        if placement is None:
            placement = Placement(self.mctop, policy, n_threads, n_sockets)
            self._cache[key] = placement
        return placement

    def set_policy(
        self,
        policy: Policy | str,
        n_threads: int | None = None,
        n_sockets: int | None = None,
    ) -> Placement:
        """Make a configuration the active one (creating it if needed).

        Any pins of the previously active placement stay valid — the
        caller decides when its threads re-pin, exactly like the
        paper's ``omp_set_binding_policy``.  A refused configuration
        leaves the active one as it was.
        """
        policy = Policy(policy) if isinstance(policy, str) else policy
        placement = self.get(policy, n_threads, n_sockets)
        self._active_key = (policy, n_threads, n_sockets)
        return placement

    @property
    def active(self) -> Placement:
        if self._active_key is None:
            raise PlacementError("no active placement; call set_policy first")
        return self._cache[self._active_key]

    def clear(self) -> None:
        """Drop every cached placement (and the active selection)."""
        self._cache.clear()
        self._active_key = None

    def policies_cached(self) -> list[Policy]:
        return sorted({key[0] for key in self._cache}, key=lambda p: p.value)

    def __len__(self) -> int:
        return len(self._cache)
