"""MCTOP-PLACE pool: runtime selection of placement policies.

Software systems change their placement needs between phases (the
paper's OpenMP extension switches policy between parallel regions).
The pool lazily instantiates one :class:`Placement` per (policy,
n_threads, n_sockets) configuration and lets callers switch the active
one at runtime.

Long-lived holders (the ``mctopd`` per-connection sessions) can bound
the pool with ``max_entries``: least-recently-used configurations are
evicted, except the active one, which is never dropped.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import PlacementError
from repro.core.mctop import Mctop
from repro.place.placement import Placement
from repro.place.policies import Policy


class PlacementPool:
    """A pool of placements over one topology."""

    def __init__(self, mctop: Mctop, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise PlacementError("max_entries must be >= 1 (or None)")
        self.mctop = mctop
        self.max_entries = max_entries
        self._cache: OrderedDict[tuple, Placement] = OrderedDict()
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
            self._evict()
        else:
            self._cache.move_to_end(key)
        return placement

    def _evict(self) -> None:
        if self.max_entries is None:
            return
        while len(self._cache) > self.max_entries:
            # The active placement, any placement with live pins (a
            # session mid-``pool_switch``) and the entry just inserted
            # are never dropped — evicting one would silently recompute
            # it with fresh pin state on the next get().  Evict the
            # oldest other entry instead; if every candidate is exempt,
            # the pool temporarily overflows.
            newest = next(reversed(self._cache))
            for key, placement in self._cache.items():
                if (key != self._active_key and key != newest
                        and not placement.in_use):
                    del self._cache[key]
                    break
            else:
                return

    def set_policy(
        self,
        policy: Policy | str,
        n_threads: int | None = None,
        n_sockets: int | None = None,
    ) -> Placement:
        """Make a configuration the active one (creating it if needed).

        Any pins of the previously active placement stay valid — the
        caller decides when its threads re-pin, exactly like the
        paper's ``omp_set_binding_policy``.
        """
        policy = Policy(policy) if isinstance(policy, str) else policy
        # Pin the key before get(): with a tight max_entries the new
        # configuration must survive its own insertion's eviction pass.
        self._active_key = (policy, n_threads, n_sockets)
        return self.get(policy, n_threads, n_sockets)

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
