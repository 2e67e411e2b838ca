"""Precomputed placement indices: ``place`` as a dictionary lookup.

Placement orderings are pure functions of the topology, so a service
that answers placement queries per-request is recomputing constants.
A :class:`PlacementIndex` works out the ordering and the max latency
of every policy of Table 2 across the useful ``n_threads``/
``n_sockets`` grid once — at cache-insert time in ``mctopd``, or on
first use through the facade — and turns each query into one dict
probe.  It is the only thing that answers a placement in ``mctopd``:
``place``, ``place_many`` and ``pool_switch`` all read it.  The build
stores only orderings and max latencies; an entry's Figure-7 stats
block is rendered on that key's first lookup and stored back in the
entry, so a build renders no stats block and an index nobody queries
(a cold ``infer`` with no ``place`` after it) never renders one.

Byte-identity with :class:`~repro.place.placement.Placement` is the
contract: orderings come from the same `repro.place.policies` helpers
and stats strings from the same
:func:`~repro.place.placement.render_stats` formatter, so an indexed
answer is indistinguishable from a computed one.

Two structural facts keep the build fast and the index small:

* Every policy except the BALANCE_* family slices a fixed full-length
  ordering (``compute_order`` applies ``order[:n_threads]``), so one
  stored ordering per (policy, n_sockets) serves every thread count,
  and the per-prefix max latency falls out of one vectorized
  prefix-max over the ordered latency submatrix.
* The BALANCE_* orderings do depend on ``n_threads``, but only through
  `_balance_order`'s split of per-socket suborders that are computed
  once per socket.

The index is never persisted: :meth:`PlacementIndex.build`, run by the
current code against the topology, is the only way one comes into
existence, so a change to a policy can never be masked by a stale
precomputed answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PlacementError
from repro.core.mctop import Mctop
from repro.place.placement import Placement, render_stats
from repro.place.policies import (
    ALL_POLICIES,
    Policy,
    _balance_order,
    _order_for,
    _socket_core_first_order,
    _socket_hwc_order,
    socket_chain,
)

#: Policies whose ordering changes with ``n_threads`` (the balance is
#: against the thread count); everything else is prefix-sliceable.
_THREAD_DEPENDENT = frozenset(
    (Policy.BALANCE_HWC, Policy.BALANCE_CORE_HWC, Policy.BALANCE_CORE)
)


@dataclass(frozen=True)
class PlacementResult:
    """One indexed placement answer."""

    policy: str
    ordering: tuple[int, ...]
    stats: str
    max_latency: int

    @property
    def n_threads(self) -> int:
        return len(self.ordering)


class PlacementIndex:
    """Every Table-2 placement for one topology, precomputed.

    Keys are ``(policy, n_threads, n_sockets)`` after normalization
    (``n_sockets=None`` means the full socket chain, ``n_threads=None``
    the chain's full context capacity).  The grid covers every valid
    query, so :meth:`lookup` (the strict probe) misses only on an
    invalid or unsupported one, for which :meth:`get` raises the
    :class:`~repro.errors.PlacementError` that :class:`Placement` raises.
    """

    def __init__(self, mctop: Mctop):
        self.mctop = mctop
        self.prebuilt = False
        self._chain = socket_chain(mctop)
        sizes = {
            s: len(mctop.socket_get_contexts(s)) for s in self._chain
        }
        self._socket_sizes = sizes
        #: Context capacity of the first-N-sockets prefix of the chain.
        self._capacity = {
            ns: sum(sizes[s] for s in self._chain[:ns])
            for ns in range(1, len(self._chain) + 1)
        }
        #: (policy, n_sockets) -> full-length ordering, for the
        #: prefix-sliceable policies.
        self._full: dict[tuple[str, int], list[int]] = {}
        #: (policy, n_threads, n_sockets) -> (ordering | None,
        #: stats | None, max_latency); ``None`` orderings slice
        #: ``_full`` on lookup, and a ``None`` stats block is rendered
        #: on the key's first lookup and stored back.
        self._entries: dict[tuple[str, int, int],
                            tuple[tuple[int, ...] | None, str | None,
                                  int]] = {}
        self._suborder_memo: dict[tuple[str, int], list[int]] = {}

    # ------------------------------------------------------------- build
    def build(self) -> "PlacementIndex":
        """Materialize the whole grid (idempotent)."""
        if self.prebuilt:
            return self
        for policy in ALL_POLICIES:
            staged: dict = {}
            full: dict = {}
            try:
                self._build_policy(policy, staged, full)
            except PlacementError:
                # A policy this machine cannot serve (POWER without
                # RAPL, RR_SCALE without memory data) has no entries:
                # get() raises Placement's own error for it.
                continue
            self._entries.update(staged)
            self._full.update(full)
        self.prebuilt = True
        return self

    def _suborder(self, socket_id: int, core_first: bool) -> list[int]:
        key = ("core" if core_first else "hwc", socket_id)
        order = self._suborder_memo.get(key)
        if order is None:
            fn = _socket_core_first_order if core_first else _socket_hwc_order
            order = fn(self.mctop, socket_id)
            self._suborder_memo[key] = order
        return order

    def _rows(self, ordering: list[int]) -> np.ndarray:
        ctx_rows = self.mctop._ctx_rows
        return np.fromiter(
            (ctx_rows[c] for c in ordering), dtype=np.intp,
            count=len(ordering),
        )

    def _build_policy(self, policy: Policy, staged: dict,
                      full_out: dict) -> None:
        mctop = self.mctop
        lat = mctop.lat_table
        for ns in range(1, len(self._chain) + 1):
            sub_chain = self._chain[:ns]
            if policy in _THREAD_DEPENDENT:
                core_first = policy is not Policy.BALANCE_HWC
                per_socket = [
                    self._suborder(s, core_first) for s in sub_chain
                ]
                cap = sum(len(p) for p in per_socket)
                for nt in range(1, cap + 1):
                    ordering = _balance_order(per_socket, nt)
                    if nt > 1:
                        rows = self._rows(ordering)
                        max_lat = int(
                            np.triu(lat[np.ix_(rows, rows)], 1).max()
                        )
                    else:
                        max_lat = 0
                    staged[(policy.value, nt, ns)] = (
                        tuple(ordering), None, max_lat,
                    )
            else:
                full = _order_for(mctop, policy, sub_chain, None)
                cap = len(full)
                rows = self._rows(full)
                sub = lat[np.ix_(rows, rows)]
                # prefix_max[j] = max latency over ordered pairs within
                # the first j+1 contexts (the legacy upper-triangle
                # walk, vectorized); prefix_max[0] is 0, matching
                # Mctop.max_latency's < 2 contexts case.
                prefix_max = np.maximum.accumulate(
                    np.triu(sub, 1).max(axis=0)
                )
                for nt in range(1, cap + 1):
                    staged[(policy.value, nt, ns)] = (
                        None, None, int(prefix_max[nt - 1]),
                    )
                full_out[(policy.value, ns)] = full

    # ------------------------------------------------------------ lookup
    def _normalize(
        self, policy: Policy | str, n_threads: int | None,
        n_sockets: int | None,
    ) -> tuple[str, int, int] | None:
        value = policy.value if isinstance(policy, Policy) else str(policy)
        ns = len(self._chain) if n_sockets is None else n_sockets
        if not 1 <= ns <= len(self._chain):
            return None
        nt = self._capacity[ns] if n_threads is None else n_threads
        if nt < 1:
            return None
        return (value, nt, ns)

    def lookup(
        self,
        policy: Policy | str,
        n_threads: int | None = None,
        n_sockets: int | None = None,
    ) -> PlacementResult | None:
        """The strict probe: the indexed answer, or ``None``."""
        key = self._normalize(policy, n_threads, n_sockets)
        if key is None:
            return None
        entry = self._entries.get(key)
        if entry is None:
            return None
        ordering, stats, max_lat = entry
        if ordering is None:
            ordering = tuple(self._full[(key[0], key[2])][:key[1]])
        if stats is None:
            # The key's first lookup renders its stats block and stores
            # it back; one dict assignment, so no lock: two threads
            # racing here render the same bytes twice.
            stats = render_stats(
                self.mctop, Policy(key[0]), ordering, max_latency=max_lat,
                socket_sizes=self._socket_sizes,
            )
            self._entries[key] = (entry[0], stats, max_lat)
        return PlacementResult(
            policy=key[0], ordering=ordering, stats=stats,
            max_latency=max_lat,
        )

    def get(
        self,
        policy: Policy | str,
        n_threads: int | None = None,
        n_sockets: int | None = None,
    ) -> PlacementResult:
        """Lookup, raising on a miss exactly what ``Placement`` raises
        for the invalid or unsupported query that is the only way to
        miss.

        A served policy offers every context of its sockets, and the
        grid holds it for every thread count up to their capacity, so a
        count above that is refused from the grid, with
        ``compute_order``'s message and without computing the ordering.
        Any other miss (an unsupported policy, ``n_sockets`` out of
        range, ``n_threads`` below 1, or an index not yet built) goes
        through :class:`Placement`.
        """
        result = self.lookup(policy, n_threads, n_sockets)
        if result is not None:
            return result
        key = self._normalize(policy, n_threads, n_sockets)
        if key is not None and n_threads is not None:
            value, nt, ns = key
            offers = self._capacity[ns]
            if nt > offers and (value, offers, ns) in self._entries:
                raise PlacementError(
                    f"policy {value} offers {offers} contexts, "
                    f"{nt} threads requested"
                )
        placement = Placement(self.mctop, policy, n_threads, n_sockets)
        return PlacementResult(
            policy=placement.policy.value,
            ordering=tuple(placement.ordering),
            stats=placement.print_stats(),
            max_latency=placement.max_latency(),
        )

    def placement(
        self,
        policy: Policy | str,
        n_threads: int | None = None,
        n_sockets: int | None = None,
    ) -> Placement:
        """A pinnable :class:`Placement` from the indexed ordering."""
        result = self.get(policy, n_threads, n_sockets)
        return Placement._from_ordering(
            self.mctop, result.policy, result.ordering, result.max_latency
        )

    # ------------------------------------------------------- introspection
    @property
    def n_entries(self) -> int:
        return len(self._entries)

