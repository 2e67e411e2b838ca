"""The 12 MCTOP-PLACE placement policies (Table 2).

A policy turns an MCTOP topology (plus optional thread/socket budgets)
into an *ordered list of hardware contexts*: thread k is pinned to the
k-th context of the list.  All orderings are pure functions of the
topology — that is what makes them portable.

============== ======================================================
NONE           threads are not pinned at all
SEQUENTIAL     the sequential OS numbering
CON_HWC        fill the best socket's hw contexts compactly, then the
               next best-connected socket, ...
CON_CORE_HWC   like CON_HWC but unique cores of the socket first,
               then their second contexts; still socket by socket
CON_CORE       unique cores of all used sockets first, then the
               second+ contexts of each core
BALANCE_HWC    CON_HWC balanced across sockets instead of filling
BALANCE_CORE_HWC  balanced CON_CORE_HWC
BALANCE_CORE   balanced CON_CORE
RR_HWC         round robin over sockets, all hw contexts of each core
RR_CORE        round robin over sockets, unique cores first
POWER          greedily minimize the estimated power draw (Intel only)
RR_SCALE       RR_CORE, with per-socket thread counts scaled to what
               saturates the local memory bandwidth
============== ======================================================

On non-SMT machines CON_HWC, CON_CORE_HWC and CON_CORE are equivalent,
as the paper notes.
"""

from __future__ import annotations

import math
from enum import Enum

from repro.errors import PlacementError
from repro.core.mctop import Mctop


class Policy(Enum):
    NONE = "NONE"
    SEQUENTIAL = "SEQUENTIAL"
    CON_HWC = "CON_HWC"
    CON_CORE_HWC = "CON_CORE_HWC"
    CON_CORE = "CON_CORE"
    BALANCE_HWC = "BALANCE_HWC"
    BALANCE_CORE_HWC = "BALANCE_CORE_HWC"
    BALANCE_CORE = "BALANCE_CORE"
    RR_HWC = "RR_HWC"
    RR_CORE = "RR_CORE"
    POWER = "POWER"
    RR_SCALE = "RR_SCALE"

    @property
    def pins_threads(self) -> bool:
        return self is not Policy.NONE


ALL_POLICIES = tuple(Policy)


# --------------------------------------------------------------- helpers
def socket_chain(mctop: Mctop) -> list[int]:
    """Socket visit order of the CON_* policies.

    Start from the socket with maximum local memory bandwidth, then
    repeatedly hop to the unused socket best connected (lowest latency,
    then highest link bandwidth) to the previous one.
    """
    remaining = mctop.socket_ids()
    if not mctop.has_memory_measurements():
        start = remaining[0]
    else:
        start = mctop.sockets_by_local_bandwidth()[0]
    chain = [start]
    remaining = [s for s in remaining if s != start]
    while remaining:
        last = chain[-1]

        def connectedness(s: int) -> tuple:
            link = mctop.links.get((min(last, s), max(last, s)))
            bw = link.bandwidth if link and link.bandwidth else 0.0
            return (mctop.socket_latency(last, s), -bw, s)

        nxt = min(remaining, key=connectedness)
        chain.append(nxt)
        remaining.remove(nxt)
    return chain


def _socket_hwc_order(mctop: Mctop, socket_id: int) -> list[int]:
    """All contexts of a socket, core-major (compact)."""
    out: list[int] = []
    for core in mctop.socket_get_cores(socket_id):
        out.extend(_core_contexts(mctop, core))
    return out


def _socket_core_first_order(mctop: Mctop, socket_id: int) -> list[int]:
    """Unique cores of a socket first, then second+ contexts."""
    cores = mctop.socket_get_cores(socket_id)
    per_core = [_core_contexts(mctop, c) for c in cores]
    out: list[int] = []
    for smt in range(max(len(p) for p in per_core)):
        for p in per_core:
            if smt < len(p):
                out.append(p[smt])
    return out


def _core_contexts(mctop: Mctop, core: int) -> list[int]:
    if mctop.has_smt:
        return mctop.core_get_contexts(core)
    return [core]


def _interleave(lists: list[list[int]]) -> list[int]:
    out: list[int] = []
    for i in range(max(len(l) for l in lists)):
        for l in lists:
            if i < len(l):
                out.append(l[i])
    return out


def _balanced_counts(total: int, buckets: int) -> list[int]:
    base, extra = divmod(total, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


def _balance_order(per_socket: list[list[int]], n_threads: int) -> list[int]:
    """The BALANCE_* ordering of ``n_threads`` contexts (at most the
    suborders' total): each socket's balanced share from the front of
    its suborder, then, if a socket is too small for its share, the
    rest round-robin over what the sockets have left."""
    counts = _balanced_counts(n_threads, len(per_socket))
    out = [c for p, n in zip(per_socket, counts) for c in p[:n]]
    if len(out) < n_threads:
        tail = _interleave([p[n:] for p, n in zip(per_socket, counts)])
        out.extend(tail[:n_threads - len(out)])
    return out


# --------------------------------------------------------------- orders
def compute_order(
    mctop: Mctop,
    policy: Policy,
    n_threads: int | None = None,
    n_sockets: int | None = None,
) -> list[int]:
    """The full context ordering for a policy.

    ``n_threads`` caps the list length (and is what the BALANCE and
    RR_SCALE policies balance against); ``n_sockets`` restricts the
    policy to the first sockets of its own socket order.
    """
    if n_threads is not None and n_threads < 1:
        raise PlacementError("n_threads must be positive")
    chain = socket_chain(mctop)
    if n_sockets is not None:
        if not 1 <= n_sockets <= len(chain):
            raise PlacementError(
                f"n_sockets={n_sockets} out of range (1..{len(chain)})"
            )
        chain = chain[:n_sockets]
    limit = n_threads if n_threads is not None else None
    order = _order_for(mctop, policy, chain, limit)
    if limit is not None:
        if limit > len(order):
            raise PlacementError(
                f"policy {policy.value} offers {len(order)} contexts, "
                f"{limit} threads requested"
            )
        order = order[:limit]
    return order


def _order_for(mctop: Mctop, policy: Policy, chain: list[int],
               n_threads: int | None) -> list[int]:
    if policy in (Policy.NONE, Policy.SEQUENTIAL):
        allowed = {c for s in chain for c in mctop.socket_get_contexts(s)}
        return [c for c in mctop.context_ids() if c in allowed]

    if policy is Policy.CON_HWC:
        return [c for s in chain for c in _socket_hwc_order(mctop, s)]

    if policy is Policy.CON_CORE_HWC:
        return [c for s in chain for c in _socket_core_first_order(mctop, s)]

    if policy is Policy.CON_CORE:
        out: list[int] = []
        smt_depth = mctop.smt_per_core
        for smt in range(smt_depth):
            for s in chain:
                for core in mctop.socket_get_cores(s):
                    ctxs = _core_contexts(mctop, core)
                    if smt < len(ctxs):
                        out.append(ctxs[smt])
        return out

    if policy in (Policy.BALANCE_HWC, Policy.BALANCE_CORE_HWC,
                  Policy.BALANCE_CORE):
        suborder = {
            Policy.BALANCE_HWC: _socket_hwc_order,
            Policy.BALANCE_CORE_HWC: _socket_core_first_order,
            Policy.BALANCE_CORE: _socket_core_first_order,
        }[policy]
        per_socket = [suborder(mctop, s) for s in chain]
        capacity = sum(len(p) for p in per_socket)
        return _balance_order(
            per_socket,
            capacity if n_threads is None else min(n_threads, capacity),
        )

    if policy in (Policy.RR_HWC, Policy.RR_CORE):
        suborder = (
            _socket_hwc_order if policy is Policy.RR_HWC
            else _socket_core_first_order
        )
        rr_chain = _rr_socket_order(mctop, chain)
        return _interleave([suborder(mctop, s) for s in rr_chain])

    if policy is Policy.RR_SCALE:
        return _rr_scale_order(mctop, chain)

    if policy is Policy.POWER:
        return _power_order(mctop, chain)

    raise PlacementError(f"unhandled policy {policy}")  # pragma: no cover


def _rr_socket_order(mctop: Mctop, chain: list[int]) -> list[int]:
    """RR prioritizes sockets with maximum local bandwidth (Table 2)."""
    if not mctop.has_memory_measurements():
        return list(chain)
    return sorted(chain, key=lambda s: (-mctop.local_bandwidth(s), s))


def _rr_scale_order(mctop: Mctop, chain: list[int]) -> list[int]:
    """RR_CORE with per-socket counts that saturate local bandwidth."""
    if not mctop.has_memory_measurements():
        raise PlacementError("RR_SCALE needs memory-bandwidth measurements")
    rr_chain = _rr_socket_order(mctop, chain)
    capped: list[list[int]] = []
    overflow: list[list[int]] = []
    for s in rr_chain:
        node = mctop.node_of_socket(s)
        single = mctop.mem_bandwidth_single(s, node)
        cap = max(1, math.ceil(mctop.local_bandwidth(s) / max(single, 1e-9)))
        order = _socket_core_first_order(mctop, s)
        capped.append(order[:cap])
        overflow.append(order[cap:])
    return _interleave(capped) + _interleave(overflow)


def _power_order(mctop: Mctop, chain: list[int]) -> list[int]:
    """Greedy minimum-power ordering (Intel processors only).

    Each step activates the context with the smallest estimated power
    increment: the SMT sibling of a busy core is cheapest, then a new
    core on an already-active socket (whose DRAM is already powered),
    then the first core of a fresh socket.
    """
    info = mctop.power_info
    if info is None:
        raise PlacementError(
            "the POWER policy needs power measurements (Intel RAPL only)"
        )
    active_sockets: set[int] = set()
    active_cores: set[int] = set()
    out: list[int] = []
    remaining = [c for s in chain for c in _socket_hwc_order(mctop, s)]

    def increment(ctx: int) -> tuple:
        core = mctop.core_of_context(ctx)
        socket = mctop.socket_of_context(ctx)
        if core in active_cores:
            watts = info.per_context_extra
        else:
            watts = info.per_core_first
        if socket not in active_sockets:
            watts += info.dram_active_per_socket
        return (watts, chain.index(socket), ctx)

    while remaining:
        best = min(remaining, key=increment)
        remaining.remove(best)
        out.append(best)
        active_cores.add(mctop.core_of_context(best))
        active_sockets.add(mctop.socket_of_context(best))
    return out
