"""MCTOP-PLACE: thread placement objects (Section 6).

A :class:`Placement` maps threads to hardware contexts according to a
policy and exports the derived information of Figure 7: cores used,
contexts and cores per socket, bandwidth proportions, maximum power
estimates, the maximum pairwise latency (the backoff quantum) and the
minimum bandwidth of the used sockets.

:func:`render_stats` is the shared Figure-7 formatter: both
``Placement.print_stats`` and the precomputed
:class:`~repro.place.index.PlacementIndex` go through it, which is what
keeps indexed and legacy ``place`` responses byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import PlacementError
from repro.core.mctop import Mctop
from repro.place.policies import Policy, compute_order


@dataclass(frozen=True)
class PinnedThread:
    """What a thread learns when it is pinned (Section 6)."""

    ctx: int
    socket_id: int
    core_id: int
    local_node: int | None
    ctx_index_in_socket: int
    core_index_in_socket: int


def render_stats(
    mctop: Mctop,
    policy: Policy,
    ordering: Sequence[int],
    *,
    max_latency: int,
    socket_sizes: dict[int, int] | None = None,
) -> str:
    """The Figure 7 report of one ordering and its max latency.

    The per-socket aggregates come from one pass over ``ordering``, with
    sockets in first-seen order (the order of
    ``Placement.sockets_used``): the power totals and the min-bandwidth
    scan iterate them in that order, so a different order could change
    float summation.  ``socket_sizes`` optionally memoizes
    ``len(socket_get_contexts(s))`` for callers rendering many entries.
    """
    sockets: list[int] = []
    ctxps: dict[int, int] = {}
    cps: dict[int, int] = {}
    seen_cores: set[int] = set()
    for ctx in ordering:
        s = mctop.socket_of_context(ctx)
        if s not in ctxps:
            sockets.append(s)
            ctxps[s] = 0
            cps[s] = 0
        ctxps[s] += 1
        core = mctop.core_of_context(ctx)
        if core not in seen_cores:
            seen_cores.add(core)
            cps[s] += 1
    n_cores = len(seen_cores)
    n_threads = len(ordering)
    total = sum(ctxps.values())
    props = {s: n / total for s, n in ctxps.items()}
    lines = [
        f"## MCTOP Placement : MCTOP_PLACE_{policy.value}",
        f"#  # Cores         : {n_cores}",
        f"#  HW contexts ({n_threads:3d}) : "
        + " ".join(str(c) for c in ordering[:16])
        + (" ..." if n_threads > 16 else ""),
        f"#  Sockets ({len(sockets)})      : "
        + " ".join(str(s) for s in sockets),
        "#  # HW ctx / socket : "
        + " ".join(str(ctxps[s]) for s in sockets),
        "#  # Cores / socket  : "
        + " ".join(str(cps[s]) for s in sockets),
        "#  BW proportions    : "
        + " ".join(f"{props[s]:.3f}" for s in sockets),
    ]
    info = mctop.power_info
    if info is not None:
        no_dram: dict[int, float] = {}
        with_dram: dict[int, float] = {}
        for s in ctxps:
            watts = info.per_socket_idle
            watts += cps[s] * info.per_core_first
            watts += (ctxps[s] - cps[s]) * info.per_context_extra
            no_dram[s] = watts
            with_dram[s] = watts + info.dram_active_per_socket
        lines.append(
            "#  Max pow no DRAM   : "
            + " ".join(f"{no_dram[s]:.1f}" for s in sockets)
            + f" = {sum(no_dram.values()):.1f} Watt"
        )
        lines.append(
            "#  Max pow with DRAM : "
            + " ".join(f"{with_dram[s]:.1f}" for s in sockets)
            + f" = {sum(with_dram.values()):.1f} Watt"
        )
    lines.append(f"#  Max latency       : {max_latency} cycles")
    if mctop.has_memory_measurements():
        values = []
        for s, n_ctx in ctxps.items():
            size = (
                socket_sizes[s] if socket_sizes is not None
                else len(mctop.socket_get_contexts(s))
            )
            values.append(
                mctop.local_bandwidth(s) * min(n_ctx / size * 2, 1.0)
            )
        if values:
            lines.append(f"#  Min bandwidth     : {min(values):.2f} GB/s")
    return "\n".join(lines)


class Placement:
    """One thread-to-context mapping under a single policy."""

    def __init__(
        self,
        mctop: Mctop,
        policy: Policy | str,
        n_threads: int | None = None,
        n_sockets: int | None = None,
    ):
        self.mctop = mctop
        self.policy = Policy(policy) if isinstance(policy, str) else policy
        self.ordering = compute_order(mctop, self.policy, n_threads, n_sockets)
        self.n_threads = len(self.ordering)
        self._free = list(reversed(self.ordering))  # pop() from the front
        self._pinned: dict[int, PinnedThread] = {}
        self._max_latency: int | None = None

    @classmethod
    def _from_ordering(
        cls,
        mctop: Mctop,
        policy: Policy | str,
        ordering: Sequence[int],
        max_latency: int | None = None,
    ) -> "Placement":
        """A placement over an already-computed ordering.

        The :class:`~repro.place.index.PlacementIndex` fast path: skips
        ``compute_order`` entirely and optionally seeds the cached
        max-latency (the index stores it precomputed).
        """
        self = cls.__new__(cls)
        self.mctop = mctop
        self.policy = Policy(policy) if isinstance(policy, str) else policy
        self.ordering = list(ordering)
        self.n_threads = len(self.ordering)
        self._free = list(reversed(self.ordering))
        self._pinned = {}
        self._max_latency = max_latency
        return self

    # ------------------------------------------------------------ pinning
    @property
    def pins_threads(self) -> bool:
        return self.policy.pins_threads

    def pin(self) -> PinnedThread:
        """Pin the calling thread to the next available context."""
        if not self._free:
            raise PlacementError(
                f"all {self.n_threads} contexts of this placement are in use"
            )
        ctx = self._free.pop()
        info = self._thread_info(ctx)
        self._pinned[ctx] = info
        return info

    def unpin(self, ctx: int) -> None:
        """Return a context to the placement."""
        if ctx not in self._pinned:
            raise PlacementError(f"context {ctx} is not pinned")
        del self._pinned[ctx]
        self._free.append(ctx)

    def pinned_contexts(self) -> list[int]:
        return sorted(self._pinned)

    def _thread_info(self, ctx: int) -> PinnedThread:
        m = self.mctop
        socket = m.socket_of_context(ctx)
        core = m.core_of_context(ctx)
        sock_ctxs = m.socket_get_contexts(socket)
        sock_cores = m.socket_get_cores(socket)
        return PinnedThread(
            ctx=ctx,
            socket_id=socket,
            core_id=core,
            local_node=m.get_local_node(ctx),
            ctx_index_in_socket=sock_ctxs.index(ctx),
            core_index_in_socket=sock_cores.index(core),
        )

    # ------------------------------------------------------- derived info
    def sockets_used(self) -> list[int]:
        seen: list[int] = []
        for ctx in self.ordering:
            s = self.mctop.socket_of_context(ctx)
            if s not in seen:
                seen.append(s)
        return seen

    def cores_used(self) -> list[int]:
        return sorted({self.mctop.core_of_context(c) for c in self.ordering})

    def contexts_per_socket(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for ctx in self.ordering:
            s = self.mctop.socket_of_context(ctx)
            out[s] = out.get(s, 0) + 1
        return out

    def cores_per_socket(self) -> dict[int, int]:
        out: dict[int, set[int]] = {}
        for ctx in self.ordering:
            s = self.mctop.socket_of_context(ctx)
            out.setdefault(s, set()).add(self.mctop.core_of_context(ctx))
        return {s: len(cores) for s, cores in out.items()}

    def bandwidth_proportions(self) -> dict[int, float]:
        """Fraction of the workload's threads per socket (Figure 7)."""
        counts = self.contexts_per_socket()
        total = sum(counts.values())
        return {s: n / total for s, n in counts.items()}

    def max_latency(self) -> int:
        """The educated-backoff quantum of this thread set."""
        if self._max_latency is None:
            self._max_latency = self.mctop.max_latency(self.ordering)
        return self._max_latency

    def min_bandwidth(self) -> float | None:
        """Worst local memory bandwidth among the used sockets, scaled
        by how much of the socket this placement occupies."""
        if not self.mctop.has_memory_measurements():
            return None
        values = []
        for s, n_ctx in self.contexts_per_socket().items():
            share = n_ctx / len(self.mctop.socket_get_contexts(s))
            values.append(self.mctop.local_bandwidth(s) * min(share * 2, 1.0))
        return min(values) if values else None

    def max_power(self, with_dram: bool) -> dict[int, float] | None:
        """Estimated per-socket maximum power (Intel only)."""
        info = self.mctop.power_info
        if info is None:
            return None
        out: dict[int, float] = {}
        per_socket: dict[int, list[int]] = {}
        for ctx in self.ordering:
            per_socket.setdefault(
                self.mctop.socket_of_context(ctx), []
            ).append(ctx)
        for s, ctxs in per_socket.items():
            cores = {self.mctop.core_of_context(c) for c in ctxs}
            watts = info.per_socket_idle
            watts += len(cores) * info.per_core_first
            watts += (len(ctxs) - len(cores)) * info.per_context_extra
            if with_dram:
                watts += info.dram_active_per_socket
            out[s] = watts
        return out

    def estimated_power(self, with_dram: bool = True) -> float | None:
        per_socket = self.max_power(with_dram)
        if per_socket is None:
            return None
        return sum(per_socket.values())

    # ------------------------------------------------------------- output
    def print_stats(self) -> str:
        """The Figure 7 report."""
        return render_stats(self.mctop, self.policy, self.ordering,
                            max_latency=self.max_latency())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Placement({self.policy.value}, {self.n_threads} threads, "
            f"{len(self.sockets_used())} sockets)"
        )
