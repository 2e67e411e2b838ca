"""Topology-aware cross-socket reduction trees (Section 5).

Builds the binary merge tree of ``mctop_sort``: at every level the
sockets are paired so that the pair bandwidths are maximized, and the
final destination is the socket that needs the result (socket 0 in the
paper's sort experiment).  The same tree shape serves any fork-join
reduction (the MapReduce engine reuses it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mctop import Mctop


@dataclass(frozen=True)
class MergeStep:
    """One transfer: ``src`` socket sends its data to ``dst``."""

    src: int
    dst: int
    bandwidth: float | None  # link bandwidth, if measured


@dataclass
class ReductionTree:
    """Rounds of pairwise merges, last round ending at the target."""

    target: int
    rounds: list[list[MergeStep]]

    @property
    def depth(self) -> int:
        return len(self.rounds)


def _pair_bandwidth(mctop: Mctop, a: int, b: int) -> float:
    link = mctop.links.get((min(a, b), max(a, b)))
    if link is not None and link.bandwidth is not None:
        return link.bandwidth
    # Fall back on inverse latency when bandwidth was not measured.
    return 1e6 / max(mctop.socket_latency(a, b), 1)


def build_reduction_tree(mctop: Mctop, target_socket: int | None = None) -> ReductionTree:
    """Greedy maximum-bandwidth pairing, level by level.

    Each round pairs up the surviving sockets (greedily taking the
    highest-bandwidth pair first); the member of a pair that keeps the
    data is the one on the (bandwidth-weighted) path to the target —
    the target socket itself always receives.
    """
    if target_socket is None:
        target_socket = mctop.socket_ids()[0]
    alive = mctop.socket_ids()
    if target_socket not in alive:
        raise ValueError(f"unknown target socket {target_socket}")
    rounds: list[list[MergeStep]] = []
    while len(alive) > 1:
        pairs: list[tuple[float, int, int]] = []
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                pairs.append((_pair_bandwidth(mctop, a, b), a, b))
        pairs.sort(reverse=True)
        used: set[int] = set()
        steps: list[MergeStep] = []
        for bw, a, b in pairs:
            if a in used or b in used:
                continue
            used.add(a)
            used.add(b)
            dst, src = (a, b) if a == target_socket else (
                (b, a) if b == target_socket else
                ((a, b) if _pair_bandwidth(mctop, a, target_socket)
                 >= _pair_bandwidth(mctop, b, target_socket) else (b, a))
            )
            link = mctop.links.get((min(a, b), max(a, b)))
            steps.append(
                MergeStep(src=src, dst=dst,
                          bandwidth=link.bandwidth if link else None)
            )
        # An odd socket out simply survives to the next round.
        rounds.append(steps)
        alive = sorted(
            {s.dst for s in steps} | {a for a in alive if a not in used}
        )
    return ReductionTree(target=target_socket, rounds=rounds)
