"""The MCTOP topology object and its query engine.

``Mctop`` is what ``infer_topology`` produces and what every policy in
the paper is written against: a processor description annotated with
measured latencies and bandwidths, queryable without any assumption
about the concrete machine ("use n cores closest to core x", "two
sockets with maximum bandwidth", ...).

The interface mirrors libmctop's C API names where the paper shows
them (``mctop_get_local_node``, ``mctop_socket_get_cores``,
``mctop_get_latency``) as snake_case methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.errors import ValidationError
from repro.core.structures import (
    CacheInfo,
    HwContext,
    HwcGroup,
    InterconnectLink,
    LatencyCluster,
    MemoryNode,
    PowerInfo,
    SocketData,
    TopologyLevel,
    level_of_id,
)


@dataclass
class Provenance:
    """How a topology was obtained (machine, seed, measurement effort).

    ``trace_summary`` is the deterministic digest of the inference
    run's observability data (span/instant counts and every counter
    final) — enough to audit how much measurement work produced the
    topology without storing wall-clock timings, so description files
    remain byte-for-byte reproducible for a given seed.
    """

    machine: str = "unknown"
    seed: int | None = None
    samples_taken: int = 0
    repetitions: int = 0
    inferred: bool = True  # False when loaded from a description file
    extras: dict[str, float] = field(default_factory=dict)
    trace_summary: dict = field(default_factory=dict)


class Mctop:
    """A complete MCTOP topology (Table 1's ``mctop`` structure)."""

    def __init__(
        self,
        name: str,
        contexts: dict[int, HwContext],
        groups: dict[int, HwcGroup],
        sockets: dict[int, SocketData],
        nodes: dict[int, MemoryNode],
        links: dict[tuple[int, int], InterconnectLink],
        levels: tuple[TopologyLevel, ...],
        clusters: tuple[LatencyCluster, ...],
        lat_table: np.ndarray,
        has_smt: bool,
        smt_per_core: int,
        cache_info: CacheInfo | None = None,
        power_info: PowerInfo | None = None,
        provenance: Provenance | None = None,
    ):
        self.name = name
        self.contexts = contexts
        self.groups = groups
        self.sockets = sockets
        self.nodes = nodes
        self.links = links
        self.levels = levels
        self.clusters = clusters
        self.lat_table = lat_table
        self.has_smt = has_smt
        self.smt_per_core = smt_per_core
        self.cache_info = cache_info
        self.power_info = power_info
        self.provenance = provenance or Provenance()
        # Context ids need not be contiguous (renumbered/synthetic
        # machines); the latency table rows follow sorted-id order.
        self._ctx_rows = {cid: i for i, cid in enumerate(sorted(contexts))}
        #: The precomputed placement index, built on first use.
        self._placement_index = None
        self._validate_linkage()

    # ------------------------------------------------------------ basics
    @property
    def n_contexts(self) -> int:
        return len(self.contexts)

    @property
    def n_sockets(self) -> int:
        return len(self.sockets)

    @property
    def n_cores(self) -> int:
        return len(self.core_ids())

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def socket_ids(self) -> list[int]:
        return sorted(self.sockets)

    def core_ids(self) -> list[int]:
        return sorted({ctx.core_id for ctx in self.contexts.values()})

    def context_ids(self) -> list[int]:
        return sorted(self.contexts)

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    # ---------------------------------------------------------- vertical
    def get_local_node(self, ctx_id: int) -> int | None:
        """``mctop_get_local_node``: the memory node local to a context."""
        return self.contexts[ctx_id].local_node

    def socket_of_context(self, ctx_id: int) -> int:
        return self.contexts[ctx_id].socket_id

    def core_of_context(self, ctx_id: int) -> int:
        return self.contexts[ctx_id].core_id

    def socket_get_cores(self, socket_id: int) -> list[int]:
        """``mctop_socket_get_cores``: core hwc_group ids of a socket."""
        self._check_socket(socket_id)
        return sorted(
            {
                ctx.core_id
                for ctx in self.contexts.values()
                if ctx.socket_id == socket_id
            }
        )

    def socket_get_contexts(self, socket_id: int) -> list[int]:
        self._check_socket(socket_id)
        return sorted(self.groups[socket_id].contexts)

    def core_get_contexts(self, core_id: int) -> list[int]:
        """Contexts of one physical core, SMT-index order."""
        ctxs = [c for c in self.contexts.values() if c.core_id == core_id]
        if not ctxs:
            raise ValidationError(f"unknown core id {core_id}")
        return [c.id for c in sorted(ctxs, key=lambda c: c.smt_index)]

    def socket_of_node(self, node_id: int) -> int | None:
        return self.nodes[node_id].local_socket_id

    def node_of_socket(self, socket_id: int) -> int | None:
        self._check_socket(socket_id)
        return self.sockets[socket_id].local_node

    def _check_socket(self, socket_id: int) -> None:
        if socket_id not in self.sockets:
            raise ValidationError(f"unknown socket id {socket_id}")

    # ----------------------------------------------------------- latency
    def get_latency(self, id0: int, id1: int) -> int:
        """``mctop_get_latency``: latency between any two components.

        For two contexts this is the normalized measured value; for
        groups, the latency between representative contexts; for a
        component against itself, its internal latency.
        """
        if id0 == id1:
            if id0 in self.contexts:
                return 0
            return self.groups[id0].latency
        c0 = self._representative(id0)
        c1 = self._representative(id1)
        if c0 == c1:  # e.g. a context against its own core
            inner = id0 if level_of_id(id0) > level_of_id(id1) else id1
            return self.groups[inner].latency
        return int(self.lat_table[self._ctx_rows[c0], self._ctx_rows[c1]])

    def _representative(self, comp_id: int) -> int:
        if comp_id in self.contexts:
            return comp_id
        group = self.groups.get(comp_id)
        if group is None:
            raise ValidationError(f"unknown component id {comp_id}")
        return min(group.contexts)

    def socket_latency(self, socket_a: int, socket_b: int) -> int:
        """Cross-socket communication latency (intra latency if equal)."""
        if socket_a == socket_b:
            return self.groups[socket_a].latency
        key = (min(socket_a, socket_b), max(socket_a, socket_b))
        link = self.links.get(key)
        if link is not None:
            return link.latency
        return self.get_latency(socket_a, socket_b)

    def max_latency(self, ctx_ids: list[int]) -> int:
        """Maximum pairwise latency among a set of contexts.

        This is the paper's educated-backoff quantum (Section 5): the
        longest time a coherence "message" needs between the threads of
        an execution.
        """
        if len(ctx_ids) < 2:
            return 0
        return max(self.get_latency(a, b) for a, b in combinations(ctx_ids, 2))

    def latency_levels(self) -> list[tuple[int, int]]:
        """(level, latency) pairs, ascending."""
        return [(lv.level, lv.latency) for lv in self.levels]

    def smt_latency(self) -> int | None:
        """Latency between SMT siblings, if the machine has SMT."""
        if not self.has_smt:
            return None
        for lv in self.levels:
            if lv.role == "core":
                return lv.latency
        return None

    # ------------------------------------------------------------ memory
    def mem_latency(self, socket_id: int, node_id: int) -> float:
        self._check_socket(socket_id)
        return self.sockets[socket_id].mem_latencies[node_id]

    def mem_bandwidth(self, socket_id: int, node_id: int) -> float:
        self._check_socket(socket_id)
        return self.sockets[socket_id].mem_bandwidths[node_id]

    def mem_bandwidth_single(self, socket_id: int, node_id: int) -> float:
        self._check_socket(socket_id)
        return self.sockets[socket_id].mem_bandwidths_single[node_id]

    def local_bandwidth(self, socket_id: int) -> float:
        """Bandwidth of a socket to its local node."""
        node = self.node_of_socket(socket_id)
        if node is None:
            raise ValidationError(f"socket {socket_id} has no local node")
        return self.mem_bandwidth(socket_id, node)

    def local_mem_latency(self, socket_id: int) -> float:
        node = self.node_of_socket(socket_id)
        if node is None:
            raise ValidationError(f"socket {socket_id} has no local node")
        return self.mem_latency(socket_id, node)

    def has_memory_measurements(self) -> bool:
        return all(s.mem_bandwidths for s in self.sockets.values())

    # ------------------------------------------------- high-level policy
    def sockets_by_local_bandwidth(self) -> list[int]:
        """Socket ids, highest local memory bandwidth first."""
        if not self.has_memory_measurements():
            return self.socket_ids()
        return sorted(
            self.sockets, key=lambda s: (-self.local_bandwidth(s), s)
        )

    def closest_sockets(self, socket_id: int) -> list[int]:
        """Other sockets ordered by communication latency (then id)."""
        self._check_socket(socket_id)
        others = [s for s in self.sockets if s != socket_id]
        return sorted(others, key=lambda s: (self.socket_latency(socket_id, s), s))

    def min_latency_socket_pair(self) -> tuple[int, int]:
        """The two best-connected sockets ("use any two sockets that
        minimize latency" — the portable version of 'use sockets 0,1')."""
        if self.n_sockets < 2:
            raise ValidationError("need at least two sockets")
        return min(
            combinations(self.socket_ids(), 2),
            key=lambda p: self.socket_latency(*p),
        )

    def max_bandwidth_socket_pair(self) -> tuple[int, int]:
        """Two sockets maximizing their interconnect bandwidth."""
        if self.n_sockets < 2:
            raise ValidationError("need at least two sockets")

        def pair_bw(p: tuple[int, int]) -> float:
            link = self.links.get((min(p), max(p)))
            if link is not None and link.bandwidth is not None:
                return link.bandwidth
            return 0.0

        return max(combinations(self.socket_ids(), 2), key=pair_bw)

    def proximity_order(self, start_ctx: int) -> list[int]:
        """All contexts ordered by latency from ``start_ctx``.

        The horizontal successor chain of the paper: each context's
        ``next_ctx`` points to its proximity successor; this walks the
        chain from an arbitrary start.
        """
        others = [c for c in self.contexts if c != start_ctx]
        ordered = sorted(
            others, key=lambda c: (self.get_latency(start_ctx, c), c)
        )
        return [start_ctx] + ordered

    def contexts_with_llc_share(self, min_mb_per_thread: float) -> list[int]:
        """Max set of contexts such that each gets >= the given LLC share.

        Implements the paper's example policy "use the maximum number of
        threads ... so that each thread has access to at least 3 MB of
        LLC".  Requires cache measurements.
        """
        if self.cache_info is None or not self.cache_info.sizes_kib:
            raise ValidationError("no cache measurements available")
        llc_level = max(self.cache_info.sizes_kib)
        llc_mb = self.cache_info.sizes_kib[llc_level] / 1024.0
        per_socket = max(1, int(llc_mb // min_mb_per_thread))
        out: list[int] = []
        for s in self.socket_ids():
            out.extend(self.socket_get_contexts(s)[:per_socket])
        return out

    # --------------------------------------------------------- placement
    def placement_index(self):
        """The precomputed per-policy placement index, built from this
        topology on first call and cached on it."""
        if self._placement_index is None:
            from repro.place.index import PlacementIndex

            self._placement_index = PlacementIndex(self).build()
        return self._placement_index

    # -------------------------------------------------------- validation
    def _validate_linkage(self) -> None:
        for ctx in self.contexts.values():
            if ctx.socket_id not in self.sockets:
                raise ValidationError(
                    f"context {ctx.id} references unknown socket {ctx.socket_id}"
                )
        for (a, b), link in self.links.items():
            if a not in self.sockets or b not in self.sockets:
                raise ValidationError(f"link ({a}, {b}) references unknown socket")
            if (link.socket_a, link.socket_b) != (a, b):
                raise ValidationError(f"link ({a}, {b}) is mislabelled")
        n = self.n_contexts
        if self.lat_table.shape != (n, n):
            raise ValidationError(
                f"latency table shape {self.lat_table.shape} != ({n}, {n})"
            )

    # ------------------------------------------------------------ output
    def summary(self) -> str:
        """Human-readable description (the textual topology view)."""
        lines = [
            f"MCTOP topology '{self.name}'",
            f"  hw contexts : {self.n_contexts}",
            f"  cores       : {self.n_cores}",
            f"  sockets     : {self.n_sockets}",
            f"  memory nodes: {self.n_nodes}",
            f"  SMT         : {self.smt_per_core}-way" if self.has_smt else "  SMT         : no",
            "  latency levels:",
        ]
        for lv in self.levels:
            lines.append(
                f"    level {lv.level}: {lv.latency:>5} cycles "
                f"({lv.role}, {len(lv.component_ids)} components)"
            )
        if self.has_memory_measurements():
            for s in self.socket_ids():
                node = self.node_of_socket(s)
                lines.append(
                    f"  socket {s}: local node {node}, "
                    f"{self.local_mem_latency(s):.0f} cy, "
                    f"{self.local_bandwidth(s):.1f} GB/s"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Mctop({self.name!r}, sockets={self.n_sockets}, "
            f"cores={self.n_cores}, contexts={self.n_contexts})"
        )
