"""Ground-truth model of a multi-core machine.

This module is the heart of the simulated-hardware substrate.  A
:class:`MachineSpec` describes a processor exactly the way its vendor
datasheet would: sockets, cores, SMT contexts, cache hierarchy, NUMA
nodes, the socket interconnect and the canonical communication
latencies.  A :class:`Machine` wraps a spec and answers latency and
bandwidth queries *as the hardware would*, i.e. deterministically and
noise-free.  All noise (DVFS, rdtsc, OS jitter) is layered on top by
:mod:`repro.hardware.probes` so that MCTOP-ALG faces a realistic signal
while tests can compare inferred topologies against this ground truth.

Context numbering schemes
-------------------------
Operating systems number hardware contexts differently:

``smt_blocked``
    Intel/Linux style.  Cores are numbered first across all sockets and
    the k-th SMT sibling of core ``c`` is context ``c + k * n_cores``.
    On the paper's Ivy platform context 0 and context 20 are siblings.

``smt_consecutive``
    SPARC/Solaris style.  All SMT contexts of a core are numbered
    consecutively; contexts 0..7 of the paper's T4-4 share core 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineModelError
from repro.hardware.caches import CacheLevelSpec
from repro.hardware.interconnect import Interconnect, LinkSpec

NUMBERING_SCHEMES = ("smt_blocked", "smt_consecutive")


def _pair_jitter(a: int, b: int, amplitude: int) -> int:
    """Deterministic, symmetric per-pair latency variation.

    Real machines do not exhibit one exact intra-socket latency: the
    paper's Ivy table (Figure 6) spans 88..140 cycles around the 112
    cluster median.  We reproduce that spread with a stable hash so that
    the clustering step of MCTOP-ALG is exercised on realistic data while
    the machine stays perfectly deterministic.
    """
    if amplitude <= 0:
        return 0
    lo, hi = (a, b) if a <= b else (b, a)
    h = (lo * 2654435761 ^ hi * 40503) & 0xFFFFFFFF
    h = (h ^ (h >> 16)) * 2246822519 & 0xFFFFFFFF
    h = (h ^ (h >> 13)) & 0xFFFFFFFF
    span = 2 * amplitude + 1
    return (h % span) - amplitude


@dataclass(frozen=True)
class MemoryProfile:
    """NUMA latency/bandwidth figures of one machine.

    ``local_latency`` / ``local_bandwidth`` describe a socket accessing
    its own node.  Remote accesses degrade per interconnect hop using the
    ``hop_latency`` additive table and the ``hop_bandwidth_factor``
    multiplicative table (indexed by hop count, 1-based).  Individual
    (socket, node) figures may be overridden to match a datasheet.
    """

    local_latency: int
    local_bandwidth: float  # GB/s, whole socket, saturated
    hop_latency: tuple[int, ...] = (130, 230)  # additive, per hop count
    hop_bandwidth_factor: tuple[float, ...] = (0.45, 0.28)
    latency_overrides: dict[tuple[int, int], int] = field(default_factory=dict)
    bandwidth_overrides: dict[tuple[int, int], float] = field(default_factory=dict)
    single_thread_fraction: float = 0.35  # share of socket bw one thread can pull


@dataclass(frozen=True)
class PowerProfile:
    """RAPL-like power model (Section 4, "Power Consumption").

    All values are Watts.  ``first_context`` is the increment of waking
    the first hardware context of an idle core; ``extra_context`` the
    (much smaller) increment of activating an additional SMT sibling of
    an already-busy core, exactly the two quantities libmctop measures.
    """

    idle_socket: float
    first_context: float
    extra_context: float
    dram_active: float  # per socket, memory-intensive workload
    dram_idle: float = 2.0


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a simulated multi-core processor."""

    name: str
    n_sockets: int
    cores_per_socket: int
    smt_per_core: int
    freq_min_ghz: float
    freq_max_ghz: float
    caches: tuple[CacheLevelSpec, ...]
    smt_latency: int  # cycles, contexts of the same core
    core_latency: int  # cycles, cores of the same socket
    links: dict[tuple[int, int], LinkSpec]  # direct socket links
    multi_hop_latency: dict[int, int] = field(default_factory=dict)  # hops -> cycles
    memory: MemoryProfile = MemoryProfile(300, 15.0)
    power: PowerProfile | None = None
    numbering: str = "smt_blocked"
    nodes_per_socket: int = 1
    core_cluster_size: int = 1  # >1: cores sharing e.g. an L2 cluster
    core_cluster_latency: int = 0  # latency inside such a cluster
    intra_jitter: int = 8
    smt_jitter: int = 1
    cross_jitter: int = 6
    os_node_permutation: tuple[int, ...] | None = None  # misconfigured OS
    spin_cpi: float = 1.0  # cycles per spin-loop iteration, solo
    smt_slowdown: float = 1.75  # spin-loop slowdown with a busy sibling

    def __post_init__(self) -> None:
        if self.numbering not in NUMBERING_SCHEMES:
            raise MachineModelError(f"unknown numbering scheme {self.numbering!r}")
        if self.n_sockets < 1 or self.cores_per_socket < 1 or self.smt_per_core < 1:
            raise MachineModelError("machine dimensions must be positive")
        if self.core_cluster_size > 1:
            if self.cores_per_socket % self.core_cluster_size:
                raise MachineModelError("cluster size must divide cores per socket")
            if not 0 < self.core_cluster_latency < self.core_latency:
                raise MachineModelError(
                    "cluster latency must sit between SMT and core latency"
                )
        for (a, b) in self.links:
            if not (0 <= a < self.n_sockets and 0 <= b < self.n_sockets and a < b):
                raise MachineModelError(f"bad link endpoints ({a}, {b})")
        if self.os_node_permutation is not None:
            if sorted(self.os_node_permutation) != list(range(self.n_nodes)):
                raise MachineModelError("os_node_permutation must permute the nodes")

    @property
    def n_cores(self) -> int:
        return self.n_sockets * self.cores_per_socket

    @property
    def n_contexts(self) -> int:
        return self.n_cores * self.smt_per_core

    @property
    def n_nodes(self) -> int:
        return self.n_sockets * self.nodes_per_socket

    @property
    def has_smt(self) -> bool:
        return self.smt_per_core > 1


class Machine:
    """A live machine: the latency/bandwidth oracle over a spec.

    The mapping functions (``socket_of`` and friends) define the ground
    truth that MCTOP-ALG must recover from latency measurements alone.
    """

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.interconnect = Interconnect(
            spec.n_sockets, spec.links, spec.multi_hop_latency
        )
        # Context -> core and context -> socket, built once: the sim
        # engine asks for them on every event.  Pair latencies are
        # memoized on first use rather than tabulated up front (a
        # machine is built per inference; sparc has 256 contexts).  A
        # pair's latency never changes, so threads racing to fill the
        # memo store the same value.
        self._n_contexts = spec.n_contexts
        if spec.numbering == "smt_blocked":
            cores = [ctx % spec.n_cores for ctx in range(spec.n_contexts)]
        else:
            cores = [ctx // spec.smt_per_core for ctx in range(spec.n_contexts)]
        self._core_of = tuple(cores)
        self._socket_of = tuple(c // spec.cores_per_socket for c in cores)
        self._comm: dict[tuple[int, int], int] = {}

    # ---------------------------------------------------------------- ids
    def socket_of(self, ctx: int) -> int:
        # The range check stays in front of the table: a bare tuple
        # index would silently wrap a negative id.
        if not 0 <= ctx < self._n_contexts:
            self._check_ctx(ctx)
        return self._socket_of[ctx]

    def core_of(self, ctx: int) -> int:
        """Global core index of a hardware context."""
        if not 0 <= ctx < self._n_contexts:
            self._check_ctx(ctx)
        return self._core_of[ctx]

    def smt_index_of(self, ctx: int) -> int:
        """Which SMT sibling (0-based) a context is within its core."""
        spec = self.spec
        self._check_ctx(ctx)
        if spec.numbering == "smt_blocked":
            return ctx // spec.n_cores
        return ctx % spec.smt_per_core

    def context_id(self, core: int, smt: int) -> int:
        """Inverse of (core_of, smt_index_of)."""
        spec = self.spec
        if not (0 <= core < spec.n_cores and 0 <= smt < spec.smt_per_core):
            raise MachineModelError(f"bad core/smt ({core}, {smt})")
        if spec.numbering == "smt_blocked":
            return core + smt * spec.n_cores
        return core * spec.smt_per_core + smt

    def contexts_of_core(self, core: int) -> list[int]:
        return [self.context_id(core, k) for k in range(self.spec.smt_per_core)]

    def cores_of_socket(self, socket: int) -> list[int]:
        cps = self.spec.cores_per_socket
        return list(range(socket * cps, (socket + 1) * cps))

    def contexts_of_socket(self, socket: int) -> list[int]:
        out: list[int] = []
        for core in self.cores_of_socket(socket):
            out.extend(self.contexts_of_core(core))
        return sorted(out)

    def cluster_of(self, core: int) -> int:
        """Index of the core's intra-socket cluster (L2 group)."""
        return core // max(self.spec.core_cluster_size, 1)

    def local_node_of_socket(self, socket: int) -> int:
        # One node per socket in every catalog machine; the general
        # nodes_per_socket hook keeps the spec future-proof.
        return socket * self.spec.nodes_per_socket

    def socket_of_node(self, node: int) -> int:
        return node // self.spec.nodes_per_socket

    def _check_ctx(self, ctx: int) -> None:
        if not 0 <= ctx < self.spec.n_contexts:
            raise MachineModelError(
                f"context {ctx} out of range for {self.spec.name}"
            )

    def _check_socket(self, socket: int) -> None:
        if not 0 <= socket < self.spec.n_sockets:
            raise MachineModelError(
                f"socket {socket} out of range for {self.spec.name}"
            )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.spec.n_nodes:
            raise MachineModelError(
                f"memory node {node} out of range for {self.spec.name}"
            )

    # ------------------------------------------------------- comm latency
    def comm_latency(self, a: int, b: int) -> int:
        """True cache-coherence communication latency between contexts.

        This is the quantity the paper's lock-step CAS probe (Figure 5)
        measures: the cost of an RFO for a line held modified by the
        other context, free of rdtsc overhead and noise.
        """
        n = self._n_contexts
        if not (0 <= a < n and 0 <= b < n):
            self._check_ctx(a)
            self._check_ctx(b)
        lat = self._comm.get((a, b))
        if lat is None:
            lat = self._comm[(a, b)] = self._pair_latency(a, b)
        return lat

    def _pair_latency(self, a: int, b: int) -> int:
        spec = self.spec
        if a == b:
            return 0
        ca, cb = self._core_of[a], self._core_of[b]
        if ca == cb:
            return spec.smt_latency + _pair_jitter(a, b, spec.smt_jitter)
        sa, sb = ca // spec.cores_per_socket, cb // spec.cores_per_socket
        if sa == sb:
            base = spec.core_latency
            if spec.core_cluster_size > 1 and self.cluster_of(ca) == self.cluster_of(cb):
                base = spec.core_cluster_latency
            return base + _pair_jitter(a, b, spec.intra_jitter)
        base = self.interconnect.latency(sa, sb)
        return base + _pair_jitter(a, b, spec.cross_jitter)

    def socket_latency(self, sa: int, sb: int) -> int:
        """Canonical (jitter-free) cross-socket latency."""
        if sa == sb:
            return self.spec.core_latency
        return self.interconnect.latency(sa, sb)

    # ------------------------------------------------------------- memory
    def mem_latency(self, socket: int, node: int) -> int:
        """Cycles for a dependent (pointer-chase) load from ``node``."""
        self._check_socket(socket)
        self._check_node(node)
        mem = self.spec.memory
        override = mem.latency_overrides.get((socket, node))
        if override is not None:
            return override
        hops = self._node_hops(socket, node)
        if hops == 0:
            return mem.local_latency
        idx = min(hops, len(mem.hop_latency)) - 1
        return mem.local_latency + mem.hop_latency[idx]

    def mem_bandwidth(self, socket: int, node: int) -> float:
        """Saturated GB/s from all cores of ``socket`` to ``node``."""
        self._check_socket(socket)
        self._check_node(node)
        mem = self.spec.memory
        override = mem.bandwidth_overrides.get((socket, node))
        if override is not None:
            return override
        hops = self._node_hops(socket, node)
        if hops == 0:
            return mem.local_bandwidth
        idx = min(hops, len(mem.hop_bandwidth_factor)) - 1
        link_cap = mem.local_bandwidth * mem.hop_bandwidth_factor[idx]
        link = self.interconnect.link_bandwidth(socket, self.socket_of_node(node))
        return min(link_cap, link) if link else link_cap

    def mem_bandwidth_single(self, socket: int, node: int) -> float:
        """GB/s a single streaming thread achieves (latency bound)."""
        return self.mem_bandwidth(socket, node) * self.spec.memory.single_thread_fraction

    def _node_hops(self, socket: int, node: int) -> int:
        home = self.socket_of_node(node)
        if home == socket:
            return 0
        return self.interconnect.hops(socket, home)

    # -------------------------------------------------------------- misc
    def spin_loop_cycles(self, iterations: int, sibling_busy: bool) -> float:
        """Cycles a calibrated spin loop takes (SMT-detection probe)."""
        cpi = self.spec.spin_cpi * (self.spec.smt_slowdown if sibling_busy else 1.0)
        return iterations * cpi

    def describe(self) -> str:
        s = self.spec
        smt = f"{s.smt_per_core}-way SMT" if s.has_smt else "no SMT"
        return (
            f"{s.name}: {s.n_sockets} sockets x {s.cores_per_socket} cores, "
            f"{smt}, {s.n_contexts} hw contexts, {s.n_nodes} memory nodes, "
            f"{s.freq_min_ghz:.1f}-{s.freq_max_ghz:.1f} GHz"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.spec.name!r})"
