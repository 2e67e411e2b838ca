"""Cache-hierarchy model.

Each simulated machine carries a tuple of :class:`CacheLevelSpec`
objects describing its data caches, ordered L1 upward.  The hierarchy
answers the question the paper's cache plugin (Section 4) asks: "what
is the load latency for a working set of S bytes?" — flat at each
level's latency, jumping at the level's capacity, and falling through
to memory beyond the LLC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineModelError

CACHE_SHARING = ("hw_context", "core", "cluster", "socket")


@dataclass(frozen=True)
class CacheLevelSpec:
    """One level of the data-cache hierarchy."""

    level: int  # 1 = L1
    size_kib: int
    latency: int  # load-to-use cycles
    shared_by: str = "core"  # which component shares this cache
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.shared_by not in CACHE_SHARING:
            raise MachineModelError(f"bad cache sharing {self.shared_by!r}")
        if self.size_kib <= 0 or self.latency <= 0:
            raise MachineModelError("cache size and latency must be positive")

    @property
    def size_bytes(self) -> int:
        return self.size_kib * 1024


class CacheHierarchy:
    """Lookup helper over an ordered tuple of cache levels."""

    def __init__(self, levels: tuple[CacheLevelSpec, ...], mem_latency: int):
        if not levels:
            raise MachineModelError("a machine needs at least one cache level")
        ordered = sorted(levels, key=lambda l: l.level)
        for lower, upper in zip(ordered, ordered[1:]):
            if upper.size_kib <= lower.size_kib:
                raise MachineModelError("cache sizes must grow with level")
            if upper.latency <= lower.latency:
                raise MachineModelError("cache latencies must grow with level")
        self.levels = tuple(ordered)
        self.mem_latency = mem_latency

    @property
    def llc(self) -> CacheLevelSpec:
        return self.levels[-1]

    def latency_for_working_set(self, size_bytes: int) -> int:
        """Average dependent-load latency for a working set of this size.

        This is exactly the curve the cache plugin walks to detect cache
        sizes: latency stays at a level's cost while the set fits, then
        steps up at the capacity boundary.
        """
        for level in self.levels:
            if size_bytes <= level.size_bytes:
                return level.latency
        return self.mem_latency
