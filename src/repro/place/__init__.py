"""MCTOP-PLACE: portable thread placement (Section 6 of the paper)."""

from repro.place.index import PlacementIndex, PlacementResult
from repro.place.placement import PinnedThread, Placement, render_stats
from repro.place.policies import ALL_POLICIES, Policy, compute_order, socket_chain
from repro.place.pool import PlacementPool

__all__ = [
    "ALL_POLICIES",
    "PinnedThread",
    "Placement",
    "PlacementIndex",
    "PlacementPool",
    "PlacementResult",
    "Policy",
    "compute_order",
    "render_stats",
    "socket_chain",
]
