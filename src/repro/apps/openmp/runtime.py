"""A miniature OpenMP runtime with the MCTOP_MP extension.

Models the relevant slice of libgomp: a team of threads, static
work-sharing of parallel-for regions — plus the paper's additions
(Section 7.4): ``omp_set_binding_policy`` to choose an MCTOP-PLACE
policy *at runtime*, switchable between parallel regions, which vanilla
OpenMP (environment-variable places, fixed at startup) cannot do.

Functional execution is sequential-deterministic: region bodies run
chunk by chunk in thread order, so results are reproducible while the
thread/context mapping is exactly what a real run would pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import PlacementError
from repro.core.mctop import Mctop
from repro.place import Placement, PlacementPool, Policy


@dataclass(frozen=True)
class TeamThread:
    """One member of the current team."""

    thread_id: int
    ctx: int | None  # None when threads are not pinned (vanilla mode)
    chunk: range


class OpenMpRuntime:
    """The runtime: vanilla by default, MCTOP_MP when given a topology."""

    def __init__(self, mctop: Mctop | None = None,
                 default_threads: int | None = None):
        self.mctop = mctop
        self._pool = PlacementPool(mctop) if mctop is not None else None
        self._binding: Placement | None = None
        self.default_threads = default_threads or (
            mctop.n_contexts if mctop is not None else 4
        )
        self.regions_run = 0

    # ------------------------------------------------------ MCTOP_MP API
    @property
    def supports_binding(self) -> bool:
        return self._pool is not None

    def omp_set_binding_policy(
        self,
        policy: Policy | str,
        n_threads: int | None = None,
        n_sockets: int | None = None,
    ) -> Placement:
        """The paper's extension: select a placement policy at runtime."""
        if self._pool is None:
            raise PlacementError(
                "this runtime was built without MCTOP (vanilla OpenMP); "
                "binding policies need libmctop"
            )
        self._binding = self._pool.set_policy(policy, n_threads, n_sockets)
        return self._binding

    def omp_get_binding_policy(self) -> Policy | None:
        return self._binding.policy if self._binding is not None else None

    def current_team(self, n_iterations: int,
                     n_threads: int | None = None) -> list[TeamThread]:
        """The team (with pinned contexts and static chunks) a parallel
        region of ``n_iterations`` would run with."""
        if self._binding is not None and n_threads is None:
            n = self._binding.n_threads
        else:
            n = n_threads or self.default_threads
        ctxs: list[int | None]
        if self._binding is not None:
            ctxs = list(self._binding.ordering[:n])
        else:
            ctxs = [None] * n  # vanilla: the OS decides, nothing pinned
        team = []
        base, extra = divmod(n_iterations, n)
        start = 0
        for tid in range(n):
            size = base + (1 if tid < extra else 0)
            team.append(TeamThread(tid, ctxs[tid], range(start, start + size)))
            start += size
        return team

    # ------------------------------------------------------ parallel for
    def parallel_for(
        self,
        n_iterations: int,
        body: Callable[[int], None],
        n_threads: int | None = None,
    ) -> list[TeamThread]:
        """Run ``body(i)`` for every iteration with static scheduling.

        Returns the team used (the interesting output for placement
        assertions); bodies run in thread order for determinism.
        """
        team = self.current_team(n_iterations, n_threads)
        for member in team:
            for i in member.chunk:
                body(i)
        self.regions_run += 1
        return team
