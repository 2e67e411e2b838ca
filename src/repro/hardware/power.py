"""RAPL-style power model.

Section 4's power plugin measures, on Intel machines, the package and
DRAM power at a handful of calibration points: idle, fully loaded, one
hardware context active, and the *second* context of one core active.
From those four numbers MCTOP can estimate the maximum power draw of
any thread placement (Figure 7's "Max pow" lines), which the POWER
placement policy minimizes and the sim engine integrates into energy.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import MachineModelError
from repro.hardware.machine import Machine


class PowerModel:
    """Estimates power draw of a set of active hardware contexts."""

    def __init__(self, machine: Machine):
        self.machine = machine
        if machine.spec.power is None:
            raise MachineModelError(
                f"{machine.spec.name} has no power instrumentation (RAPL is "
                "Intel-only in the paper and in this model)"
            )
        self.profile = machine.spec.power

    # ------------------------------------------------------------ pieces
    def socket_power(self, active_ctxs_on_socket: Iterable[int],
                     with_dram: bool = False) -> float:
        """Watts drawn by one socket given its active contexts."""
        ctxs = list(active_ctxs_on_socket)
        cores = {self.machine.core_of(c) for c in ctxs}
        return self.socket_watts(len(ctxs), len(cores), with_dram)

    def socket_watts(self, n_ctxs: int, n_cores: int,
                     with_dram: bool = False) -> float:
        """Watts of one socket with ``n_ctxs`` active contexts spread
        over ``n_cores`` distinct cores.

        The sim engine calls this with counts it keeps incrementally;
        the arithmetic and its order are the one definition of socket
        power, so both paths give bit-identical watts.
        """
        p = self.profile
        watts = p.idle_socket
        watts += n_cores * p.first_context
        watts += (n_ctxs - n_cores) * p.extra_context
        if with_dram:
            watts += p.dram_active if n_ctxs else p.dram_idle
        return watts

    def estimate(self, active_ctxs: Iterable[int], with_dram: bool = False,
                 sockets: Iterable[int] | None = None) -> dict[int, float]:
        """Per-socket power estimate for a placement.

        ``sockets`` restricts the report to specific sockets (Figure 7
        lists only the sockets a placement uses); by default every
        socket that has at least one active context is reported.
        """
        per_socket: dict[int, list[int]] = {}
        for ctx in active_ctxs:
            per_socket.setdefault(self.machine.socket_of(ctx), []).append(ctx)
        which = sorted(per_socket) if sockets is None else sorted(sockets)
        return {
            s: self.socket_power(per_socket.get(s, ()), with_dram)
            for s in which
        }

    def total(self, active_ctxs: Iterable[int], with_dram: bool = False) -> float:
        return sum(self.estimate(active_ctxs, with_dram).values())

    # --------------------------------------------------- calibration pts
    def idle_power(self) -> float:
        """Whole-package idle power (all sockets, no DRAM activity)."""
        n = self.machine.spec.n_sockets
        return n * self.profile.idle_socket

    def full_power(self, with_dram: bool = True) -> float:
        """Power with every hardware context active."""
        return self.total(range(self.machine.spec.n_contexts), with_dram)

    def second_context_delta(self) -> float:
        """Increment of activating the SMT sibling of a busy core."""
        core0 = self.machine.contexts_of_core(0)
        if len(core0) < 2:
            return self.profile.first_context
        return self.total(core0[:2]) - self.total(core0[:1])
