"""Events: the clock's edges and journal-only notifications.

The kernel knows two kinds of :class:`Event`:

* a clock *edge* (:attr:`~repro.kernel.Clock.posedge_event`,
  :attr:`~repro.kernel.Clock.negedge_event`) — the only thing a
  process can be statically sensitive to (§3.1: masters and slaves on
  the rising edge, the bus process on the falling edge);
* a *notification* event from :meth:`~repro.kernel.Simulator.event`,
  such as a master's ``done_event``.  Nothing waits on it:
  :meth:`Event.notify_delta` records it in the kernel's journal at the
  end of the current delta cycle, exactly where a SystemC 2.0 delta
  notification without waiters shows in the event trace.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import Process
    from .simulator import Simulator


class Event:
    """A named synchronisation point (see the module docstring)."""

    __slots__ = ("name", "_simulator", "_static_waiters")

    def __init__(self, simulator: "Simulator", name: str = "event", *,
                 edge: bool = False) -> None:
        self.name = name
        self._simulator = simulator
        #: processes triggered by this edge (None: a notification event)
        self._static_waiters: typing.Optional[list] = [] if edge else None

    def add_static_sensitivity(self, process: "Process") -> None:
        """Make *process* run whenever this clock edge fires."""
        waiters = self._static_waiters
        if waiters is None:
            from .simulator import SimulationError
            raise SimulationError(
                f"process {process.name!r} cannot be sensitive to "
                f"{self.name!r}: only clock edges trigger processes")
        if process not in waiters:
            waiters.append(process)
            self._simulator._invalidate_plans()

    def notify_delta(self) -> None:
        """Journal this event at the end of the current delta cycle."""
        self._simulator._notify_delta(self)

    def __repr__(self) -> str:
        return f"Event({self.name!r})"
