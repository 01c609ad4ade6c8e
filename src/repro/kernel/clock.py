"""The two-phase system clock.

``Clock`` generates the clock the paper's models hang off — masters
and slaves trigger on the rising edge, the bus process on the falling
edge (§3.1).  It owns no scheduling of its own: the simulator's cycle
loop advances time edge by edge (see :mod:`repro.kernel.simulator`).
"""

from __future__ import annotations

import typing

from .event import Event
from .module import Process
from .simulator import Simulator


class Clock:
    """A free-running two-phase clock, one per simulator.

    Consumers use :attr:`posedge_event` / :attr:`negedge_event`, the
    paper's rising-edge (masters, slaves) and falling-edge (bus
    process) hooks.  The first edge comes half a period after the
    simulator's first :meth:`~repro.kernel.Simulator.run`: a falling
    one when the clock starts high.
    """

    def __init__(self, simulator: Simulator, name: str, period: int,
                 start_high: bool = True) -> None:
        if period <= 0 or period % 2:
            raise ValueError(
                f"clock period must be positive and even, got {period}")
        self.simulator = simulator
        self.name = name
        self.period = period
        self.half_period = period // 2
        self.start_high = start_high
        self._cycles = 0
        self._posedge_event: typing.Optional[Event] = None
        self._negedge_event: typing.Optional[Event] = None
        self._tick_name = f"{name}.tick"
        #: the SystemC clock driver: its elaboration run arms the first
        #: edge, and it counts one more run per edge
        self._process = Process(simulator, self._arm, f"{name}.driver")
        simulator._register_clock(self)

    def _arm(self) -> None:
        simulator = self.simulator
        simulator._next_edge = simulator.now + self.half_period

    def _edge_event(self, edge: str) -> Event:
        event = Event(self.simulator, f"{self.name}.sig.{edge}", edge=True)
        # a new edge event adds a journal entry to every such edge
        self.simulator._invalidate_plans()
        return event

    @property
    def posedge_event(self) -> Event:
        """Rising-edge event (masters and slaves trigger here)."""
        if self._posedge_event is None:
            self._posedge_event = self._edge_event("posedge")
        return self._posedge_event

    @property
    def negedge_event(self) -> Event:
        """Falling-edge event (the bus process triggers here)."""
        if self._negedge_event is None:
            self._negedge_event = self._edge_event("negedge")
        return self._negedge_event

    @property
    def cycles(self) -> int:
        """Number of rising edges produced so far."""
        return self._cycles

    def read(self) -> bool:
        """Current clock level."""
        edges = max(self._process.run_count - 1, 0)
        return self.start_high ^ bool(edges & 1)

    def __repr__(self) -> str:
        return f"Clock({self.name!r}, period={self.period})"
