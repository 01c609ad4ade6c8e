"""Base class for smart card peripherals with activity-based energy.

The paper's conclusion announces "an early energy estimation for
several different typical smart card components, like random number
generators, UARTs or timers" as future work; here each peripheral
books energy per architectural event (register access, byte moved,
counter tick...), the natural peripheral-level analogue of the bus
models' per-transition coefficients.
"""

from __future__ import annotations

import functools
import operator
import typing

from repro.ec import AccessRights, WaitStates
from repro.tlm.slave import RegisterSlave


class Peripheral(RegisterSlave):
    """A register-mapped peripheral with an energy ledger."""

    #: pJ charged per architectural event; subclasses extend this
    ENERGY_COSTS_PJ: typing.Dict[str, float] = {
        "register_read": 0.8,
        "register_write": 1.0,
    }

    def __init__(self, base_address: int, num_registers: int,
                 name: str, wait_states: WaitStates = WaitStates(),
                 access_rights: AccessRights = (AccessRights.READ
                                                | AccessRights.WRITE)
                 ) -> None:
        super().__init__(base_address, num_registers, wait_states,
                         access_rights, name)
        self.energy_pj = 0.0
        self.event_counts: typing.Dict[str, int] = {}
        self._psm = None
        #: set by the platform's span step (see
        #: :mod:`repro.power.interfaces`)
        self.span_start: typing.Optional[tuple] = None

    def attach_power_state_machine(self, psm) -> None:
        """Manage this peripheral with *psm*
        (:class:`~repro.power.PowerStateMachine`); ``None`` detaches.

        While attached, dynamic event energy is scaled by the current
        state, the functional ``tick()`` freezes in CLOCK_GATED/SLEEP,
        and a bus access arriving in those states wakes the device and
        pays the state's wake latency as extra wait states.  With no
        PSM attached every code path is bit-identical to the
        unmanaged peripheral.
        """
        self._psm = psm

    @property
    def power_state_machine(self):
        return self._psm

    @property
    def wait_states(self) -> WaitStates:
        base = self._wait_states
        if self._psm is None:
            return base
        extra = self._psm.wake()
        if not extra:
            return base
        return WaitStates(address=base.address, read=base.read + extra,
                          write=base.write + extra)

    @wait_states.setter
    def wait_states(self, value: WaitStates) -> None:
        self._wait_states = value

    def _dpm_frozen(self) -> bool:
        """True while an attached PSM has stopped the functional clock
        (the peripheral's ``tick()`` must not advance)."""
        return self._psm is not None and not self._psm.clock_running

    def event_cost(self, event: str) -> float:
        """pJ one *event* costs now (scaled by the PSM's state)."""
        cost = self.ENERGY_COSTS_PJ.get(event)
        if cost is None:
            raise KeyError(f"{self.name}: unknown energy event {event!r}")
        if self._psm is not None:
            cost = cost * self._psm.event_scale()
        return cost

    def book(self, event: str, count: int = 1) -> None:
        """Charge *count* occurrences of *event* to the ledger."""
        self.energy_pj += self.event_cost(event) * count
        self._count(event, count)

    def _count(self, event: str, count: int) -> None:
        self.event_counts[event] = self.event_counts.get(event, 0) + count

    def _book_span(self, event: str, adds: typing.Tuple[float, ...],
                   cycles: int) -> None:
        """*cycles* ticks that each book *event* once per entry of
        *adds* (its cost): one addition per booking, in order, as
        :meth:`book` makes them."""
        self.energy_pj = functools.reduce(operator.add, adds * cycles,
                                          self.energy_pj)
        self._count(event, cycles * len(adds))

    def do_read(self, offset: int, byte_enables: int):
        if self._psm is not None:
            self._psm.notify_activity()
        self.book("register_read")
        return super().do_read(offset, byte_enables)

    def do_write(self, offset: int, byte_enables: int, data: int):
        if self._psm is not None:
            self._psm.notify_activity()
        self.book("register_write")
        return super().do_write(offset, byte_enables, data)

    def tick(self) -> None:
        """Advance one clock cycle (called by the platform)."""
