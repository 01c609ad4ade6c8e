"""The two 16-bit timers of the Figure-1 platform (T0, T1).

Register map (word offsets): per timer ``COUNT``, ``RELOAD``, ``CTRL``
(bit0 enable, bit1 irq enable, bit2 auto reload), laid out as T0 at
offsets 0..2 and T1 at offsets 3..5.  A timer counts down once per
clock cycle; hitting zero raises its interrupt line and either stops
or reloads.
"""

from __future__ import annotations

import typing

from .peripheral import Peripheral

CTRL_ENABLE = 1 << 0
CTRL_IRQ = 1 << 1
CTRL_AUTO_RELOAD = 1 << 2

REGS_PER_TIMER = 3
NUM_TIMERS = 2
COUNT, RELOAD, CTRL = range(REGS_PER_TIMER)


class TimerUnit(Peripheral):
    """Two independent 16-bit down counters with interrupt lines."""

    ENERGY_COSTS_PJ = dict(Peripheral.ENERGY_COSTS_PJ)
    ENERGY_COSTS_PJ.update({
        "counter_tick": 0.05,
        "overflow": 0.6,
    })

    def __init__(self, base_address: int, name: str = "timers",
                 irq_callback: typing.Optional[
                     typing.Callable[[int], None]] = None) -> None:
        super().__init__(base_address, NUM_TIMERS * REGS_PER_TIMER, name)
        self.irq_callback = irq_callback
        self.overflows = [0] * NUM_TIMERS

    # -- register helpers -----------------------------------------------

    def _reg(self, timer: int, which: int) -> int:
        return timer * REGS_PER_TIMER + which

    def count(self, timer: int) -> int:
        return self.registers[self._reg(timer, COUNT)] & 0xFFFF

    def configure(self, timer: int, reload: int, *, enable: bool = True,
                  irq: bool = False, auto_reload: bool = True) -> None:
        """Back-door configuration used by tests and examples."""
        self.registers[self._reg(timer, RELOAD)] = reload & 0xFFFF
        self.registers[self._reg(timer, COUNT)] = reload & 0xFFFF
        ctrl = (CTRL_ENABLE if enable else 0) \
            | (CTRL_IRQ if irq else 0) \
            | (CTRL_AUTO_RELOAD if auto_reload else 0)
        self.registers[self._reg(timer, CTRL)] = ctrl

    # -- behaviour over time ------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while any counter is enabled — gating an enabled timer
        would lose time, so DPM treats running timers as busy."""
        registers = self.registers  # polled every cycle under DPM
        for timer in range(NUM_TIMERS):
            if registers[timer * REGS_PER_TIMER + CTRL] & CTRL_ENABLE:
                return True
        return False

    def steady_ticks(self) -> typing.Optional[int]:
        """Ticks, the next one included, before an enabled timer
        expires; None while :meth:`tick` does nothing (frozen, or no
        timer enabled)."""
        if self._dpm_frozen():
            return None
        registers = self.registers
        steady = None
        for timer in range(NUM_TIMERS):
            base = timer * REGS_PER_TIMER
            if registers[base + CTRL] & CTRL_ENABLE:
                count = registers[base + COUNT] & 0xFFFF
                if steady is None or count < steady:
                    steady = count
        return steady

    def steady_adds(self) -> typing.Tuple[float, ...]:
        """The counter-tick bookings of a :meth:`tick` in which no timer
        expires: one per enabled timer."""
        if self._dpm_frozen():
            return ()
        registers = self.registers
        return tuple(self.event_cost("counter_tick")
                     for timer in range(NUM_TIMERS)
                     if registers[timer * REGS_PER_TIMER + CTRL]
                     & CTRL_ENABLE)

    def span(self, cycles: int) -> typing.Tuple[float, ...]:
        """*cycles* ticks in which no enabled timer expires (see
        :meth:`steady_ticks`): each enabled ``COUNT`` drops by
        *cycles*.  Returns what each tick added to the ledger
        (:meth:`steady_adds`)."""
        adds = self.steady_adds()
        if not adds:
            return adds
        self._book_span("counter_tick", adds, cycles)
        registers = self.registers
        for timer in range(NUM_TIMERS):
            base = timer * REGS_PER_TIMER
            if registers[base + CTRL] & CTRL_ENABLE:
                registers[base + COUNT] = (registers[base + COUNT]
                                           & 0xFFFF) - cycles
        return adds

    def tick(self) -> None:
        if self._dpm_frozen():
            return
        for timer in range(NUM_TIMERS):
            ctrl = self.registers[self._reg(timer, CTRL)]
            if not ctrl & CTRL_ENABLE:
                continue
            count = self.registers[self._reg(timer, COUNT)] & 0xFFFF
            self.book("counter_tick")
            if count > 0:
                self.registers[self._reg(timer, COUNT)] = count - 1
                continue
            # expiry
            self.overflows[timer] += 1
            self.book("overflow")
            if ctrl & CTRL_IRQ and self.irq_callback is not None:
                self.irq_callback(timer)
            if ctrl & CTRL_AUTO_RELOAD:
                self.registers[self._reg(timer, COUNT)] = \
                    self.registers[self._reg(timer, RELOAD)] & 0xFFFF
            else:
                self.registers[self._reg(timer, CTRL)] = \
                    ctrl & ~CTRL_ENABLE
