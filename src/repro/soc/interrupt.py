"""Interrupt controller of the Figure-1 platform.

A simple level-latched controller with eight lines.  Register map
(word offsets): 0 ``PENDING`` (read: latched lines; write: W1C
acknowledge), 1 ``ENABLE`` (per-line mask).  Peripherals raise lines
through :meth:`raise_irq`; the CPU (or a test) observes
:meth:`active`.
"""

from __future__ import annotations

from .peripheral import Peripheral

PENDING, ENABLE = range(2)

NUM_LINES = 8

#: conventional line assignment on the platform
LINE_TIMER0 = 0
LINE_TIMER1 = 1
LINE_UART = 2
LINE_RNG = 3


class InterruptController(Peripheral):
    """Eight-line latched interrupt controller with W1C acknowledge."""

    ENERGY_COSTS_PJ = dict(Peripheral.ENERGY_COSTS_PJ)
    ENERGY_COSTS_PJ.update({
        "irq_latched": 0.9,
    })

    def __init__(self, base_address: int, name: str = "intc") -> None:
        super().__init__(base_address, 2, name)
        self.total_raised = 0
        self._latched = 0
        self.on_read(PENDING, lambda: self._latched)
        self.on_write(PENDING, self._acknowledge)

    def raise_irq(self, line: int) -> None:
        """Latch interrupt *line* (0..7)."""
        if not 0 <= line < NUM_LINES:
            raise ValueError(f"interrupt line {line} out of range")
        self._latched |= 1 << line
        self.total_raised += 1
        self.book("irq_latched")

    def _acknowledge(self, value: int) -> None:
        # write-one-to-clear; the latch lives outside the register
        # file because the raw write lands there before this hook runs
        self._latched &= ~value

    @property
    def pending_mask(self) -> int:
        return self._latched

    @property
    def enable_mask(self) -> int:
        return self.registers[ENABLE]

    def active(self) -> bool:
        """True when any enabled line is pending."""
        return bool(self.pending_mask & self.enable_mask)
