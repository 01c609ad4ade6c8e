"""UART peripheral of the Figure-1 smart card platform.

Register map (word offsets):

= =========== ==============================================
0 ``DATA``    write: enqueue TX byte; read: dequeue RX byte
1 ``STATUS``  bit0 TX_EMPTY, bit1 RX_AVAIL, bit2 TX_FULL,
              bit3 RX_OVERRUN (sticky until STATUS is read)
2 ``CTRL``    bit0 enable, bit1 rx_irq_enable
3 ``BAUD``    clock divider (cycles per byte time)
= =========== ==============================================

Transmission is modelled at byte granularity: a byte leaves the TX
FIFO every ``BAUD`` ticks.  The wire side (a test bench, or the T=1
link layer's :class:`~repro.link.T1Host`) injects received bytes with
:meth:`receive_byte`; completed transmissions land in
:attr:`transmitted`.

Reception is gated the way the silicon is: the RX FIFO is bounded at
``FIFO_DEPTH`` (a byte arriving into a full FIFO is dropped and sets
the sticky ``RX_OVERRUN`` status bit), a DPM-frozen receiver has no
sampling clock — the byte is lost on the wire, though the line edge
still counts as wake-worthy activity for the power state machine —
and a receiver that is merely not yet enabled latches the byte for
later without burning reception energy or raising the RX interrupt.
"""

from __future__ import annotations

import collections
import typing

from repro.kernel import STEADY_FOREVER

from .peripheral import Peripheral

DATA, STATUS, CTRL, BAUD = range(4)

STATUS_TX_EMPTY = 1 << 0
STATUS_RX_AVAIL = 1 << 1
STATUS_TX_FULL = 1 << 2
STATUS_RX_OVERRUN = 1 << 3

CTRL_ENABLE = 1 << 0
CTRL_RX_IRQ = 1 << 1

FIFO_DEPTH = 8


class Uart(Peripheral):
    """Byte-level UART with TX/RX FIFOs and an interrupt line."""

    ENERGY_COSTS_PJ = dict(Peripheral.ENERGY_COSTS_PJ)
    ENERGY_COSTS_PJ.update({
        "byte_transmitted": 18.0,   # pad driver + shift register
        "byte_received": 12.0,
        "idle_cycle": 0.02,
    })

    def __init__(self, base_address: int, name: str = "uart",
                 irq_callback: typing.Optional[
                     typing.Callable[[], None]] = None) -> None:
        super().__init__(base_address, 4, name)
        self.tx_fifo: typing.Deque[int] = collections.deque()
        self.rx_fifo: typing.Deque[int] = collections.deque()
        self.transmitted: typing.List[int] = []
        self.irq_callback = irq_callback
        self._tx_countdown = 0
        self._rx_overrun = False
        self.rx_overruns = 0
        self.rx_dropped_gated = 0
        self.registers[BAUD] = 16
        self.on_read(DATA, self._read_data)
        self.on_read(STATUS, self._read_status)
        self.on_write(DATA, self._write_data)

    # -- register behaviour ---------------------------------------------

    def _read_data(self) -> int:
        if self.rx_fifo:
            return self.rx_fifo.popleft()
        return 0

    def _read_status(self) -> int:
        status = 0
        if not self.tx_fifo:
            status |= STATUS_TX_EMPTY
        if self.rx_fifo:
            status |= STATUS_RX_AVAIL
        if len(self.tx_fifo) >= FIFO_DEPTH:
            status |= STATUS_TX_FULL
        if self._rx_overrun:
            status |= STATUS_RX_OVERRUN
            self._rx_overrun = False
        return status

    def _write_data(self, value: int) -> None:
        if len(self.tx_fifo) < FIFO_DEPTH:
            self.tx_fifo.append(value & 0xFF)

    # -- behaviour over time ------------------------------------------------

    @property
    def enabled(self) -> bool:
        return bool(self.registers[CTRL] & CTRL_ENABLE)

    @property
    def busy(self) -> bool:
        """True while bytes are queued in either direction."""
        return bool(self.tx_fifo or self.rx_fifo)

    def tick(self) -> None:
        if not self.enabled or self._dpm_frozen():
            return
        self.book("idle_cycle")
        if self.tx_fifo:
            if self._tx_countdown == 0:
                self._tx_countdown = max(self.registers[BAUD], 1)
            self._tx_countdown -= 1
            if self._tx_countdown == 0:
                self.transmitted.append(self.tx_fifo.popleft())
                self.book("byte_transmitted")

    def steady_adds(self) -> typing.Tuple[float, ...]:
        """The idle-cycle booking of a :meth:`tick` that sends nothing
        (none while :meth:`tick` does nothing at all)."""
        if not self.registers[CTRL] & CTRL_ENABLE or self._dpm_frozen():
            return ()
        return (self.event_cost("idle_cycle"),)

    def span(self, cycles: int) -> typing.Tuple[float, ...]:
        """*cycles* ticks in which no byte leaves the TX FIFO (see
        :meth:`steady_ticks`); returns what each added to the ledger
        (:meth:`steady_adds`)."""
        adds = self.steady_adds()
        if not adds:
            return adds
        self._book_span("idle_cycle", adds, cycles)
        if self.tx_fifo:
            self._tx_countdown = (self._tx_countdown
                                  or max(self.registers[BAUD], 1)) - cycles
        return adds

    def steady_ticks(self) -> typing.Optional[int]:
        """Ticks, the next one included, before a byte leaves the TX
        FIFO (:data:`~repro.kernel.STEADY_FOREVER` when none is
        queued); None while :meth:`tick` does nothing at all."""
        if not self.registers[CTRL] & CTRL_ENABLE or self._dpm_frozen():
            return None
        if not self.tx_fifo:
            return STEADY_FOREVER
        return (self._tx_countdown or max(self.registers[BAUD], 1)) - 1

    def receive_byte(self, value: int) -> None:
        """Wire side: a byte arrives at the RX pad."""
        if self._dpm_frozen():
            # No sampling clock — the byte is lost on the wire, but the
            # line edge is wake-worthy activity for the governor.
            self.rx_dropped_gated += 1
            if self._psm is not None:
                self._psm.notify_activity()
            return
        if len(self.rx_fifo) >= FIFO_DEPTH:
            self._rx_overrun = True
            self.rx_overruns += 1
            if self.enabled:
                # the shift register still clocked the byte in before
                # discovering there was nowhere to put it
                self.book("byte_received")
            return
        self.rx_fifo.append(value & 0xFF)
        if not self.enabled:
            # latched for later (benches queue bytes before firmware
            # enables the UART) but no reception energy, no IRQ
            return
        self.book("byte_received")
        if self._psm is not None:
            self._psm.notify_activity()
        if (self.registers[CTRL] & CTRL_RX_IRQ
                and self.irq_callback is not None):
            self.irq_callback()
