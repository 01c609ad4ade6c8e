"""True-random-number-generator peripheral (Figure 1).

The real device harvests ring-oscillator jitter; with no physical
entropy available the generator is simulated by a 32-bit Galois LFSR
seeded at construction — deterministic (reproducible tests) while
exercising the same software-visible protocol: poll ``STATUS`` until
READY, then read ``DATA`` to consume one 32-bit word, which starts a
new harvesting interval.

Register map (word offsets): 0 ``DATA``, 1 ``STATUS`` (bit0 READY),
2 ``CTRL`` (bit0 enable).
"""

from __future__ import annotations

import typing

from repro.kernel import STEADY_FOREVER

from .peripheral import Peripheral

DATA, STATUS, CTRL = range(3)

STATUS_READY = 1 << 0
CTRL_ENABLE = 1 << 0

#: taps of the x^32 + x^22 + x^2 + x + 1 polynomial (period 2^32 - 1)
_LFSR_MASK = 0x80200003

#: cycles to harvest one fresh 32-bit word
HARVEST_CYCLES = 32


class TrueRandomNumberGenerator(Peripheral):
    """LFSR-backed stand-in for the smart card TRNG."""

    ENERGY_COSTS_PJ = dict(Peripheral.ENERGY_COSTS_PJ)
    ENERGY_COSTS_PJ.update({
        "harvest_cycle": 0.4,   # free-running oscillators are hungry
        "word_delivered": 2.5,
    })

    def __init__(self, base_address: int, name: str = "trng",
                 seed: int = 0xACE1_2B4D) -> None:
        super().__init__(base_address, 3, name)
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self._state = seed & 0xFFFFFFFF
        self._harvest_remaining = HARVEST_CYCLES
        self.words_delivered = 0
        self.registers[CTRL] = CTRL_ENABLE
        self.on_read(DATA, self._read_data)
        self.on_read(STATUS, self._read_status)

    @property
    def enabled(self) -> bool:
        return bool(self.registers[CTRL] & CTRL_ENABLE)

    @property
    def ready(self) -> bool:
        return self._harvest_remaining == 0

    def _advance_lfsr(self) -> None:
        lsb = self._state & 1
        self._state >>= 1
        if lsb:
            self._state ^= _LFSR_MASK

    def _read_status(self) -> int:
        return STATUS_READY if self.ready else 0

    def _read_data(self) -> int:
        if not self.ready:
            return 0  # reading too early yields nothing, like hardware
        word = self._state
        self.words_delivered += 1
        self.book("word_delivered")
        self._harvest_remaining = HARVEST_CYCLES
        return word

    @property
    def busy(self) -> bool:
        """True while a harvest is still filling the entropy word."""
        return self.enabled and self._harvest_remaining > 0

    def steady_ticks(self) -> typing.Optional[int]:
        """Ticks, the next one included, before a harvest completes
        and :attr:`busy` drops (:data:`~repro.kernel.STEADY_FOREVER`
        when none is running); None while :meth:`tick` does nothing."""
        if not self.registers[CTRL] & CTRL_ENABLE or self._dpm_frozen():
            return None
        if not self._harvest_remaining:
            return STEADY_FOREVER
        return self._harvest_remaining - 1

    def steady_adds(self) -> typing.Tuple[float, ...]:
        """The harvest-cycle booking of a :meth:`tick` (none while it
        does nothing)."""
        if not self.registers[CTRL] & CTRL_ENABLE or self._dpm_frozen():
            return ()
        return (self.event_cost("harvest_cycle"),)

    def span(self, cycles: int) -> typing.Tuple[float, ...]:
        """*cycles* ticks: the LFSR steps once per tick and a harvest
        counts down.  Returns what each tick added to the ledger
        (:meth:`steady_adds`)."""
        adds = self.steady_adds()
        if not adds:
            return adds
        self._book_span("harvest_cycle", adds, cycles)
        state = self._state
        for _ in range(cycles):
            state = (state >> 1) ^ _LFSR_MASK if state & 1 else state >> 1
        self._state = state
        self._harvest_remaining = max(self._harvest_remaining - cycles, 0)
        return adds

    def tick(self) -> None:
        if not self.enabled or self._dpm_frozen():
            return
        self._advance_lfsr()
        self.book("harvest_cycle")
        if self._harvest_remaining > 0:
            self._harvest_remaining -= 1
