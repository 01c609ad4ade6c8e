"""A peripheral's span step against single ticks.

``span(k)`` stands for *k* steady ticks in one call (the kernel's
fast-forward, :mod:`repro.kernel.simulator`): its integer state moves
in closed form, but its energy ledger must still take one addition per
booking, so every float, count and register equals what *k* calls of
``tick()`` leave.
"""

import pytest

from repro.power import PowerState, PowerStateMachine
from repro.soc.rng import HARVEST_CYCLES, TrueRandomNumberGenerator
from repro.soc.timer import TimerUnit
from repro.soc.uart import CTRL, CTRL_ENABLE, DATA, Uart


def _books(peripheral):
    return (repr(peripheral.energy_pj), dict(peripheral.event_counts),
            list(peripheral.registers))


def _span_and_ticks(make, cycles):
    """(spanned, ticked) twins of ``make()``, and the additions the
    span reported."""
    spanned, ticked = make(), make()
    assert _books(spanned) == _books(ticked)
    adds = spanned.span(cycles)
    for _ in range(cycles):
        ticked.tick()
    return spanned, ticked, adds


def _idle_psm():
    # IDLE scales event energy by 0.6: the span must scale it the same
    psm = PowerStateMachine("uart")
    psm.request(PowerState.IDLE)
    return psm


class TestUartSpan:
    @staticmethod
    def _sending(psm=False):
        uart = Uart(0x0)
        if psm:
            uart.attach_power_state_machine(_idle_psm())
        uart.registers[CTRL] = CTRL_ENABLE
        uart.do_write(DATA * 4, 0xF, 0x41)
        uart.do_write(DATA * 4, 0xF, 0x42)
        return uart

    # BAUD 16: a byte leaves on the 16th tick, so 15 are steady
    @pytest.mark.parametrize("cycles", [1, 2, 15])
    @pytest.mark.parametrize("psm", [False, True], ids=["bare", "idle_psm"])
    def test_tx_countdown_from_zero(self, cycles, psm):
        spanned, ticked, adds = _span_and_ticks(
            lambda: self._sending(psm), cycles)
        assert spanned.steady_ticks() is not None
        assert _books(spanned) == _books(ticked)
        assert spanned._tx_countdown == ticked._tx_countdown == 16 - cycles
        assert spanned.transmitted == ticked.transmitted == []
        assert adds == spanned.steady_adds()
        # the byte still leaves on the tick the countdown says
        for twin in (spanned, ticked):
            for _ in range(16 - cycles):
                twin.tick()
        assert spanned.transmitted == ticked.transmitted == [0x41]
        assert _books(spanned) == _books(ticked)

    def test_a_disabled_uart_holds_still(self):
        uart = Uart(0x0)
        books = _books(uart)
        assert uart.span(7) == ()
        assert _books(uart) == books


class TestTimerSpan:
    @staticmethod
    def _two_running():
        timers = TimerUnit(0x0)
        timers.configure(0, 40, irq=True)
        timers.configure(1, 25, auto_reload=False)
        return timers

    # timer 1 expires on the tick after its COUNT reaches 0
    @pytest.mark.parametrize("cycles", [1, 2, 25])
    def test_two_enabled_timers_book_twice_per_tick(self, cycles):
        spanned, ticked, adds = _span_and_ticks(self._two_running, cycles)
        assert len(adds) == 2
        assert _books(spanned) == _books(ticked)
        assert spanned.count(0) == 40 - cycles
        assert spanned.count(1) == 25 - cycles
        assert spanned.overflows == ticked.overflows == [0, 0]
        assert spanned.event_counts["counter_tick"] == 2 * cycles


class TestTrngSpan:
    @staticmethod
    def _harvesting():
        rng = TrueRandomNumberGenerator(0x0)
        for _ in range(5):
            rng.tick()
        return rng

    # 27 ticks of the harvest left; past them the LFSR runs on alone
    @pytest.mark.parametrize("cycles", [1, 2, HARVEST_CYCLES - 6,
                                        HARVEST_CYCLES + 9])
    def test_lfsr_and_harvest_countdown(self, cycles):
        spanned, ticked, _adds = _span_and_ticks(self._harvesting, cycles)
        assert _books(spanned) == _books(ticked)
        assert spanned._state == ticked._state
        assert spanned._harvest_remaining == ticked._harvest_remaining
        assert spanned.ready == ticked.ready == (cycles >= 27)
