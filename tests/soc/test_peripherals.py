"""Unit tests for memories and peripherals: wait-state dynamics,
UART/timer/RNG/interrupt behaviour and the per-event energy ledgers."""

import pytest

from repro.ec import AccessRights, SlaveResponse, WaitStates
from repro.soc.interrupt import InterruptController, PENDING, ENABLE
from repro.soc.memory import Eeprom, Flash, Rom, ScratchpadRam
from repro.soc.rng import (HARVEST_CYCLES, TrueRandomNumberGenerator,
                           STATUS_READY)
from repro.soc.timer import TimerUnit
from repro.soc.uart import (CTRL_ENABLE, CTRL_RX_IRQ, FIFO_DEPTH,
                            STATUS_RX_AVAIL, STATUS_RX_OVERRUN,
                            STATUS_TX_EMPTY, Uart)
from repro.soc import uart as uart_regs


class TestRom:
    def test_rights(self):
        rom = Rom(0x0)
        assert rom.access_rights == (AccessRights.READ
                                     | AccessRights.EXECUTE)

    def test_direct_write_refused(self):
        rom = Rom(0x0)
        response = rom.do_write(0, 0b1111, 1)
        assert response.state.value == "error"

    def test_default_size(self):
        assert Rom(0x0).size == 256 * 1024


class TestEeprom:
    def test_base_wait_states(self):
        eeprom = Eeprom(0x0)
        assert eeprom.wait_states == WaitStates(address=1, read=2, write=3)

    def test_programming_raises_wait_states(self):
        cycle = [0]
        eeprom = Eeprom(0x0, program_cycles=10, busy_extra_waits=4)
        eeprom.bind_cycle_source(lambda: cycle[0])
        eeprom.do_write(0, 0b1111, 42)
        assert eeprom.busy
        assert eeprom.wait_states.read == 2 + 4
        cycle[0] = 11
        assert not eeprom.busy
        assert eeprom.wait_states.read == 2

    def test_programming_counter(self):
        eeprom = Eeprom(0x0)
        eeprom.do_write(0, 0b1111, 1)
        eeprom.do_write(4, 0b1111, 2)
        assert eeprom.programming_operations == 2

    def test_data_persists(self):
        eeprom = Eeprom(0x0)
        eeprom.do_write(8, 0b1111, 0x1234)
        assert eeprom.do_read(8, 0b1111).data == 0x1234


class TestFlash:
    def test_write_counts_programs(self):
        flash = Flash(0x0)
        flash.do_write(0, 0b1111, 7)
        assert flash.program_count == 1
        assert flash.do_read(0, 0b1111).data == 7

    def test_executable(self):
        assert Flash(0x0).access_rights & AccessRights.EXECUTE


class TestUart:
    def make_uart(self):
        uart = Uart(0x0)
        uart.registers[uart_regs.CTRL] = CTRL_ENABLE
        uart.registers[uart_regs.BAUD] = 4
        return uart

    def test_transmit_after_baud_ticks(self):
        uart = self.make_uart()
        uart.do_write(0, 0b1111, 0x55)
        for _ in range(4):
            assert uart.transmitted == []
            uart.tick()
        assert uart.transmitted == [0x55]

    def test_status_bits(self):
        uart = self.make_uart()
        assert uart.do_read(4, 0b1111).data & STATUS_TX_EMPTY
        uart.do_write(0, 0b1111, 1)
        assert not uart.do_read(4, 0b1111).data & STATUS_TX_EMPTY
        uart.receive_byte(0x7F)
        assert uart.do_read(4, 0b1111).data & STATUS_RX_AVAIL

    def test_receive_and_read(self):
        uart = self.make_uart()
        uart.receive_byte(0xAB)
        assert uart.do_read(0, 0b1111).data == 0xAB
        assert uart.do_read(0, 0b1111).data == 0  # fifo empty

    def test_rx_irq_callback(self):
        fired = []
        uart = Uart(0x0, irq_callback=lambda: fired.append(1))
        uart.registers[uart_regs.CTRL] = CTRL_ENABLE | CTRL_RX_IRQ
        uart.receive_byte(1)
        assert fired == [1]

    def test_fifo_depth_limit(self):
        uart = self.make_uart()
        for i in range(12):
            uart.do_write(0, 0b1111, i)
        assert len(uart.tx_fifo) == 8

    def test_energy_ledger_tracks_bytes(self):
        uart = self.make_uart()
        uart.do_write(0, 0b1111, 0x41)
        for _ in range(4):
            uart.tick()
        assert uart.event_counts["byte_transmitted"] == 1
        assert uart.energy_pj > 0

    def test_disabled_uart_does_nothing(self):
        uart = Uart(0x0)
        uart.do_write(0, 0b1111, 0x41)
        for _ in range(50):
            uart.tick()
        assert uart.transmitted == []

    def test_rx_overflow_drops_byte_and_sets_sticky_overrun(self):
        uart = self.make_uart()
        for i in range(FIFO_DEPTH):
            uart.receive_byte(i)
        assert not uart.do_read(4, 0b1111).data & STATUS_RX_OVERRUN
        uart.receive_byte(0xEE)    # ninth byte: nowhere to put it
        assert len(uart.rx_fifo) == FIFO_DEPTH
        assert 0xEE not in uart.rx_fifo
        assert uart.rx_overruns == 1
        # sticky until STATUS is read, then self-clearing
        assert uart.do_read(4, 0b1111).data & STATUS_RX_OVERRUN
        assert not uart.do_read(4, 0b1111).data & STATUS_RX_OVERRUN

    def test_rx_overflow_still_books_reception_energy(self):
        uart = self.make_uart()
        for i in range(FIFO_DEPTH + 2):
            uart.receive_byte(i)
        # the shift register clocked every byte in, full FIFO or not
        assert uart.event_counts["byte_received"] == FIFO_DEPTH + 2
        assert uart.rx_overruns == 2

    def test_disabled_rx_latches_without_energy_or_irq(self):
        fired = []
        uart = Uart(0x0, irq_callback=lambda: fired.append(1))
        uart.registers[uart_regs.CTRL] = CTRL_RX_IRQ   # not enabled
        uart.receive_byte(0x5A)
        # benches queue bytes before firmware enables the UART: the
        # byte is latched for later but costs nothing and raises no IRQ
        assert list(uart.rx_fifo) == [0x5A]
        assert uart.event_counts.get("byte_received", 0) == 0
        assert fired == []


class TestTimers:
    def test_countdown_and_autoreload(self):
        timers = TimerUnit(0x0)
        timers.configure(0, reload=3)
        for _ in range(3):
            timers.tick()
        assert timers.count(0) == 0
        timers.tick()  # expiry: reload
        assert timers.overflows[0] == 1
        assert timers.count(0) == 3

    def test_one_shot_disables_itself(self):
        timers = TimerUnit(0x0)
        timers.configure(1, reload=1, auto_reload=False)
        for _ in range(5):
            timers.tick()
        assert timers.overflows[1] == 1

    def test_irq_callback_line(self):
        lines = []
        timers = TimerUnit(0x0, irq_callback=lines.append)
        timers.configure(0, reload=0, irq=True)
        timers.tick()
        assert lines == [0]

    def test_independent_timers(self):
        timers = TimerUnit(0x0)
        timers.configure(0, reload=2)
        timers.configure(1, reload=5)
        for _ in range(3):
            timers.tick()
        assert timers.overflows == [1, 0]

    def test_energy_per_tick(self):
        timers = TimerUnit(0x0)
        timers.configure(0, reload=10)
        timers.tick()
        assert timers.event_counts["counter_tick"] == 1


class TestRng:
    def test_not_ready_until_harvest(self):
        rng = TrueRandomNumberGenerator(0x0)
        assert rng.do_read(4, 0b1111).data == 0  # STATUS: not ready
        for _ in range(HARVEST_CYCLES):
            rng.tick()
        assert rng.do_read(4, 0b1111).data & STATUS_READY

    def test_read_consumes_word(self):
        rng = TrueRandomNumberGenerator(0x0)
        for _ in range(HARVEST_CYCLES):
            rng.tick()
        first = rng.do_read(0, 0b1111).data
        assert first != 0
        assert not rng.ready  # harvesting again
        assert rng.words_delivered == 1

    def test_deterministic_for_seed(self):
        a = TrueRandomNumberGenerator(0x0, seed=1234)
        b = TrueRandomNumberGenerator(0x0, seed=1234)
        for _ in range(HARVEST_CYCLES):
            a.tick()
            b.tick()
        assert a.do_read(0, 0b1111).data == b.do_read(0, 0b1111).data

    def test_different_seeds_differ(self):
        a = TrueRandomNumberGenerator(0x0, seed=1)
        b = TrueRandomNumberGenerator(0x0, seed=2)
        for _ in range(HARVEST_CYCLES):
            a.tick()
            b.tick()
        assert a.do_read(0, 0b1111).data != b.do_read(0, 0b1111).data

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            TrueRandomNumberGenerator(0x0, seed=0)

    def test_early_read_yields_zero(self):
        rng = TrueRandomNumberGenerator(0x0)
        assert rng.do_read(0, 0b1111).data == 0
        assert rng.words_delivered == 0


class TestInterruptController:
    def test_raise_and_pending(self):
        intc = InterruptController(0x0)
        intc.raise_irq(3)
        assert intc.pending_mask == 0b1000
        assert intc.do_read(PENDING * 4, 0b1111).data == 0b1000

    def test_enable_gating(self):
        intc = InterruptController(0x0)
        intc.raise_irq(2)
        assert not intc.active()
        intc.do_write(ENABLE * 4, 0b1111, 0b0100)
        assert intc.active()

    def test_w1c_acknowledge(self):
        intc = InterruptController(0x0)
        intc.raise_irq(0)
        intc.raise_irq(5)
        intc.do_write(PENDING * 4, 0b1111, 0b1)  # ack line 0 only
        assert intc.pending_mask == 0b100000

    def test_no_active_without_pending(self):
        intc = InterruptController(0x0)
        intc.do_write(ENABLE * 4, 0b1111, 0xFF)
        assert not intc.active()

    def test_line_range_checked(self):
        with pytest.raises(ValueError):
            InterruptController(0x0).raise_irq(8)


class TestScratchpad:
    def test_zero_wait_states(self):
        ram = ScratchpadRam(0x0)
        assert ram.wait_states == WaitStates()

    def test_full_rights(self):
        assert ScratchpadRam(0x0).access_rights is AccessRights.ALL
