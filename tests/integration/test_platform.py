"""Integration tests of the Figure-1 platform: CPU + bus + memories +
peripherals working together, across bus layers."""

import tracemalloc

import pytest

from repro.ec import AccessRights, data_read, data_write
from repro.power import (FixedTimeoutPolicy, Layer1PowerModel,
                         default_table)
from repro.soc import (EEPROM_BASE, FLASH_BASE, INTC_BASE, RAM_BASE,
                       RNG_BASE, ROM_BASE, SmartCardPlatform, TIMER_BASE,
                       UART_BASE)
from repro.soc.rng import HARVEST_CYCLES
from repro.soc.smartcard import fresh_memory_map
from repro.tlm import BlockingMaster, run_script


class TestMemoryMapStructure:
    """Figure 1: the platform carries every documented component."""

    def test_all_regions_present(self):
        platform = SmartCardPlatform()
        names = {region.name for region in platform.memory_map.regions}
        assert names == {"rom", "flash", "eeprom", "ram", "uart",
                         "timers", "trng", "intc"}

    def test_figure1_memory_sizes(self):
        platform = SmartCardPlatform()
        assert platform.rom.size == 256 * 1024
        assert platform.flash.size == 64 * 1024
        assert platform.eeprom.size == 32 * 1024

    def test_rom_not_writable(self):
        platform = SmartCardPlatform()
        assert not platform.rom.access_rights & AccessRights.WRITE

    def test_bases_decode_to_their_slaves(self):
        platform = SmartCardPlatform()
        expectations = {
            ROM_BASE: "rom", FLASH_BASE: "flash", EEPROM_BASE: "eeprom",
            RAM_BASE: "ram", UART_BASE: "uart", TIMER_BASE: "timers",
            RNG_BASE: "trng", INTC_BASE: "intc",
        }
        for base, name in expectations.items():
            assert platform.memory_map.decode(base).name == name


def allocated_bytes(build):
    """Peak bytes *build* allocates, after one warm-up call has paid
    for imports and caches."""
    build()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCardAllocation:
    """A fresh card holds only the memory words it stores: the Figure-1
    memories span 92,160 words, and a dense per-word array for them
    would cost about 720 KiB per card."""

    def test_memory_map_allocates_under_64_kib(self):
        assert allocated_bytes(fresh_memory_map) < 64 * 1024

    def test_platform_allocates_under_128_kib(self):
        assert allocated_bytes(
            lambda: SmartCardPlatform(bus_layer=1)) < 128 * 1024

    def test_cold_boot_allocates_under_128_kib(self):
        # the boot copies only the stored words of ROM, FLASH and
        # EEPROM, not a per-word image of each memory
        platform = SmartCardPlatform(bus_layer=1)
        platform.rom.load(0, [0x3C1D0030, 0x27BD0100, 0x0C000010])
        platform.flash.poke(0x10, 0xF1A5)
        platform.eeprom.poke(0x40, 0xEE11)
        assert allocated_bytes(platform.cold_boot) < 128 * 1024


class TestTimersOverTime:
    def test_timer_overflow_raises_interrupt(self):
        platform = SmartCardPlatform()
        platform.intc.registers[1] = 0b1  # enable line 0 (timer 0)
        platform.timers.configure(0, reload=10, irq=True)
        platform.run_cycles(30)
        assert platform.timers.overflows[0] >= 1
        assert platform.intc.active()

    def test_two_timers_at_different_rates(self):
        platform = SmartCardPlatform()
        platform.timers.configure(0, reload=5)
        platform.timers.configure(1, reload=20)
        platform.run_cycles(100)
        assert platform.timers.overflows[0] > platform.timers.overflows[1]


class TestRngOverTime:
    def test_rng_harvests_with_platform_clock(self):
        platform = SmartCardPlatform()
        platform.run_cycles(HARVEST_CYCLES + 2)
        assert platform.rng.ready


class TestCpuDrivenPeripherals:
    def test_program_polls_rng_via_bus(self):
        platform = SmartCardPlatform(with_cpu=True)
        platform.load_assembly(f"""
            lui   $s0, {RNG_BASE >> 16:#x}
            ori   $s0, $s0, {RNG_BASE & 0xFFFF:#x}
            lui   $s1, {RAM_BASE >> 16:#x}
        wait:   lw   $t0, 4($s0)       # STATUS
            andi  $t0, $t0, 1
            beq   $t0, $zero, wait
            lw    $t1, 0($s0)          # DATA
            sw    $t1, 0($s1)
            halt
        """)
        platform.cpu.run_to_halt(20_000)
        assert platform.cpu.fault is None
        assert platform.ram.peek(0) != 0
        assert platform.rng.words_delivered == 1

    def test_program_reads_timer_count(self):
        platform = SmartCardPlatform(with_cpu=True)
        platform.timers.configure(0, reload=0xFFFF)
        platform.load_assembly(f"""
            lui   $s0, {TIMER_BASE >> 16:#x}
            ori   $s0, $s0, {TIMER_BASE & 0xFFFF:#x}
            addiu $t2, $zero, 50
        spin:   addiu $t2, $t2, -1
            bne   $t2, $zero, spin
            lw    $t0, 0($s0)          # COUNT of timer 0
            lui   $s1, {RAM_BASE >> 16:#x}
            sw    $t0, 0($s1)
            halt
        """)
        platform.cpu.run_to_halt(20_000)
        count = platform.ram.peek(0)
        assert 0 < count < 0xFFFF  # counted down but not expired


class TestPlatformEnergy:
    def test_peripheral_energy_accumulates(self):
        platform = SmartCardPlatform()
        platform.uart.registers[2] = 1  # enable
        platform.timers.configure(0, reload=4)
        platform.run_cycles(50)
        assert platform.peripheral_energy_pj > 0

    def test_bus_energy_with_power_model(self):
        model = Layer1PowerModel(default_table())
        platform = SmartCardPlatform(bus_layer=1, power_model=model,
                                     with_cpu=True)
        platform.load_assembly("""
            addiu $t0, $zero, 5
            halt
        """)
        platform.cpu.run_to_halt(10_000)
        assert model.total_energy_pj > 0


class TestLayerChoice:
    @pytest.mark.parametrize("layer", [1, 2, "layer1", "layer2",
                                       "gate-level"])
    def test_layer_selector(self, layer):
        platform = SmartCardPlatform(bus_layer=layer)
        assert platform.bus is not None
        assert platform.layer_bus.energy_pj() is None  # unpriced

    def test_gate_level_card_runs_the_rtl_bus(self):
        from repro.rtl import RtlBus
        platform = SmartCardPlatform(bus_layer="gate-level")
        assert isinstance(platform.bus, RtlBus)

    def test_gate_level_needs_the_flat_card(self):
        with pytest.raises(ValueError, match="gate level"):
            SmartCardPlatform(bus_layer="gate-level", topology="two_segment")

    @pytest.mark.parametrize("layer", [0, "l1", "rtl"])
    def test_unknown_layer_rejected(self, layer):
        with pytest.raises(ValueError, match="layer1, layer2, gate-level"):
            SmartCardPlatform(bus_layer=layer)

    @pytest.mark.parametrize("layer", [3, "layer3"])
    def test_layer3_card_is_untimed_and_unpriced(self, layer):
        from repro.tlm import EcBusLayer3, MessageRun
        platform = SmartCardPlatform(bus_layer=layer,
                                     table=default_table(),
                                     topology="two_segment")
        assert isinstance(platform.bus, EcBusLayer3)
        assert platform.layer_bus.layer == "layer3"
        run = MessageRun(platform.cpu_interface,
                         [data_write(RAM_BASE, [0x1234]),
                          data_read(RAM_BASE), data_read(UART_BASE + 4)])
        assert [t.error for t in run.completed] == [False] * 3
        assert run.completed[1].data == [0x1234]
        assert platform.layer_bus.energy_pj() is None
        assert platform.fabric.bridge("bridge").messages_forwarded == 1
        report = platform.energy_report()
        assert report.balanced and report.buckets["bus:cpu"] == 0.0

    def test_layer3_card_has_no_arbiter_for_a_dma(self):
        with pytest.raises(ValueError, match="untimed"):
            SmartCardPlatform(bus_layer="layer3", with_dma=True)

    @pytest.mark.parametrize("layer", ["layer1", "layer2", "gate-level"])
    def test_cold_boot_prices_each_boot_separately(self, layer):
        table = default_table()
        platform = SmartCardPlatform(bus_layer=layer, table=table)
        master = BlockingMaster(platform.simulator, platform.clock,
                                platform.bus,
                                [data_write(RAM_BASE, [0x1234])])
        run_script(platform.simulator, master, 1_000, platform.clock)
        first = platform.layer_bus.energy_pj()
        booted = platform.cold_boot()
        assert booted.layer_bus.power_model is not \
            platform.layer_bus.power_model
        assert first > 0
        assert booted.layer_bus.energy_pj() < first


class TestAttachPower:
    """The one DPM stack recipe: composite, supply, domain, governor,
    PSMs and controller, in that order."""

    def _card(self):
        platform = SmartCardPlatform(bus_layer=1, table=default_table())
        return platform, platform.attach_power(FixedTimeoutPolicy())

    def test_every_psm_is_in_the_composite(self):
        platform, stack = self._card()
        assert set(stack.psms) == {"uart", "timers", "trng", "eeprom"}
        assert stack.supply.power_model is stack.composite
        assert stack.composite.ledgers == (platform.energy_ledgers()
                                           + list(stack.psms.values()))

    def test_energy_report_balances_with_the_psms(self):
        platform, stack = self._card()
        master = BlockingMaster(platform.simulator, platform.clock,
                                platform.bus,
                                [data_write(EEPROM_BASE, [0x1234]),
                                 data_read(RAM_BASE, burst_length=4)])
        run_script(platform.simulator, master, 5_000, platform.clock)
        platform.run_cycles(500)  # long enough for idle peripherals to gate
        psms = list(stack.psms.values())
        assert sum(psm.energy_pj for psm in psms) > 0.0
        report = platform.fabric.energy_report(platform.energy_ledgers()
                                               + psms)
        assert report.balanced
        assert report.probe_total_pj == stack.composite.total_energy_pj

    def test_the_domain_ticks_before_the_controller(self):
        platform, stack = self._card()
        order = []
        step, tick = stack.supply.step, stack.governor.tick
        span, governor_span = stack.supply.span, stack.governor.span
        stack.supply.step = lambda cycle: (order.append("domain"),
                                           step(cycle))
        stack.governor.tick = lambda: (order.append("governor"), tick())
        # steady cycles (the kernel's fast-forward) advance both by a
        # span at a time
        stack.supply.span = lambda drains, cycle: (
            order.append("domain"), span(drains, cycle))
        stack.governor.span = lambda cycles, serial: (
            order.append("governor"), governor_span(cycles, serial))
        platform.run_cycles(5)
        assert len(order) >= 2
        assert order == ["domain", "governor"] * (len(order) // 2)
