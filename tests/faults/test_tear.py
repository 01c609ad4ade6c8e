"""Whole-card tear injection: clean halts at seeded cycles."""

import pytest

from repro.ec import data_write
from repro.faults import TearInjector, tear_schedule
from repro.soc import EEPROM_BASE, SmartCardPlatform
from repro.tlm import BlockingMaster, run_script


def eeprom_script(count=10):
    return [data_write(EEPROM_BASE + 0x100 + 4 * i, [0xA5A5A5A5])
            for i in range(count)]


class TestTearInjector:
    def test_tears_at_the_scheduled_cycle(self):
        platform = SmartCardPlatform(bus_layer=1)
        injector = TearInjector(platform.simulator, platform.clock,
                                lambda: platform.bus.cycle,
                                at_cycle=20)
        master = BlockingMaster(platform.simulator, platform.clock,
                                platform.bus, eeprom_script())
        cycles = run_script(platform.simulator, master, 10_000,
                            platform.clock)
        assert injector.torn
        assert injector.tear_cycle >= 20
        assert platform.simulator.powered_off
        assert not master.done
        assert cycles < 10_000  # clean return, not a stall

    def test_tear_past_completion_never_fires(self):
        platform = SmartCardPlatform(bus_layer=1)
        injector = TearInjector(platform.simulator, platform.clock,
                                lambda: platform.bus.cycle,
                                at_cycle=10 ** 6)
        master = BlockingMaster(platform.simulator, platform.clock,
                                platform.bus, eeprom_script(3))
        run_script(platform.simulator, master, 10_000, platform.clock)
        assert master.done
        assert not injector.torn
        assert not platform.simulator.powered_off

    def test_run_after_power_off_is_a_noop(self):
        platform = SmartCardPlatform(bus_layer=1)
        TearInjector(platform.simulator, platform.clock,
                     lambda: platform.bus.cycle, at_cycle=5)
        master = BlockingMaster(platform.simulator, platform.clock,
                                platform.bus, eeprom_script())
        run_script(platform.simulator, master, 10_000, platform.clock)
        before = platform.simulator.now
        assert platform.simulator.run(10_000) == 0
        assert platform.simulator.now == before

    def test_validation(self):
        platform = SmartCardPlatform(bus_layer=1)
        source = lambda: platform.bus.cycle  # noqa: E731
        with pytest.raises(TypeError):
            TearInjector(platform.simulator, platform.clock, source)
        with pytest.raises(ValueError):
            TearInjector(platform.simulator, platform.clock, source,
                         at_cycle=-1)


class TestTearSchedule:
    def test_deterministic_per_seed(self):
        assert tear_schedule(7, 50, 1000) == tear_schedule(7, 50, 1000)
        assert tear_schedule(7, 50, 1000) != tear_schedule(8, 50, 1000)

    def test_sorted_and_bounded(self):
        schedule = tear_schedule("s", 100, 500, min_cycle=10)
        assert list(schedule) == sorted(schedule)
        assert all(10 <= cycle <= 500 for cycle in schedule)
        assert len(schedule) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            tear_schedule(1, 0, 100)
        with pytest.raises(ValueError):
            tear_schedule(1, 10, 5, min_cycle=6)
