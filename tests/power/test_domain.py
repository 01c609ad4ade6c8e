"""Unit tests for the power domain: supply, governor, domain module."""

import random

import pytest

from repro.ec import data_read, data_write, instruction_fetch
from repro.power import (BrownoutEvent, EnergyGovernor, Layer1PowerModel,
                         Layer2PowerModel, PowerDomain, PowerLossEvent,
                         PowerSupply, default_table)
from repro.power.calibration import default_technology_table
from repro.soc import EEPROM_BASE, RAM_BASE, SmartCardPlatform
from repro.tlm import BlockingMaster, run_script

from tests.power.reference_energy import estimate_transaction_energy_pj


class FlatModel:
    """A power model draining a scripted amount per step() call."""

    def __init__(self, per_cycle_pj):
        self.per_cycle_pj = per_cycle_pj
        self.total_energy_pj = 0.0

    def energy_since_last_call_pj(self):
        self.total_energy_pj += self.per_cycle_pj
        return self.per_cycle_pj


class TestPowerSupply:
    def test_harvest_minus_drain_updates_charge(self):
        supply = PowerSupply(FlatModel(3.0), capacity_nj=1.0,
                             harvest_pj_per_cycle=1.0,
                             brownout_nj=0.2, power_loss_nj=0.1)
        supply.step(0)
        assert supply.charge_nj == pytest.approx(1.0 - 2e-3)
        assert supply.drained_pj == pytest.approx(3.0)
        assert supply.harvested_pj == pytest.approx(1.0)
        assert supply.cycles_stepped == 1

    def test_charge_clamped_to_capacity_and_zero(self):
        supply = PowerSupply(FlatModel(0.0), capacity_nj=0.01,
                             harvest_pj_per_cycle=100.0,
                             brownout_nj=0.005, power_loss_nj=0.0)
        supply.step(0)
        assert supply.charge_nj == pytest.approx(0.01)  # capped
        drain = PowerSupply(FlatModel(1000.0), capacity_nj=0.01,
                            harvest_pj_per_cycle=0.0,
                            brownout_nj=0.005, power_loss_nj=0.001)
        drain.step(0)
        assert drain.charge_nj == 0.0  # floored

    def test_brownout_event_is_edge_triggered(self):
        supply = PowerSupply(FlatModel(10.0), capacity_nj=0.1,
                             harvest_pj_per_cycle=0.0,
                             brownout_nj=0.05, power_loss_nj=0.0)
        for cycle in range(8):
            supply.step(cycle)
        assert len(supply.brownouts) == 1
        event = supply.brownouts[0]
        assert isinstance(event, BrownoutEvent)
        assert event.charge_nj < 0.05

    def test_power_loss_event_once(self):
        supply = PowerSupply(FlatModel(30.0), capacity_nj=0.1,
                             harvest_pj_per_cycle=0.0,
                             brownout_nj=0.05, power_loss_nj=0.02)
        for cycle in range(6):
            supply.step(cycle)
        assert len(supply.power_losses) == 1
        assert isinstance(supply.power_losses[0], PowerLossEvent)
        assert supply.powered_down

    def test_headroom_above_brownout_threshold(self):
        supply = PowerSupply(FlatModel(0.0), capacity_nj=0.1,
                             harvest_pj_per_cycle=0.0,
                             brownout_nj=0.04, power_loss_nj=0.0)
        assert supply.headroom_pj() == pytest.approx(60.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PowerSupply(FlatModel(0.0), capacity_nj=1.0,
                        brownout_nj=2.0)  # brownout above capacity
        with pytest.raises(ValueError):
            PowerSupply(FlatModel(0.0), capacity_nj=1.0,
                        brownout_nj=0.1, power_loss_nj=0.5)
        with pytest.raises(ValueError):
            PowerSupply(FlatModel(0.0), capacity_nj=-1.0)


class TestEnergyGovernor:
    def test_grants_when_headroom_covers_cost(self):
        supply = PowerSupply(FlatModel(0.0), capacity_nj=1.0,
                             brownout_nj=0.1, power_loss_nj=0.0)
        governor = EnergyGovernor(supply, default_table())
        assert governor.may_issue(data_read(RAM_BASE))
        assert governor.grants == 1
        assert governor.deferrals == 0

    def test_defers_when_budget_breached(self):
        supply = PowerSupply(FlatModel(0.0), capacity_nj=0.011,
                             brownout_nj=0.01, power_loss_nj=0.0)
        governor = EnergyGovernor(supply, default_table())
        # 1 pJ of headroom cannot cover any transaction
        assert not governor.may_issue(data_write(RAM_BASE, [0xFFFF]))
        assert governor.deferrals == 1

    def test_margin_tightens_the_budget(self):
        supply = PowerSupply(FlatModel(0.0), capacity_nj=0.05,
                             brownout_nj=0.0, power_loss_nj=0.0)
        txn = data_read(RAM_BASE)
        cost = estimate_transaction_energy_pj(default_table(), txn)
        loose = EnergyGovernor(supply, default_table(), margin_nj=0.0)
        tight = EnergyGovernor(supply, default_table(),
                               margin_nj=(50.0 - cost + 1.0) / 1e3)
        assert loose.may_issue(txn)
        assert not tight.may_issue(txn)

    def test_estimate_is_deterministic_and_positive(self):
        price = Layer2PowerModel(default_table()).projected_energy_pj
        txn = data_write(EEPROM_BASE, [0xDEADBEEF, 0x12345678])
        first = price(txn)
        assert first == price(txn)
        assert first > 0.0
        single = price(data_write(EEPROM_BASE, [0xDEADBEEF]))
        assert first > single  # burst costs more than a single

    def test_projection_books_nothing(self):
        model = Layer2PowerModel(default_table())
        model.projected_energy_pj(data_read(RAM_BASE, burst_length=4))
        assert model.total_energy_pj == 0.0
        assert model.address_phases == model.data_phases == 0


def _seeded_transactions(seed, count=300):
    """Reads, writes and instruction fetches, bursts 1/2/4, random
    addresses and payloads."""
    rng = random.Random(seed)
    for _ in range(count):
        burst = rng.choice((1, 2, 4))
        address = RAM_BASE + 16 * rng.randrange(256)
        kind = rng.randrange(3)
        if kind == 0:
            yield data_read(address, burst_length=burst)
        elif kind == 1:
            yield instruction_fetch(address, burst_length=burst)
        else:
            yield data_write(address, [rng.getrandbits(32)
                                       for _ in range(burst)])


class TestGovernorProjection:
    """The governor prices through layer 2's compiled constants; the
    live-lookup estimate it replaced is the oracle, float for float."""

    @pytest.mark.parametrize("table", [
        default_table(),
        default_technology_table().calibrate(default_table(),
                                             node_nm=130.0, vdd=1.8),
    ], ids=["default", "130nm-1.8V"])
    def test_projection_equals_the_live_lookup_estimate(self, table):
        supply = PowerSupply(FlatModel(0.0))
        governor = EnergyGovernor(supply, table)
        for txn in _seeded_transactions(f"projection/{table.source}"):
            assert governor._price(txn) == \
                estimate_transaction_energy_pj(table, txn)


class TestPowerDomain:
    def workload(self):
        return [data_write(EEPROM_BASE + 0x100 + 4 * i, [0xA5A5A5A5])
                for i in range(8)]

    def test_supply_steps_with_the_bus(self):
        model = Layer1PowerModel(default_table())
        platform = SmartCardPlatform(bus_layer=1, power_model=model)
        supply = PowerSupply(model, capacity_nj=50.0,
                             harvest_pj_per_cycle=500.0,
                             brownout_nj=1.0, power_loss_nj=0.0)
        PowerDomain(platform.simulator, platform.clock, platform.bus,
                    supply)
        master = BlockingMaster(platform.simulator, platform.clock,
                                platform.bus, self.workload())
        run_script(platform.simulator, master, 10_000, platform.clock)
        assert master.done
        assert supply.cycles_stepped > 0
        assert supply.drained_pj == pytest.approx(
            model.total_energy_pj)

    def test_generous_supply_never_interferes(self):
        # bit-identical traffic with and without the domain attached
        def run(with_domain):
            model = Layer1PowerModel(default_table())
            platform = SmartCardPlatform(bus_layer=1,
                                         power_model=model)
            if with_domain:
                supply = PowerSupply(model, capacity_nj=1000.0,
                                     harvest_pj_per_cycle=10_000.0,
                                     brownout_nj=1.0,
                                     power_loss_nj=0.0)
                PowerDomain(platform.simulator, platform.clock,
                            platform.bus, supply)
            master = BlockingMaster(platform.simulator, platform.clock,
                                    platform.bus, self.workload())
            cycles = run_script(platform.simulator, master, 10_000,
                                platform.clock)
            return cycles, model.total_energy_pj

        assert run(False) == run(True)

    def test_power_loss_halts_the_card(self):
        model = Layer1PowerModel(default_table())
        platform = SmartCardPlatform(bus_layer=1, power_model=model)
        supply = PowerSupply(model, capacity_nj=0.02,
                             harvest_pj_per_cycle=0.0,
                             brownout_nj=0.01, power_loss_nj=0.005)
        PowerDomain(platform.simulator, platform.clock, platform.bus,
                    supply)
        master = BlockingMaster(platform.simulator, platform.clock,
                                platform.bus, self.workload())
        run_script(platform.simulator, master, 10_000, platform.clock)
        assert platform.simulator.powered_off
        assert not master.done
        assert "supply exhausted" in platform.simulator.power_off_reason

    def test_halt_opt_out_keeps_running(self):
        model = Layer1PowerModel(default_table())
        platform = SmartCardPlatform(bus_layer=1, power_model=model)
        supply = PowerSupply(model, capacity_nj=0.02,
                             harvest_pj_per_cycle=0.0,
                             brownout_nj=0.01, power_loss_nj=0.005)
        PowerDomain(platform.simulator, platform.clock, platform.bus,
                    supply, halt_on_power_loss=False)
        master = BlockingMaster(platform.simulator, platform.clock,
                                platform.bus, self.workload())
        run_script(platform.simulator, master, 10_000, platform.clock)
        assert master.done
        assert not platform.simulator.powered_off
        assert supply.power_losses  # the event still fired


class TestGovernedMasters:
    def test_governed_run_defers_and_completes(self):
        table = default_table()
        model = Layer1PowerModel(table)
        platform = SmartCardPlatform(bus_layer=1, power_model=model)
        supply = PowerSupply(model, capacity_nj=0.1,
                             harvest_pj_per_cycle=2.0,
                             brownout_nj=0.05, power_loss_nj=0.0)
        PowerDomain(platform.simulator, platform.clock, platform.bus,
                    supply, halt_on_power_loss=False)
        governor = EnergyGovernor(supply, table, margin_nj=0.02)
        script = [data_write(EEPROM_BASE + 0x100 + 4 * i,
                             [0xFFFFFFFF])
                  for i in range(10)]
        master = BlockingMaster(platform.simulator, platform.clock,
                                platform.bus, script,
                                governor=governor)
        run_script(platform.simulator, master, 100_000, platform.clock)
        assert master.done
        assert governor.deferrals > 0
        assert governor.grants == len(script)
