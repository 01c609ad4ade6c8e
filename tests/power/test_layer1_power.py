"""Unit tests for the layer-1 (cycle-accurate) energy model, driven
through the real layer-1 bus."""

import pytest

from repro.ec import SignalGroup, data_read, data_write
from repro.kernel import Clock, Simulator
from repro.power import (CharacterizationTable, Layer1PowerModel,
                         SignalStateRecorder, default_table)
from repro.tlm import BlockingMaster, EcBusLayer1, MemorySlave, run_script
from repro.ec import MemoryMap, WaitStates

RAM_BASE = 0x1000


def build_platform(table=None, recorder=None, ram_waits=WaitStates()):
    sim = Simulator("power_test")
    clock = Clock(sim, "clk", period=100)
    memory_map = MemoryMap()
    ram = MemorySlave(RAM_BASE, 0x1000, ram_waits, name="ram")
    memory_map.add_slave(ram, "ram")
    model = Layer1PowerModel(table or default_table(), recorder=recorder)
    bus = EcBusLayer1(sim, clock, memory_map, power_model=model)
    return sim, clock, bus, model, ram


def run(sim, clock, bus, script, max_cycles=1000):
    master = BlockingMaster(sim, clock, bus, script)
    run_script(sim, master, max_cycles, clock)
    return master


class TestEnergyAccounting:
    def test_idle_bus_costs_only_clock_energy(self):
        table = default_table()
        sim, clock, bus, model, _ = build_platform(table)
        sim.run(100 * 50)  # 50 cycles, no traffic
        cycles = bus.cycle
        assert model.total_energy_pj == pytest.approx(
            cycles * table.clock_energy_per_cycle_pj)
        assert model.total_transitions() == 0

    def test_transaction_adds_transitions(self):
        sim, clock, bus, model, _ = build_platform()
        run(sim, clock, bus, [data_write(RAM_BASE, [0xFFFFFFFF])])
        assert model.total_transitions() > 0
        assert model.transition_counts["EB_WData"] == 32  # 0 -> all ones
        assert model.transition_counts["EB_AValid"] == 2  # up and down

    def test_data_dependent_energy(self):
        """Writing denser data costs more write-bus energy."""
        results = {}
        for payload in (0x00000001, 0xFFFFFFFF):
            sim, clock, bus, model, _ = build_platform()
            run(sim, clock, bus, [data_write(RAM_BASE, [payload])])
            results[payload] = model.group_energy_pj[SignalGroup.WRITE]
        assert results[0xFFFFFFFF] > results[0x00000001]

    def test_back_to_back_control_lines_do_not_toggle(self):
        """AValid stays asserted across back-to-back requests — the
        correlation layer 2 cannot see."""
        sim, clock, bus, model, _ = build_platform()
        script = [data_read(RAM_BASE + 4 * i) for i in range(8)]
        run(sim, clock, bus, script)
        # one rise at the start and one fall at the end
        assert model.transition_counts["EB_AValid"] == 2

    def test_energy_last_cycle_interface(self):
        table = default_table()
        sim, clock, bus, model, _ = build_platform(table)
        sim.run(100 * 3)
        assert model.energy_last_cycle_pj() == pytest.approx(
            table.clock_energy_per_cycle_pj)

    def test_energy_since_last_call(self):
        sim, clock, bus, model, _ = build_platform()
        run(sim, clock, bus, [data_read(RAM_BASE)])
        first = model.energy_since_last_call_pj()
        assert first == pytest.approx(model.total_energy_pj)
        assert model.energy_since_last_call_pj() == pytest.approx(0.0)

    def test_group_energies_sum_to_total(self):
        sim, clock, bus, model, _ = build_platform()
        run(sim, clock, bus, [data_write(RAM_BASE, [0x1234, 0x5678]),
                              data_read(RAM_BASE, burst_length=2)])
        assert sum(model.group_energy_pj.values()) == pytest.approx(
            model.total_energy_pj)

    def test_zero_coefficient_table_gives_zero_signal_energy(self):
        table = CharacterizationTable({}, clock_energy_per_cycle_pj=0.0)
        sim, clock, bus, model, _ = build_platform(table)
        run(sim, clock, bus, [data_write(RAM_BASE, [0xFFFF])])
        assert model.total_energy_pj == 0.0
        assert model.total_transitions() > 0  # transitions still counted


class TestRecorder:
    def test_recorder_captures_every_cycle(self):
        recorder = SignalStateRecorder()
        sim, clock, bus, model, _ = build_platform(recorder=recorder)
        run(sim, clock, bus, [data_read(RAM_BASE)])
        assert len(recorder) == bus.cycle
        assert recorder.cycles == list(range(bus.cycle))

    def test_recorded_values_show_protocol(self):
        recorder = SignalStateRecorder()
        sim, clock, bus, model, _ = build_platform(recorder=recorder)
        run(sim, clock, bus, [data_write(RAM_BASE + 8, [0xAB])])
        # find the cycle with AValid asserted
        active = [v for v in recorder.values if v["EB_AValid"]]
        assert len(active) == 1
        assert active[0]["EB_A"] == RAM_BASE + 8
        assert active[0]["EB_Write"] == 1

    def test_read_data_visible_on_rdata(self):
        recorder = SignalStateRecorder()
        sim, clock, bus, model, ram = build_platform(recorder=recorder)
        ram.poke(0x10, 0xDEADBEEF)
        run(sim, clock, bus, [data_read(RAM_BASE + 0x10)])
        valid_cycles = [v for v in recorder.values if v["EB_RdVal"]]
        assert len(valid_cycles) == 1
        assert valid_cycles[0]["EB_RData"] == 0xDEADBEEF


class TestWaitStateSignals:
    def test_ardy_low_during_address_waits(self):
        recorder = SignalStateRecorder()
        sim, clock, bus, model, _ = build_platform(
            recorder=recorder, ram_waits=WaitStates(address=2))
        run(sim, clock, bus, [data_read(RAM_BASE)])
        ardy_low = [v for v in recorder.values
                    if v["EB_AValid"] and not v["EB_ARdy"]]
        assert len(ardy_low) == 2  # two address wait cycles

    def test_rdval_pulses_once_per_beat(self):
        recorder = SignalStateRecorder()
        sim, clock, bus, model, _ = build_platform(
            recorder=recorder, ram_waits=WaitStates(read=1))
        run(sim, clock, bus, [data_read(RAM_BASE, burst_length=4)])
        pulses = sum(v["EB_RdVal"] for v in recorder.values)
        assert pulses == 4


class TestSpan:
    """``span(k)``: *k* more all-idle cycles in one call, against *k*
    idle cycles committed one by one."""

    @staticmethod
    def _after_traffic():
        # a write, then idle cycles the deferred model has not yet
        # accounted: the span must flush them before its first addition
        sim, clock, bus, model, _ = build_platform()
        run(sim, clock, bus, [data_write(RAM_BASE, [0xA5A5_5A5A])])
        sim.run(100 * 3)
        return bus, model

    @staticmethod
    def _books(model):
        return (repr(model.total_energy_pj), model.transition_counts,
                [repr(energy) for energy in model.group_energy_pj.values()],
                repr(model.energy_last_cycle_pj()))

    @pytest.mark.parametrize("cycles", [1, 2, 50])
    def test_span_is_that_many_idle_cycles(self, cycles):
        (_bus, spanned), (bus, ticked) = (self._after_traffic(),
                                          self._after_traffic())
        assert spanned._pending
        adds = spanned.span(cycles)
        for offset in range(cycles):
            ticked.commit_cycle(bus.cycle + offset, None, False, None, 0,
                                None)
        assert self._books(spanned) == self._books(ticked)
        assert adds == spanned.steady_adds() == (
            default_table().clock_energy_per_cycle_pj,)
