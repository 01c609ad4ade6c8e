"""The one replay runner: every rung by name, and nothing else.

``run_on_layer`` and the case-study exploration build their buses
through :mod:`repro.soc.layers`, so a layer outside its vocabulary is
an error instead of a silent layer-2 run.  The exploration needs a
clock, so it rejects the untimed layer 3 as well.  A fresh rung's
harness — its simulator, its clock at the replay period and the
Figure-1 map its dynamic slaves count cycles on — comes from
``build_bus`` and ``fresh_memory_map``.
"""

import time

import pytest

from repro.experiments.common import (characterization, evaluation_script,
                                      fresh_memory_map, run_on_layer)
from repro.experiments.table3 import make_script
from repro.javacard import InterfaceConfig, SfrLayout, evaluate_configuration
from repro.javacard.explore import STACK_BASE_NEAR
from repro.ec import MergePattern, data_write
from repro.kernel import Clock, Simulator
from repro.soc import EEPROM_BASE, Eeprom, SmartCardPlatform
from repro.soc.layers import (CLOCK_PERIOD, LAYERS, LayerBus, build_bus,
                              clocked_layer_name)
from repro.tlm import PipelinedMaster, run_script

CHOICES = "layer1, layer2, gate-level"


class TestLayerNames:
    def test_layer1_by_name_is_layer1(self):
        by_name = run_on_layer("layer1", evaluation_script())
        assert by_name.model == "layer1"
        assert by_name.cycles == run_on_layer(1, evaluation_script()).cycles
        assert by_name.cycles != run_on_layer(
            "layer2", evaluation_script()).cycles

    @pytest.mark.parametrize("layer", [0, "l1", "rtl"])
    def test_unknown_layer_rejected(self, layer):
        with pytest.raises(ValueError, match=CHOICES):
            run_on_layer(layer, evaluation_script())

    @pytest.mark.parametrize("layer", [3, "layer3"])
    def test_layer3_replays_untimed_and_unpriced(self, layer):
        script = evaluation_script()
        run = run_on_layer(layer, script, table=characterization().table)
        assert run.model == "layer3"
        assert run.transactions == len(script)
        assert run.cycles == 0
        assert run.energy_pj is None

    @pytest.mark.parametrize("layer", [3, "layer3"])
    def test_exploration_rejects_unknown_layer(self, layer):
        config = InterfaceConfig("probe", SfrLayout.DEDICATED,
                                 STACK_BASE_NEAR, MergePattern.HALFWORD)
        with pytest.raises(ValueError, match=CHOICES):
            evaluate_configuration(config, characterization().table,
                                   bus_layer=layer)


class TestLayer3Rung:
    def test_build_bus_needs_no_clock_and_prices_nothing(self):
        from repro.tlm import EcBusLayer3
        layer_bus = build_bus(3, None, None, fresh_memory_map(),
                              table=characterization().table)
        assert isinstance(layer_bus.bus, EcBusLayer3)
        assert layer_bus.layer == "layer3"
        assert layer_bus.energy_pj() is None
        assert layer_bus.simulator is None and layer_bus.clock is None

    def test_build_bus_rejects_a_model_or_recorder(self):
        from repro.power import SignalStateRecorder
        with pytest.raises(ValueError, match="unpriced"):
            build_bus("layer3", None, None, fresh_memory_map(),
                      power_model=object())
        with pytest.raises(ValueError, match="waveform"):
            build_bus("layer3", None, None, fresh_memory_map(),
                      recorder=SignalStateRecorder())

    @pytest.mark.parametrize("layer", [3, "layer3"])
    def test_clocked_callers_reject_layer3(self, layer):
        with pytest.raises(ValueError, match="untimed"):
            clocked_layer_name(layer)
        assert clocked_layer_name(2) == "layer2"


class TestFreshHarness:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_clocked_rung_gets_its_own_simulator_and_clock(self, layer):
        first = build_bus(layer, None, None, fresh_memory_map())
        second = build_bus(layer, None, None, fresh_memory_map())
        assert isinstance(first.simulator, Simulator)
        assert isinstance(first.clock, Clock)
        assert first.clock.simulator is first.simulator
        assert first.clock.period == CLOCK_PERIOD
        assert first.simulator is not second.simulator
        assert first.simulator.now == 0

    @pytest.mark.parametrize("layer", LAYERS)
    def test_a_given_simulator_and_clock_are_used(self, layer):
        simulator = Simulator("card")
        clock = Clock(simulator, "clk", period=2 * CLOCK_PERIOD)
        layer_bus = build_bus(layer, simulator, clock, fresh_memory_map())
        assert layer_bus.simulator is simulator
        assert layer_bus.clock is clock

    @pytest.mark.parametrize("layer", LAYERS + ("layer3",))
    def test_one_of_simulator_and_clock_is_rejected(self, layer):
        simulator = Simulator("half")
        clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
        with pytest.raises(ValueError, match="or neither"):
            build_bus(layer, simulator, None, fresh_memory_map())
        with pytest.raises(ValueError, match="or neither"):
            build_bus(layer, None, clock, fresh_memory_map())

    def test_fresh_memory_map_matches_the_card_and_builds_no_simulator(
            self, monkeypatch):
        card = SmartCardPlatform(bus_layer=1).memory_map

        def no_simulator(*args, **kwargs):
            raise AssertionError("fresh_memory_map built a Simulator")

        monkeypatch.setattr(Simulator, "__init__", no_simulator)
        fresh = fresh_memory_map()
        monkeypatch.undo()

        def regions(memory_map):
            return [(region.name, region.base, region.end,
                     type(region.slave), region.slave.wait_states,
                     region.slave.access_rights)
                    for region in memory_map.regions]

        assert regions(fresh) == regions(card)
        assert len(fresh.regions) == 8
        assert not {id(region.slave) for region in fresh.regions} & {
            id(region.slave) for region in card.regions}

    @pytest.mark.parametrize("layer", LAYERS)
    def test_eeprom_busy_window_closes_on_the_built_bus(self, layer):
        layer_bus = build_bus(layer, None, None, fresh_memory_map())
        simulator, clock = layer_bus.simulator, layer_bus.clock
        eeprom = layer_bus.bus.memory_map.decode(EEPROM_BASE).slave
        assert isinstance(eeprom, Eeprom)
        master = PipelinedMaster(simulator, clock, layer_bus.bus,
                                 [data_write(EEPROM_BASE, [0x5A5A])])
        run_script(simulator, master, 1_000, clock)
        simulator.run(eeprom.program_cycles * clock.period)
        assert eeprom.programming_operations == 1
        # an EEPROM reading any cycle but this bus's (an unbound one
        # reads 0) would still be programming
        assert layer_bus.bus.cycle > eeprom.program_cycles
        assert not eeprom.busy
        assert eeprom.busy_cycles_left() == 0


class TestPricing:
    @pytest.mark.parametrize("layer", ["layer1", "layer2", "gate-level"])
    def test_unpriced_without_table(self, layer):
        assert run_on_layer(layer, evaluation_script()).energy_pj is None


class TestTiming:
    def test_wall_clock_includes_the_energy_read(self, monkeypatch):
        # the energy read settles deferred work (layer 1's last flush,
        # gate level's Diesel estimate): "with estimation" must time it
        read = LayerBus.energy_pj

        def slow_read(self):
            time.sleep(0.05)
            return read(self)

        monkeypatch.setattr(LayerBus, "energy_pj", slow_read)
        result = run_on_layer("layer1", make_script(10),
                              table=characterization().table)
        assert result.wall_seconds >= 0.05


class TestTable3Stimulus:
    """Every configuration of Table 3 completes its whole script."""

    @pytest.mark.parametrize("layer", ["layer1", "layer2"])
    @pytest.mark.parametrize("estimation", [True, False],
                             ids=["with_est", "without_est"])
    def test_tlm_runs_complete_every_transaction(self, layer, estimation):
        table = characterization().table if estimation else None
        result = run_on_layer(layer, make_script(1_000), table=table)
        assert result.transactions == 1_000

    def test_gate_level_run_completes_every_transaction(self):
        result = run_on_layer("gate-level", make_script(150),
                              table=characterization().table)
        assert result.transactions == 150
