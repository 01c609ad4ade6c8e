"""The one replay runner: every rung by name, and nothing else.

``run_on_layer`` and the case-study exploration build their buses
through :mod:`repro.soc.layers`, so a layer outside its vocabulary is
an error instead of a silent layer-2 run.  The exploration needs a
clock, so it rejects the untimed layer 3 as well.
"""

import pytest

from repro.experiments.common import (characterization, evaluation_script,
                                      run_on_layer)
from repro.experiments.table3 import make_script
from repro.javacard import InterfaceConfig, SfrLayout, evaluate_configuration
from repro.javacard.explore import STACK_BASE_NEAR
from repro.ec import MergePattern
from repro.soc.layers import build_bus, clocked_layer_name

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
        from repro.experiments.common import fresh_memory_map
        from repro.tlm import EcBusLayer3
        layer_bus = build_bus(3, None, None, fresh_memory_map(),
                              table=characterization().table)
        assert isinstance(layer_bus.bus, EcBusLayer3)
        assert layer_bus.layer == "layer3"
        assert layer_bus.energy_pj() is None

    def test_build_bus_rejects_a_model_or_recorder(self):
        from repro.experiments.common import fresh_memory_map
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


class TestPricing:
    @pytest.mark.parametrize("layer", ["layer1", "layer2", "gate-level"])
    def test_unpriced_without_table(self, layer):
        assert run_on_layer(layer, evaluation_script()).energy_pj is None


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
