"""The one replay runner: every rung by name, and nothing else.

``run_on_layer`` and the case-study exploration build their buses
through :mod:`repro.soc.layers`, so a layer outside its vocabulary is
an error instead of a silent layer-2 run.
"""

import pytest

from repro.experiments.common import (characterization, evaluation_script,
                                      run_on_layer)
from repro.experiments.table3 import make_script
from repro.javacard import InterfaceConfig, SfrLayout, evaluate_configuration
from repro.javacard.explore import STACK_BASE_NEAR
from repro.ec import MergePattern

CHOICES = "layer1, layer2, gate-level"


class TestLayerNames:
    def test_layer1_by_name_is_layer1(self):
        by_name = run_on_layer("layer1", evaluation_script())
        assert by_name.model == "layer1"
        assert by_name.cycles == run_on_layer(1, evaluation_script()).cycles
        assert by_name.cycles != run_on_layer(
            "layer2", evaluation_script()).cycles

    @pytest.mark.parametrize("layer", [0, 3, "layer3", "l1", "rtl"])
    def test_unknown_layer_rejected(self, layer):
        with pytest.raises(ValueError, match=CHOICES):
            run_on_layer(layer, evaluation_script())

    @pytest.mark.parametrize("layer", [3, "layer3"])
    def test_exploration_rejects_unknown_layer(self, layer):
        config = InterfaceConfig("probe", SfrLayout.DEDICATED,
                                 STACK_BASE_NEAR, MergePattern.HALFWORD)
        with pytest.raises(ValueError, match=CHOICES):
            evaluate_configuration(config, characterization().table,
                                   bus_layer=layer)


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
