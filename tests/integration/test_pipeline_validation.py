"""End-to-end validation of the characterisation → estimation pipeline.

With a *neutral* wire-load model (no rise/fall asymmetry, no
simultaneous-switching penalty) every transition of a wire costs
exactly the same energy, so the paper's abstraction — average energy
per transition — loses nothing.  In that configuration, layer 1
characterised on ANY workload must reproduce the gate-level estimate
of the interface wires + clock EXACTLY, on any other workload; the
whole remaining Table-2 error must equal the layer-1-invisible share
(decoder + datapath + control) to machine precision.

This pins down that the reproduced Table-2 numbers are produced by the
modelled physics, not by accumulation artefacts.
"""

import random

import pytest

from repro.ec import EC_SIGNALS
from repro.power.characterize import build_table, characterize
from repro.power.diesel import InterfaceActivityLog, WireLoadModel
from repro.soc.smartcard import EEPROM_BASE, RAM_BASE, ROM_BASE
from repro.soc.layers import build_bus
from repro.tlm import PipelinedMaster, run_script
from repro.workloads import Window, full_suite, generate_script

from repro.experiments.common import fresh_memory_map


def neutral_wire_load():
    from repro.power.diesel import default_wire_load
    base = default_wire_load()
    return WireLoadModel(base.wire_cap_ff, rise_factor=1.0,
                         fall_factor=1.0,
                         simultaneous_switching_alpha=0.0,
                         datapath_depth=base.datapath_depth,
                         datapath_net_cap_ff=base.datapath_net_cap_ff)


def characterisation_script():
    return full_suite()


def evaluation_script():
    rng = random.Random(123)
    windows = [Window(RAM_BASE, 0x1000), Window(EEPROM_BASE, 0x1000),
               Window(ROM_BASE, 0x1000, executable=True, writable=False)]
    return generate_script(rng, 120, windows)


@pytest.fixture(scope="module")
def neutral_table():
    result = characterize(fresh_memory_map, characterisation_script,
                          wire_load=neutral_wire_load(),
                          source="neutral slopes")
    return result.table


def replay_evaluation(layer_bus):
    """Run the evaluation workload on a fresh rung from ``build_bus``."""
    master = PipelinedMaster(layer_bus.simulator, layer_bus.clock,
                             layer_bus.bus, evaluation_script())
    run_script(layer_bus.simulator, master, 1_000_000, layer_bus.clock)
    return layer_bus


@pytest.fixture(scope="module")
def neutral_rungs(neutral_table):
    """The gate-level Diesel report and the layer-1 energy model of the
    evaluation workload, each replayed on its own fresh Figure-1 map."""
    gate = replay_evaluation(build_bus(
        "gate-level", None, None, fresh_memory_map(),
        power_model=InterfaceActivityLog()))
    layer1 = replay_evaluation(build_bus(
        "layer1", None, None, fresh_memory_map(), table=neutral_table))
    return gate.diesel_report(neutral_wire_load()), layer1.power_model


class TestNeutralPipelineExactness:
    def test_layer1_matches_interface_plus_clock_exactly(
            self, neutral_rungs):
        """Cross-workload: characterise on the EC suite, evaluate on a
        random mix — with neutral slopes the match must be exact."""
        report, model = neutral_rungs
        visible = (report.module_energy_pj["interface"]
                   + report.module_energy_pj["clock"])
        assert model.total_energy_pj == pytest.approx(visible,
                                                      rel=1e-9)

    def test_remaining_error_is_exactly_the_invisible_share(
            self, neutral_rungs):
        """The Table-2 under-estimate equals decoder+datapath+control."""
        report, model = neutral_rungs
        invisible = (report.module_energy_pj["decoder"]
                     + report.module_energy_pj["datapath"]
                     + report.module_energy_pj["control"])
        missing = report.total_energy_pj - model.total_energy_pj
        assert missing == pytest.approx(invisible, rel=1e-9)

    def test_neutral_coefficients_equal_base_energy(self, neutral_table):
        """With neutral slopes the characterised coefficient of every
        exercised signal equals 1/2 C Vdd^2 of its wire exactly."""
        from repro.power.units import transition_energy_pj
        load = neutral_wire_load()
        for spec in EC_SIGNALS:
            expected = transition_energy_pj(load.bit_cap(spec.name))
            assert neutral_table.coefficient(spec.name) == \
                pytest.approx(expected, rel=1e-12), spec.name
