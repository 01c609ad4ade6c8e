"""Tests for the EC-spec verification sequences: every sequence must
complete successfully on both TLM layers and the gate-level bus."""

import pytest

from repro.ec import BusState, Transaction
from repro.soc.layers import build_bus
from repro.soc.smartcard import fresh_memory_map
from repro.tlm import PipelinedMaster, run_script
from repro.workloads import ALL_SEQUENCES, full_suite


def run_sequence(script, layer):
    layer_bus = build_bus(layer, None, None, fresh_memory_map())
    simulator, clock = layer_bus.simulator, layer_bus.clock
    master = PipelinedMaster(simulator, clock, layer_bus.bus, script)
    run_script(simulator, master, 100_000, clock)
    return master


#: test id -> rung
BUS_LAYERS = {
    "layer1": "layer1",
    "layer2": "layer2",
    "rtl": "gate-level",
}


class TestSequences:
    @pytest.mark.parametrize("sequence_name", sorted(ALL_SEQUENCES))
    @pytest.mark.parametrize("bus_name", sorted(BUS_LAYERS))
    def test_sequence_completes_without_errors(self, sequence_name,
                                               bus_name):
        script = ALL_SEQUENCES[sequence_name]()
        master = run_sequence(script, BUS_LAYERS[bus_name])
        assert master.done
        assert not master.errors, (sequence_name, bus_name)
        assert all(t.state is BusState.OK for t in master.completed)

    def test_full_suite_concatenates_everything(self):
        suite = full_suite()
        individual = sum(len(factory()) for factory in
                         ALL_SEQUENCES.values())
        assert len(suite) == individual

    def test_full_suite_completes_on_layer1(self):
        master = run_sequence(full_suite(), "layer1")
        assert master.done and not master.errors

    def test_full_suite_separator_gaps(self):
        suite = full_suite(separator_gap=7)
        gaps = [item[0] for item in suite if isinstance(item, tuple)]
        assert any(gap >= 7 for gap in gaps)

    def test_sequences_return_fresh_transactions(self):
        first = ALL_SEQUENCES["back_to_back_reads"]()
        second = ALL_SEQUENCES["back_to_back_reads"]()

        def txn_of(item):
            return item[1] if isinstance(item, tuple) else item

        first_ids = {txn_of(i).txn_id for i in first}
        second_ids = {txn_of(i).txn_id for i in second}
        assert not first_ids & second_ids
