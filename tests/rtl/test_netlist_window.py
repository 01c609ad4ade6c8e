"""The deferred bit-parallel window against the event-driven oracle.

:meth:`Netlist.drive` queues cycles into a window that settles one bit
per cycle at the next state read; :meth:`Netlist.cycle` is the same
step's one-cycle window.  Hypothesis drives random flop-free circuits
through windows on both sides of the 64-bit word size and of
:data:`~repro.rtl.netlist.WINDOW_CAP`, and every read taken in the
middle of a window must return the oracle's state.  The remaining
tests pin when windows flush: a gate-level replay once, at Diesel's
read; a netlist with flops never.
"""

import math
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ec import ADDRESS_BITS
from repro.experiments import characterization
from repro.experiments.common import fresh_memory_map
from repro.kernel import Clock, Simulator
from repro.power.diesel import InterfaceActivityLog
from repro.rtl import GateKind, Netlist, NetlistError, build_address_decoder
from repro.rtl.netlist import WINDOW_CAP
from repro.soc.layers import build_bus
from repro.soc.smartcard import EEPROM_BASE, RAM_BASE
from repro.tlm import PipelinedMaster, run_script
from repro.workloads.generator import table3_script

from tests.rtl.reference_netlist import ReferenceNetlist, net_state

WINDOWS = (1, 2, 63, 64, 65, WINDOW_CAP - 1, WINDOW_CAP, WINDOW_CAP + 1)

#: fixed-arity kinds; every other kind takes 2..4 inputs
_FIXED_ARITY = {GateKind.BUF: 1, GateKind.NOT: 1, GateKind.MUX2: 3}


@st.composite
def flop_free_circuits(draw):
    """Gates of all nine kinds (variadic ones with up to four inputs)
    over a handful of inputs, plus a stimulus seed and density."""
    num_inputs = draw(st.integers(1, 5))
    gates = []
    for index in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(list(GateKind)))
        arity = _FIXED_ARITY.get(kind) or draw(st.integers(2, 4))
        source = st.integers(0, num_inputs + index - 1)
        gates.append((kind, tuple(draw(source) for _ in range(arity))))
    density = draw(st.sampled_from((0.02, 0.3, 1.0)))
    return num_inputs, gates, draw(st.integers(0, 2 ** 32)), density


def build(circuit):
    num_inputs, gates, _, _ = circuit
    netlist = Netlist("random")
    nodes = [netlist.input(f"i{i}") for i in range(num_inputs)]
    for index, (kind, sources) in enumerate(gates):
        out = netlist.gate(kind, [nodes[s] for s in sources])
        netlist.set_output(f"g{index}", out)
        nodes.append(out)
    return netlist


class Stimulus:
    """Random input words, driven into a netlist's window and stepped
    through the oracle one cycle at a time."""

    def __init__(self, netlist, seed, density):
        self.netlist = netlist
        self.reference = ReferenceNetlist(netlist)
        self.names = netlist.input_names
        self.rng = random.Random(seed)
        self.density = density
        self.word = 0

    def drive(self, cycles):
        full = (1 << len(self.names)) - 1
        for _ in range(cycles):
            flipped = 0
            if self.rng.random() < self.density:
                flipped = self.rng.randint(1, full)
            self.netlist.drive(flipped)
            self.word ^= flipped
            self.reference.step(self.inputs())

    def inputs(self):
        return {name: (self.word >> bit) & 1
                for bit, name in enumerate(self.names)}


def oracle_outputs(stimulus):
    return {name: stimulus.reference.nets[net].value
            for name, net in stimulus.netlist.output_nets.items()}


class TestWindowsAgainstOracle:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(flop_free_circuits())
    def test_every_window_length_matches_the_oracle(self, circuit):
        netlist = build(circuit)
        stimulus = Stimulus(netlist, *circuit[2:])
        cycles = 0
        for window in WINDOWS:
            stimulus.drive(window)
            cycles += window
            assert net_state(netlist.nets) == \
                net_state(stimulus.reference.nets), window
        assert netlist.cycles_run == netlist.deferred_cycles == cycles
        # every window flushed at its read, CAP + 1 once more at the cap
        assert netlist.window_flushes == len(WINDOWS) + 1


def _nets(netlist, stimulus):
    return net_state(netlist.nets), net_state(stimulus.reference.nets)


def _output_values(netlist, stimulus):
    return ({name: netlist.output_value(name)
             for name in netlist.output_names}, oracle_outputs(stimulus))


def _input_values(netlist, stimulus):
    return ([netlist.input_value(name) for name in netlist.input_names],
            [stimulus.inputs()[name] for name in netlist.input_names])


def _total_transitions(netlist, stimulus):
    return (netlist.total_transitions(),
            sum(net.transitions for net in stimulus.reference.nets))


def _total_glitches(netlist, stimulus):
    return (netlist.total_glitches(),
            sum(net.glitches for net in stimulus.reference.nets))


def _net_activity(netlist, stimulus):
    caps, transitions, glitches = netlist.net_activity()
    nets = stimulus.reference.nets
    assert caps == [net.cap_ff for net in netlist.nets]
    return ((transitions, glitches),
            ([net.transitions for net in nets],
             [net.glitches for net in nets]))


def _pickled(netlist, stimulus):
    copy = pickle.loads(pickle.dumps(netlist))
    return net_state(copy.nets), net_state(stimulus.reference.nets)


def _fresh_copy_values(netlist, stimulus):
    copy = netlist.fresh_copy()
    return ([net.value for net in copy.nets],
            [net.value for net in stimulus.reference.nets])


def _step(netlist, stimulus):
    outputs = netlist.step(stimulus.inputs())
    stimulus.reference.step(stimulus.inputs())
    return ((outputs, net_state(netlist.nets)),
            (oracle_outputs(stimulus),
             net_state(stimulus.reference.nets)))


def _cycle(netlist, stimulus):
    netlist.cycle()
    stimulus.reference.step(stimulus.inputs())
    return _nets(netlist, stimulus)


MID_WINDOW_READS = [_nets, _output_values, _input_values,
                    _total_transitions, _total_glitches, _net_activity,
                    _pickled, _fresh_copy_values, _step, _cycle]


class TestMidWindowReads:
    @pytest.mark.parametrize("read", MID_WINDOW_READS,
                             ids=lambda read: read.__name__.strip("_"))
    @pytest.mark.parametrize("seed", range(4))
    def test_read_returns_the_oracle_state(self, read, seed):
        """The read settles the open window first; later windows go on
        from the state it left."""
        netlist = Netlist("mixed")
        a, b, c = (netlist.input(name) for name in "abc")
        skew = netlist.xor_gate(a, netlist.not_gate(netlist.not_gate(a)))
        mux = netlist.mux2(c, netlist.and_gate(a, b, c),
                           netlist.gate(GateKind.NOR, [b, skew, c]))
        for name, net in (("skew", skew), ("mux", mux),
                          ("xnor", netlist.xnor_gate(mux, b))):
            netlist.set_output(name, net)
        stimulus = Stimulus(netlist, seed, 0.5)
        for window in (37, 70):
            stimulus.drive(window)
            got, want = read(netlist, stimulus)
            assert got == want, window
        stimulus.drive(5)
        got, want = _nets(netlist, stimulus)
        assert got == want
        assert netlist.total_glitches() > 0


def two_input_netlist():
    netlist = Netlist("pair")
    a, b = netlist.input("a"), netlist.input("b")
    netlist.set_output("y", netlist.xor_gate(a, netlist.not_gate(b)))
    return netlist


class TestWindowBehaviour:
    def test_cycles_run_counts_windowed_cycles(self):
        netlist = two_input_netlist()
        for flipped in (1, 0, 3, 2, 0):
            netlist.drive(flipped)
        assert netlist.cycles_run == 5
        assert netlist.window_flushes == netlist.deferred_cycles == 0
        netlist.cycle([0])
        assert netlist.cycles_run == 6
        assert (netlist.window_flushes, netlist.deferred_cycles) == (1, 5)

    def test_a_full_window_settles_at_the_cap(self):
        netlist = two_input_netlist()
        for _ in range(WINDOW_CAP):
            netlist.drive(1)
        assert (netlist.window_flushes, netlist.deferred_cycles) == \
            (1, WINDOW_CAP)
        netlist.drive(2)
        assert netlist.total_transitions() > 0
        assert (netlist.window_flushes, netlist.deferred_cycles) == \
            (2, WINDOW_CAP + 1)

    def test_quiet_window_settles_nothing(self):
        netlist = two_input_netlist()
        netlist.initialize()
        before = net_state(netlist.nets)
        for _ in range(100):
            netlist.drive()
        assert net_state(netlist.nets) == before
        assert netlist.cycles_run == netlist.deferred_cycles == 100

    def test_mask_naming_no_input_rejected_at_the_drive(self):
        netlist = two_input_netlist()
        with pytest.raises(NetlistError, match="names no input"):
            netlist.drive(4)
        with pytest.raises(NetlistError):
            netlist.drive(-1)
        assert netlist.cycles_run == 0

    def test_out_of_range_address_raises_at_the_driving_cycle(self):
        decoder = build_address_decoder(fresh_memory_map())
        decoder.drive(RAM_BASE)
        with pytest.raises(ValueError, match="36-bit"):
            decoder.drive(1 << ADDRESS_BITS)
        with pytest.raises(ValueError):
            decoder.drive(-4)
        netlist = decoder.netlist
        assert netlist.cycles_run == 1 and netlist.window_flushes == 0
        decoder.drive(EEPROM_BASE)
        reference = ReferenceNetlist(netlist)
        for address in (RAM_BASE, EEPROM_BASE):
            reference.step({f"a{i}": (address >> i) & 1
                            for i in range(ADDRESS_BITS)})
        assert net_state(netlist.nets) == net_state(reference.nets)


class TestFlopsNeverDefer:
    @pytest.mark.parametrize("seed", range(3))
    def test_driven_cycles_settle_at_once(self, seed):
        netlist = Netlist("sequential")
        d, e = netlist.input("d"), netlist.input("e")
        q = netlist.flop(netlist.xor_gate(d, e))
        netlist.set_output("y", netlist.and_gate(q, netlist.not_gate(e)))
        stimulus = Stimulus(netlist, seed, 0.6)
        for _ in range(40):
            stimulus.drive(1)
            assert net_state(netlist.nets) == \
                net_state(stimulus.reference.nets)
        # had a cycle waited for the read above, that read flushed it
        assert netlist.cycles_run == 40
        assert netlist.window_flushes == netlist.deferred_cycles == 0


def gate_level_replay(count):
    """A ladder gate-level replay: a Table-3 script of *count*
    transactions on the gate-level bus, not yet priced."""
    simulator = Simulator("rtl")
    clock = Clock(simulator, "clk", period=100)
    layer_bus = build_bus("gate-level", simulator, clock,
                          fresh_memory_map(),
                          power_model=InterfaceActivityLog())
    script = table3_script(random.Random("ladder/1/0"), count,
                           fast_base=RAM_BASE, slow_base=EEPROM_BASE)
    master = PipelinedMaster(simulator, clock, layer_bus.bus, script)
    run_script(simulator, master, 100_000, clock)
    assert len(master.completed) == count
    return layer_bus


class TestFlushPoints:
    def test_gate_level_replay_flushes_once_at_diesels_read(self):
        layer_bus = gate_level_replay(30)
        netlist = layer_bus.bus.decoder.netlist
        cycles = layer_bus.bus.cycle
        assert 0 < cycles < WINDOW_CAP
        assert netlist.cycles_run == cycles
        assert netlist.window_flushes == 0
        energy = layer_bus.energy_pj()
        assert (netlist.window_flushes, netlist.deferred_cycles) == \
            (1, cycles)
        assert layer_bus.energy_pj() == energy
        assert netlist.window_flushes == 1

    def test_characterization_flushes_once_per_cap(self):
        result = characterization()
        netlist = result.netlist
        assert netlist.cycles_run == netlist.deferred_cycles \
            == result.cycles
        assert 1 <= netlist.window_flushes \
            <= math.ceil(result.cycles / WINDOW_CAP) + 1
