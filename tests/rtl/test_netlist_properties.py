"""Property-based tests of the glitch-aware netlist engine.

Hypothesis builds random circuits.  After every input step the
netlist's settled outputs must equal a direct functional evaluation of
the same circuit, regardless of the event ordering and transient
glitching in between; and over all nine gate kinds, variadic AND/OR
and flops, the compiled step must match the event-driven oracle in
:mod:`tests.rtl.reference_netlist` net for net, activity counters
included.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rtl.gates import GateKind
from repro.rtl.netlist import Netlist

from tests.rtl.reference_netlist import ReferenceNetlist, net_state

TWO_INPUT_KINDS = [GateKind.AND, GateKind.OR, GateKind.NAND,
                   GateKind.NOR, GateKind.XOR, GateKind.XNOR]

_EVAL = {
    GateKind.AND: lambda a, b: a & b,
    GateKind.OR: lambda a, b: a | b,
    GateKind.NAND: lambda a, b: 1 - (a & b),
    GateKind.NOR: lambda a, b: 1 - (a | b),
    GateKind.XOR: lambda a, b: a ^ b,
    GateKind.XNOR: lambda a, b: 1 - (a ^ b),
    GateKind.NOT: lambda a: 1 - a,
}


@st.composite
def random_circuits(draw):
    """A DAG of gates over a handful of inputs, plus stimulus vectors."""
    num_inputs = draw(st.integers(2, 5))
    num_gates = draw(st.integers(1, 24))
    gates = []
    node_count = num_inputs
    for _ in range(num_gates):
        kind = draw(st.sampled_from(TWO_INPUT_KINDS + [GateKind.NOT]))
        if kind is GateKind.NOT:
            sources = (draw(st.integers(0, node_count - 1)),)
        else:
            sources = (draw(st.integers(0, node_count - 1)),
                       draw(st.integers(0, node_count - 1)))
        gates.append((kind, sources))
        node_count += 1
    vectors = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=num_inputs,
                 max_size=num_inputs),
        min_size=1, max_size=6))
    return num_inputs, gates, vectors


def reference_eval(num_inputs, gates, input_vector):
    values = list(input_vector)
    for kind, sources in gates:
        values.append(_EVAL[kind](*(values[s] for s in sources)))
    return values


class TestNetlistAgainstReference:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_circuits())
    def test_settled_values_match_functional_evaluation(self, circuit):
        num_inputs, gates, vectors = circuit
        netlist = Netlist("random")
        nodes = [netlist.input(f"i{i}") for i in range(num_inputs)]
        for index, (kind, sources) in enumerate(gates):
            out = netlist.gate(kind, [nodes[s] for s in sources])
            netlist.set_output(f"g{index}", out)
            nodes.append(out)
        for vector in vectors:
            outputs = netlist.step(
                {f"i{i}": bit for i, bit in enumerate(vector)})
            reference = reference_eval(num_inputs, gates, vector)
            for index in range(len(gates)):
                assert outputs[f"g{index}"] == \
                    reference[num_inputs + index], (vector, index)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_circuits())
    def test_transitions_at_least_net_changes(self, circuit):
        """Activity accounting: committed transitions are never fewer
        than the net start-to-end value changes (glitches only add)."""
        num_inputs, gates, vectors = circuit
        netlist = Netlist("random")
        nodes = [netlist.input(f"i{i}") for i in range(num_inputs)]
        for kind, sources in gates:
            nodes.append(netlist.gate(kind, [nodes[s] for s in sources]))
        netlist.initialize()
        initial = [net.value for net in netlist.nets]
        for vector in vectors:
            netlist.step({f"i{i}": bit for i, bit in enumerate(vector)})
        final = [net.value for net in netlist.nets]
        for net, before, after in zip(netlist.nets, initial, final):
            minimum = int(before != after)
            assert net.transitions >= minimum

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_circuits())
    def test_repeated_same_input_is_quiescent(self, circuit):
        num_inputs, gates, vectors = circuit
        netlist = Netlist("random")
        nodes = [netlist.input(f"i{i}") for i in range(num_inputs)]
        for kind, sources in gates:
            nodes.append(netlist.gate(kind, [nodes[s] for s in sources]))
        vector = vectors[0]
        netlist.step({f"i{i}": bit for i, bit in enumerate(vector)})
        before = netlist.total_transitions()
        netlist.step({f"i{i}": bit for i, bit in enumerate(vector)})
        assert netlist.total_transitions() == before


#: fixed-arity kinds; every other kind takes 2..4 inputs
_FIXED_ARITY = {GateKind.BUF: 1, GateKind.NOT: 1, GateKind.MUX2: 3}


@st.composite
def random_netlists(draw):
    """Gates of all nine kinds (variadic ones with up to four inputs)
    and flops over a handful of inputs, plus stimulus vectors."""
    num_inputs = draw(st.integers(1, 5))
    elements = []
    node_count = num_inputs
    for _ in range(draw(st.integers(1, 30))):
        source = st.integers(0, node_count - 1)
        if draw(st.integers(0, 5)) == 0:
            elements.append(("flop", draw(source)))
        else:
            kind = draw(st.sampled_from(list(GateKind)))
            arity = _FIXED_ARITY.get(kind) or draw(st.integers(2, 4))
            elements.append((kind, tuple(draw(source)
                                         for _ in range(arity))))
        node_count += 1
    vectors = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=num_inputs,
                 max_size=num_inputs),
        min_size=1, max_size=8))
    return num_inputs, elements, vectors


class TestCompiledStepAgainstOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_netlists())
    def test_values_and_activity_match_oracle(self, circuit):
        num_inputs, elements, vectors = circuit
        netlist = Netlist("random")
        nodes = [netlist.input(f"i{i}") for i in range(num_inputs)]
        for index, (kind, sources) in enumerate(elements):
            if kind == "flop":
                out = netlist.flop(nodes[sources])
            else:
                out = netlist.gate(kind, [nodes[s] for s in sources])
            netlist.set_output(f"n{index}", out)
            nodes.append(out)
        reference = ReferenceNetlist(netlist)
        for vector in vectors:
            inputs = {f"i{i}": bit for i, bit in enumerate(vector)}
            assert netlist.step(inputs) == reference.step(inputs), vector
            assert net_state(netlist.nets) == net_state(reference.nets), \
                vector
