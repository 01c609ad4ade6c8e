"""The event-driven netlist oracle the compiled step is tested against.

:class:`ReferenceNetlist` mirrors the structure of a
:class:`~repro.rtl.Netlist` (gates, flops, named inputs and outputs)
and simulates it the naive way: a ``time -> {net: value}`` event
wheel, every gate evaluated through a kind-keyed evaluator table, a
snapshot of every net value before each cycle, and glitches counted as
the toggles in excess of the start-to-end value change.  The compiled
step must reproduce its settled values and every net's ``transitions``
/ ``rise_count`` / ``fall_count`` / ``glitches`` exactly.
"""

import collections
import dataclasses

from repro.rtl import GateKind, NetlistError

_EVALUATORS = {
    GateKind.BUF: lambda a: a,
    GateKind.NOT: lambda a: 1 - a,
    GateKind.AND: lambda *ins: int(all(ins)),
    GateKind.OR: lambda *ins: int(any(ins)),
    GateKind.NAND: lambda *ins: 1 - int(all(ins)),
    GateKind.NOR: lambda *ins: 1 - int(any(ins)),
    GateKind.XOR: lambda *ins: sum(ins) & 1,
    GateKind.XNOR: lambda *ins: 1 - (sum(ins) & 1),
    GateKind.MUX2: lambda sel, a, b: b if sel else a,
}

#: unit gate delay: an input change at time t reaches the output at t+1
DELAY = 1


@dataclasses.dataclass
class ReferenceNet:
    index: int
    value: int = 0
    transitions: int = 0
    rise_count: int = 0
    fall_count: int = 0
    glitches: int = 0

    def record_change(self, new_value):
        if new_value == self.value:
            return
        if new_value:
            self.rise_count += 1
        else:
            self.fall_count += 1
        self.transitions += 1
        self.value = new_value


class ReferenceNetlist:
    """An event-wheel simulation of *netlist*'s structure, starting
    from the all-zero reset state."""

    def __init__(self, netlist):
        self.name = netlist.name
        self.nets = [ReferenceNet(index)
                     for index in range(len(netlist.nets))]
        self.gates = [(gate.kind, gate.inputs, gate.output)
                      for gate in netlist.gates]
        self.flops = [(flop.data, flop.output) for flop in netlist.flops]
        self._inputs = netlist.input_nets
        self._outputs = netlist.output_nets
        self._fanout = collections.defaultdict(list)
        for index, (_, inputs, _) in enumerate(self.gates):
            for net in inputs:
                self._fanout[net].append(index)
        self._initialized = False

    def _evaluate(self, gate_index):
        kind, inputs, _ = self.gates[gate_index]
        return _EVALUATORS[kind](*(self.nets[i].value for i in inputs))

    def initialize(self):
        if self._initialized:
            return
        self._initialized = True
        for _ in range(len(self.gates) + 2):
            changed = False
            for index, (_, _, output) in enumerate(self.gates):
                value = self._evaluate(index)
                if value != self.nets[output].value:
                    self.nets[output].value = value
                    changed = True
            if not changed:
                return
        raise NetlistError(
            f"netlist {self.name!r} did not settle at initialisation")

    def step(self, inputs):
        """Simulate one clock cycle; returns the named output values."""
        self.initialize()
        events = collections.defaultdict(dict)  # time -> {net: value}
        # 1. flops latch
        for data, output in self.flops:
            new_q = self.nets[data].value
            if new_q != self.nets[output].value:
                events[0][output] = new_q
        # 2. external inputs
        for name, value in inputs.items():
            try:
                net = self._inputs[name]
            except KeyError:
                raise NetlistError(f"unknown input {name!r}") from None
            if value not in (0, 1):
                raise NetlistError(
                    f"input {name!r} must be 0 or 1, got {value}")
            if value != self.nets[net].value:
                events[0][net] = value
        # 3. event-driven settle with glitch counting
        values_before = [net.value for net in self.nets]
        toggle_log = collections.defaultdict(int)
        time = 0
        guard = 4 * (len(self.gates) + 4)
        while events:
            if time > guard:
                raise NetlistError(
                    f"netlist {self.name!r} did not settle "
                    f"(combinational loop?)")
            changes = events.pop(time, None)
            if changes is None:
                time += 1
                continue
            touched_gates = set()
            for net, value in changes.items():
                if value != self.nets[net].value:
                    self.nets[net].record_change(value)
                    toggle_log[net] += 1
                    touched_gates.update(self._fanout[net])
            for gate_index in touched_gates:
                output = self.gates[gate_index][2]
                new_value = self._evaluate(gate_index)
                when = time + DELAY
                if new_value != self.nets[output].value:
                    events[when][output] = new_value
                else:
                    # cancel a previously scheduled change if the gate
                    # re-converged to its old value
                    events.get(when, {}).pop(output, None)
            time += 1
        # a net that toggled more than its start-to-end difference
        # glitched
        for net_index, toggles in toggle_log.items():
            net = self.nets[net_index]
            net_difference = int(values_before[net_index] != net.value)
            if toggles > net_difference:
                net.glitches += toggles - net_difference
        return {name: self.nets[net].value
                for name, net in self._outputs.items()}


def net_state(nets):
    """Every net's (value, transitions, rises, falls, glitches)."""
    return [(net.value, net.transitions, net.rise_count, net.fall_count,
             net.glitches) for net in nets]
