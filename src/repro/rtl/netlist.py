"""Netlist container and its compiled, glitch-aware cycle step.

Each :meth:`Netlist.cycle` (and :meth:`Netlist.step`, its named-input
form) models one clock cycle:

1. flops latch their D inputs and the external inputs that changed
   take their new values — together the time-0 wavefront,
2. combinational gates settle as unit-delay wavefronts: every gate fed
   by a net that flipped in wavefront *t* is evaluated once against
   the values after wavefront *t*, and the outputs that differ flip
   in wavefront *t + 1*.  Every flip is committed to the net's
   activity counters, so transient changes that are reversed later in
   the same cycle count too, and each reversal pair counts as two
   glitch transitions.

Unit delay is the only delay model.  Gates only take existing nets as
inputs and always drive a fresh net, so the combinational graph is
acyclic in net order and every cycle settles within its depth.

The step's cost follows the activity it counts, not the netlist's
size: net values and the ``transitions`` / ``rise_count`` /
``fall_count`` / ``glitches`` counters live in flat per-net lists,
gates are precompiled ``(opcode, inputs, output)`` tuples evaluated
inline, fanout is a tuple of gate indices per net, and a cycle in which
no input or flop changes does no settling at all.  :attr:`Netlist.nets`
is the per-net view of that state — what the Diesel-style estimator
consumes.
"""

from __future__ import annotations

import functools
import typing

from .gates import (DEFAULT_NET_CAP_FF, FANOUT_CAP_FF, Flop, Gate,
                    GateKind)


class NetlistError(ValueError):
    """Structural or stimulus problem (unknown net or input...)."""


# compiled opcodes: NOT and two-input AND/OR (the synthesised
# decoder's only cells) are evaluated inline by Netlist.cycle, every
# opcode through _EVALUATE elsewhere
_NOT, _AND2, _OR2, _BUF, _AND, _OR, _NAND, _NOR, _XOR, _XNOR, _MUX2 = \
    range(11)

_EVALUATE: typing.Tuple[typing.Callable[
    [typing.Tuple[int, ...], typing.List[int]], int], ...] = (
    lambda ins, v: 1 - v[ins[0]],                         # NOT
    lambda ins, v: v[ins[0]] & v[ins[1]],                 # AND2
    lambda ins, v: v[ins[0]] | v[ins[1]],                 # OR2
    lambda ins, v: v[ins[0]],                             # BUF
    lambda ins, v: int(all(v[i] for i in ins)),           # AND
    lambda ins, v: int(any(v[i] for i in ins)),           # OR
    lambda ins, v: 1 - all(v[i] for i in ins),            # NAND
    lambda ins, v: 1 - any(v[i] for i in ins),            # NOR
    lambda ins, v: sum(v[i] for i in ins) & 1,            # XOR
    lambda ins, v: 1 - (sum(v[i] for i in ins) & 1),      # XNOR
    lambda ins, v: v[ins[2]] if v[ins[0]] else v[ins[1]],  # MUX2
)

_OPCODES = {GateKind.BUF: _BUF, GateKind.NOT: _NOT, GateKind.AND: _AND,
            GateKind.OR: _OR, GateKind.NAND: _NAND, GateKind.NOR: _NOR,
            GateKind.XOR: _XOR, GateKind.XNOR: _XNOR,
            GateKind.MUX2: _MUX2}


def _opcode(gate: Gate) -> int:
    if len(gate.inputs) == 2 and gate.kind is GateKind.AND:
        return _AND2
    if len(gate.inputs) == 2 and gate.kind is GateKind.OR:
        return _OR2
    return _OPCODES[gate.kind]


class Net(typing.NamedTuple):
    """One wire of a :class:`Netlist`, as of the read of
    :attr:`Netlist.nets` that produced it."""

    index: int
    name: str
    cap_ff: float
    value: int
    #: transitions committed this simulation (includes glitches)
    transitions: int
    rise_count: int
    fall_count: int
    #: transitions that were later reversed within the same cycle
    glitches: int


#: Net from a field tuple without a python-level call per net (what
#: Net._make does, minus its wrapper frame)
_new_net = functools.partial(tuple.__new__, Net)


class Netlist:
    """A flat gate-level netlist with activity accounting."""

    def __init__(self, name: str = "netlist",
                 default_net_cap_ff: float = DEFAULT_NET_CAP_FF,
                 fanout_cap_ff: float = FANOUT_CAP_FF) -> None:
        self.name = name
        self.default_net_cap_ff = default_net_cap_ff
        self.fanout_cap_ff = fanout_cap_ff
        # per-net flat state
        self._names: typing.List[str] = []
        self._caps: typing.List[float] = []
        self._values: typing.List[int] = []
        self._transitions: typing.List[int] = []
        self._rises: typing.List[int] = []
        self._falls: typing.List[int] = []
        self._glitches: typing.List[int] = []
        self._fanout: typing.List[typing.Tuple[int, ...]] = []
        # structure
        self.gates: typing.List[Gate] = []
        self._ops: typing.List[typing.Tuple[int, typing.Tuple[int, ...],
                                            int]] = []
        self.flops: typing.List[Flop] = []
        self._inputs: typing.Dict[str, int] = {}
        self._outputs: typing.Dict[str, int] = {}
        self.cycles_run = 0
        self._initialized = False

    # -- construction ---------------------------------------------------

    def net(self, name: str,
            cap_ff: typing.Optional[float] = None) -> int:
        """Create a new net; returns its index."""
        index = len(self._names)
        self._names.append(name)
        self._caps.append(self.default_net_cap_ff if cap_ff is None
                          else cap_ff)
        for state in (self._values, self._transitions, self._rises,
                      self._falls, self._glitches):
            state.append(0)
        self._fanout.append(())
        return index

    def input(self, name: str,
              cap_ff: typing.Optional[float] = None) -> int:
        """Create an external input net."""
        if name in self._inputs:
            raise NetlistError(f"duplicate input {name!r}")
        index = self.net(name, cap_ff)
        self._inputs[name] = index
        return index

    def set_output(self, name: str, net: int) -> None:
        """Expose *net* as a named output."""
        self._check_net(net, f"output {name!r}")
        self._outputs[name] = net

    def _check_net(self, net: int, role: str) -> None:
        if not 0 <= net < len(self._names):
            raise NetlistError(
                f"{role} {net!r} names no net of netlist {self.name!r} "
                f"(nets 0..{len(self._names) - 1})")

    def gate(self, kind: GateKind, inputs: typing.Sequence[int],
             output_name: typing.Optional[str] = None) -> int:
        """Add a gate; returns its (new) output net index."""
        for net in inputs:
            self._check_net(net, f"{kind.value} gate input")
        output = len(self._names)
        gate = Gate(kind, tuple(inputs), output)
        self.net(output_name or f"{kind.value}_{len(self.gates)}")
        gate_index = len(self.gates)
        self.gates.append(gate)
        self._ops.append((_opcode(gate), gate.inputs, output))
        for net in gate.inputs:
            self._fanout[net] += (gate_index,)
            self._caps[net] += self.fanout_cap_ff
        return output

    def flop(self, data: int, output_name: typing.Optional[str] = None
             ) -> int:
        """Add a D flip-flop fed by net *data*; returns the Q net."""
        self._check_net(data, "flop data")
        output = self.net(output_name or f"ff_{len(self.flops)}")
        self.flops.append(Flop(data, output))
        return output

    # convenience wrappers ------------------------------------------------

    def not_gate(self, a: int) -> int:
        return self.gate(GateKind.NOT, [a])

    def and_gate(self, *ins: int) -> int:
        return self.gate(GateKind.AND, ins)

    def or_gate(self, *ins: int) -> int:
        return self.gate(GateKind.OR, ins)

    def xor_gate(self, a: int, b: int) -> int:
        return self.gate(GateKind.XOR, [a, b])

    def xnor_gate(self, a: int, b: int) -> int:
        return self.gate(GateKind.XNOR, [a, b])

    def mux2(self, select: int, a: int, b: int) -> int:
        return self.gate(GateKind.MUX2, [select, a, b])

    def fresh_copy(self) -> "Netlist":
        """A netlist with this one's structure and current net values
        but no activity: the per-bus instance of a synthesised
        template.  Nothing mutable is shared with this netlist."""
        copy = Netlist(self.name, self.default_net_cap_ff,
                       self.fanout_cap_ff)
        count = len(self._names)
        copy._names = list(self._names)
        copy._caps = list(self._caps)
        copy._values = list(self._values)
        copy._transitions = [0] * count
        copy._rises = [0] * count
        copy._falls = [0] * count
        copy._glitches = [0] * count
        copy._fanout = list(self._fanout)
        copy.gates = list(self.gates)
        copy._ops = list(self._ops)
        copy.flops = list(self.flops)
        copy._inputs = dict(self._inputs)
        copy._outputs = dict(self._outputs)
        copy._initialized = self._initialized
        return copy

    # -- evaluation -------------------------------------------------------

    def initialize(self) -> None:
        """Settle the netlist from the all-zero reset state.

        Gates are evaluated without activity accounting — the power-up
        settle a real simulator performs before time 0.  Gates are
        stored in net order, so one pass settles every output.
        """
        if self._initialized:
            return
        self._initialized = True
        values = self._values
        for opcode, ins, output in self._ops:
            values[output] = _EVALUATE[opcode](ins, values)

    def step(self, inputs: typing.Dict[str, int]
             ) -> typing.Dict[str, int]:
        """Simulate one clock cycle driving the named 0/1 *inputs*;
        returns the named output values."""
        flipped = []
        for name, value in inputs.items():
            try:
                net = self._inputs[name]
            except KeyError:
                raise NetlistError(f"unknown input {name!r}") from None
            if value not in (0, 1):
                raise NetlistError(
                    f"input {name!r} must be 0 or 1, got {value}")
            if value != self._values[net]:
                flipped.append(net)
        self.cycle(flipped)
        values = self._values
        return {name: values[net] for name, net in self._outputs.items()}

    def cycle(self, flipped_inputs: typing.Iterable[int] = ()) -> None:
        """Simulate one clock cycle in which the external input nets
        *flipped_inputs* (each listed once) change value.

        This is the netlist's only step: flops latch, then the
        unit-delay wavefronts settle, counting every flip.
        """
        if not self._initialized:
            self.initialize()
        self.cycles_run += 1
        values = self._values
        wave = [flop.output for flop in self.flops
                if values[flop.data] != values[flop.output]]
        wave.extend(flipped_inputs)
        if not wave:
            return
        transitions = self._transitions
        rises = self._rises
        falls = self._falls
        glitches = self._glitches
        fanout = self._fanout
        ops = self._ops
        # nets flipped an odd number of times so far this cycle: a
        # second flip reverses the first, a glitch pair
        odd: typing.Set[int] = set()
        while wave:
            touched: typing.Set[int] = set()
            for net in wave:
                if values[net]:
                    values[net] = 0
                    falls[net] += 1
                else:
                    values[net] = 1
                    rises[net] += 1
                transitions[net] += 1
                if net in odd:
                    odd.discard(net)
                    glitches[net] += 2
                else:
                    odd.add(net)
                touched.update(fanout[net])
            wave = []
            for gate_index in touched:
                opcode, ins, output = ops[gate_index]
                if opcode == _NOT:
                    value = 1 - values[ins[0]]
                elif opcode == _AND2:
                    value = values[ins[0]] & values[ins[1]]
                elif opcode == _OR2:
                    value = values[ins[0]] | values[ins[1]]
                else:
                    value = _EVALUATE[opcode](ins, values)
                if value != values[output]:
                    wave.append(output)

    # -- reporting ---------------------------------------------------------

    @property
    def nets(self) -> typing.List[Net]:
        """Every net's name, capacitance, value and activity, in index
        order (a snapshot of the flat per-net state)."""
        return list(map(_new_net, zip(
            range(len(self._names)), self._names, self._caps,
            self._values, self._transitions, self._rises, self._falls,
            self._glitches)))

    @property
    def input_names(self) -> typing.Tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def output_names(self) -> typing.Tuple[str, ...]:
        return tuple(self._outputs)

    @property
    def input_nets(self) -> typing.Dict[str, int]:
        """External input name -> net index."""
        return dict(self._inputs)

    @property
    def output_nets(self) -> typing.Dict[str, int]:
        """Output name -> net index."""
        return dict(self._outputs)

    def input_value(self, name: str) -> int:
        return self._values[self._inputs[name]]

    def output_value(self, name: str) -> int:
        return self._values[self._outputs[name]]

    def total_transitions(self) -> int:
        return sum(self._transitions)

    def total_glitches(self) -> int:
        return sum(self._glitches)

    def internal_nets(self) -> typing.List[Net]:
        """Nets that are not external inputs (gate/flop outputs)."""
        input_indices = set(self._inputs.values())
        return [net for net in self.nets
                if net.index not in input_indices]

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, nets={len(self._names)}, "
                f"gates={len(self.gates)}, flops={len(self.flops)})")
