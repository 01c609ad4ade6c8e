"""Netlist container and its windowed, glitch-aware cycle step.

A clock cycle of the netlist is:

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

The netlist has one step, and it settles a *window* of N consecutive
cycles at once.  Each net's value is a Python int holding one bit per
cycle of the window (bit *c* = cycle *c*), so one pass of wavefronts
settles all N cycles with the host's word-wide AND/OR/XOR:

* an input's per-cycle values come from its changes alone: the cycles
  in which it flips, then a doubling prefix-XOR;
* every net's settled start of each cycle (the end of the cycle
  before) is one gate-order pass over the previous cycle's inputs; a
  one-cycle window skips that pass and starts from the current values;
* wavefronts are event-driven, ``V[t + 1][out] = gate(V[t][ins])``,
  and a flip vector ``d`` adds ``popcount(d)`` transitions, of which
  ``popcount(d & new)`` are rises and the rest falls;
* a net's glitches are its window transitions minus
  ``popcount(start ^ end)``, the cycles whose value really changed.

:meth:`Netlist.cycle` (and :meth:`Netlist.step`, its named-input form)
is that step's one-cycle window, run at once.  :meth:`Netlist.drive`
queues a cycle instead: on a flop-free netlist it joins the deferred
window, which settles at the next state read (:attr:`Netlist.nets`,
:meth:`Netlist.output_value`, :meth:`Netlist.input_value`, the
``total_*`` sums, :meth:`Netlist.net_activity`), at the next eager
cycle, or when it reaches :data:`WINDOW_CAP` cycles.  A netlist with
flops never defers: each driven cycle is a window of one, because a
flop latches the value its D net settled to in the cycle before.

Net values and the ``transitions`` / ``rise_count`` / ``fall_count`` /
``glitches`` counters live in flat per-net lists; gates are
precompiled ``(opcode, inputs, output)`` tuples; fanout is a tuple of
gate indices per net; and a window in which no input or flop changes
does no settling at all.  :meth:`Netlist.net_activity` is the flat
read the Diesel-style estimator prices, and :attr:`Netlist.nets` the
per-net record view.
"""

from __future__ import annotations

import functools
import typing

from .gates import (DEFAULT_NET_CAP_FF, FANOUT_CAP_FF, Flop, Gate,
                    GateKind)


class NetlistError(ValueError):
    """Structural or stimulus problem (unknown net or input...)."""


#: Cycles a deferred window holds before it settles on its own: bounds
#: the length of the per-net bit vectors on long replays.
WINDOW_CAP = 4096

# compiled opcodes: NOT and two-input AND/OR (the synthesised
# decoder's only cells) are evaluated inline by Netlist._settle, every
# opcode through _EVALUATE elsewhere.  Values are bit vectors, one bit
# per cycle of the window; *ones* has every cycle's bit set.
_NOT, _AND2, _OR2, _BUF, _AND, _OR, _NAND, _NOR, _XOR, _XNOR, _MUX2 = \
    range(11)


def _all(ins: typing.Tuple[int, ...], v: typing.List[int],
         ones: int) -> int:
    value = ones
    for net in ins:
        value &= v[net]
    return value


def _any(ins: typing.Tuple[int, ...], v: typing.List[int]) -> int:
    value = 0
    for net in ins:
        value |= v[net]
    return value


def _parity(ins: typing.Tuple[int, ...], v: typing.List[int]) -> int:
    value = 0
    for net in ins:
        value ^= v[net]
    return value


_EVALUATE: typing.Tuple[typing.Callable[
    [typing.Tuple[int, ...], typing.List[int], int], int], ...] = (
    lambda ins, v, ones: ones ^ v[ins[0]],                  # NOT
    lambda ins, v, ones: v[ins[0]] & v[ins[1]],             # AND2
    lambda ins, v, ones: v[ins[0]] | v[ins[1]],             # OR2
    lambda ins, v, ones: v[ins[0]],                         # BUF
    _all,                                                   # AND
    lambda ins, v, ones: _any(ins, v),                      # OR
    lambda ins, v, ones: ones ^ _all(ins, v, ones),         # NAND
    lambda ins, v, ones: ones ^ _any(ins, v),               # NOR
    lambda ins, v, ones: _parity(ins, v),                   # XOR
    lambda ins, v, ones: ones ^ _parity(ins, v),            # XNOR
    lambda ins, v, ones: (v[ins[2]] & v[ins[0]])            # MUX2
    | (v[ins[1]] & (ones ^ v[ins[0]])),
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


def _set_bits(mask: int) -> typing.Iterator[int]:
    """Positions of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        #: clock cycles simulated, deferred ones included
        self.cycles_run = 0
        self._initialized = False
        # the deferred window: (cycle offset, flipped-input mask) of
        # each of its cycles that changes an input, and its length
        self._window: typing.List[typing.Tuple[int, int]] = []
        self._window_cycles = 0
        self._window_flushes = 0
        self._deferred_cycles = 0

    # -- construction ---------------------------------------------------

    def net(self, name: str,
            cap_ff: typing.Optional[float] = None) -> int:
        """Create a new net; returns its index."""
        self.flush()
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
        self.flush()
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
            values[output] = _EVALUATE[opcode](ins, values, 1)

    def step(self, inputs: typing.Dict[str, int]
             ) -> typing.Dict[str, int]:
        """Simulate one clock cycle driving the named 0/1 *inputs*;
        returns the named output values."""
        self.flush()
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
        """Simulate one clock cycle now, in which the external input
        nets *flipped_inputs* (each listed once) change value.

        The deferred window settles first; then this cycle is a window
        of one: flops latch, then the unit-delay wavefronts settle,
        counting every flip.
        """
        self.flush()
        self.cycles_run += 1
        self._settle(1, dict.fromkeys(flipped_inputs, 1))

    def drive(self, flipped: int = 0) -> None:
        """Queue one clock cycle in which the external inputs marked in
        *flipped* change value: bit *j* is the *j*-th input, in
        :attr:`input_names` order.

        On a flop-free netlist the cycle joins the deferred window (see
        the module docstring); a netlist with flops runs it at once.
        """
        if flipped >> len(self._inputs):
            raise NetlistError(
                f"flip mask {flipped:#x} names no input of netlist "
                f"{self.name!r} ({len(self._inputs)} inputs)")
        if self.flops:
            inputs = tuple(self._inputs.values())
            self.cycle(inputs[bit] for bit in _set_bits(flipped))
            return
        if flipped:
            self._window.append((self._window_cycles, flipped))
        self._window_cycles += 1
        self.cycles_run += 1
        if self._window_cycles == WINDOW_CAP:
            self.flush()

    def flush(self) -> None:
        """Settle the deferred window, if it holds any cycle."""
        count = self._window_cycles
        if not count:
            return
        window = self._window
        self._window = []
        self._window_cycles = 0
        self._window_flushes += 1
        self._deferred_cycles += count
        inputs = tuple(self._inputs.values())
        flips: typing.Dict[int, int] = {}
        for offset, mask in window:
            cycle = 1 << offset
            for bit in _set_bits(mask):
                net = inputs[bit]
                flips[net] = flips.get(net, 0) | cycle
        self._settle(count, flips)

    @property
    def window_flushes(self) -> int:
        """Deferred windows settled so far (empty ones not counted)."""
        return self._window_flushes

    @property
    def deferred_cycles(self) -> int:
        """Cycles settled in deferred windows; the other
        :attr:`cycles_run` ran as eager one-cycle windows."""
        return self._deferred_cycles

    def _settle(self, count: int, flips: typing.Dict[int, int]) -> None:
        """The netlist's one step: settle *count* consecutive cycles.

        *flips* maps every external input net that changes to a
        *count*-bit vector of the cycles it changes in.  Only a window
        of one may latch flops.
        """
        if not self._initialized:
            self.initialize()
        values = self._values
        wave = [(flop.output, 1) for flop in self.flops
                if values[flop.data] != values[flop.output]]
        wave.extend(flips.items())
        if not wave:
            return
        ones = (1 << count) - 1
        vectors = values if count == 1 else self._window_start(ones, flips)
        transitions = self._transitions
        rises = self._rises
        falls = self._falls
        fanout = self._fanout
        ops = self._ops
        # net -> (its vector, its transitions) before its first flip
        first: typing.Dict[int, typing.Tuple[int, int]] = {}
        while wave:
            touched: typing.Set[int] = set()
            for net, flip in wave:
                old = vectors[net]
                if net not in first:
                    first[net] = (old, transitions[net])
                new = old ^ flip
                vectors[net] = new
                moves = flip.bit_count()
                ups = (flip & new).bit_count()
                transitions[net] += moves
                rises[net] += ups
                falls[net] += moves - ups
                touched.update(fanout[net])
            wave = []
            for gate_index in touched:
                opcode, ins, output = ops[gate_index]
                if opcode == _NOT:
                    value = ones ^ vectors[ins[0]]
                elif opcode == _AND2:
                    value = vectors[ins[0]] & vectors[ins[1]]
                elif opcode == _OR2:
                    value = vectors[ins[0]] | vectors[ins[1]]
                else:
                    value = _EVALUATE[opcode](ins, vectors, ones)
                flip = value ^ vectors[output]
                if flip:
                    wave.append((output, flip))
        glitches = self._glitches
        last = count - 1
        for net, (start, before) in first.items():
            end = vectors[net]
            glitches[net] += (transitions[net] - before
                              - (start ^ end).bit_count())
            values[net] = end >> last

    def _window_start(self, ones: int,
                      flips: typing.Dict[int, int]) -> typing.List[int]:
        """Every net's vector at the start of each cycle of a window of
        ``ones.bit_length()`` cycles: the settled values under the
        previous cycle's inputs (the current values for cycle 0)."""
        count = ones.bit_length()
        values = self._values
        vectors = [ones * value for value in values]
        for net, flip in flips.items():
            shift = 1
            while shift < count:
                flip ^= flip << shift
                shift <<= 1
            held = (flip & ones) ^ vectors[net]
            vectors[net] = ((held << 1) & ones) | values[net]
        for opcode, ins, output in self._ops:
            vectors[output] = _EVALUATE[opcode](ins, vectors, ones)
        return vectors

    # -- reporting ---------------------------------------------------------

    @property
    def nets(self) -> typing.List[Net]:
        """Every net's name, capacitance, value and activity, in index
        order (a snapshot of the flat per-net state)."""
        self.flush()
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
        self.flush()
        return self._values[self._inputs[name]]

    def output_value(self, name: str) -> int:
        self.flush()
        return self._values[self._outputs[name]]

    def total_transitions(self) -> int:
        self.flush()
        return sum(self._transitions)

    def total_glitches(self) -> int:
        self.flush()
        return sum(self._glitches)

    def net_activity(self) -> typing.Tuple[
            typing.List[float], typing.List[int], typing.List[int]]:
        """Every net's capacitance, transitions and glitches, in index
        order: the flat state an energy estimate prices, without the
        per-net records :attr:`nets` builds."""
        self.flush()
        return (list(self._caps), list(self._transitions),
                list(self._glitches))

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, nets={len(self._names)}, "
                f"gates={len(self.gates)}, flops={len(self.flops)})")
