"""Gate and flop primitives for the gate-level ("layer 0") model.

The paper's reference is a real gate-level netlist with layout
parasitics, simulated by a gate-level simulator and measured by the
Diesel power estimator.  These primitives substitute for that: nets
carry a capacitance, every gate has a unit propagation delay (the only
delay model), and the evaluation engine in :mod:`repro.rtl.netlist`
counts *every* output change — including transient ones — so glitch
energy exists, which is one of the contributions the transaction-level
models cannot see.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

#: Default net capacitance (fF): gate output + local wiring.
DEFAULT_NET_CAP_FF = 3.0
#: Extra capacitance per fanout connection (fF).
FANOUT_CAP_FF = 1.2


class GateKind(enum.Enum):
    """Supported combinational cell types."""

    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX2 = "mux2"  # inputs: (select, a, b) -> b if select else a


_ARITY: typing.Dict[GateKind, typing.Optional[int]] = {
    GateKind.BUF: 1,
    GateKind.NOT: 1,
    GateKind.AND: None,   # variadic (>= 2)
    GateKind.OR: None,
    GateKind.NAND: None,
    GateKind.NOR: None,
    GateKind.XOR: None,
    GateKind.XNOR: None,
    GateKind.MUX2: 3,
}


@dataclasses.dataclass(frozen=True)
class Gate:
    """One combinational cell: output = f(inputs), one unit later."""

    kind: GateKind
    inputs: typing.Tuple[int, ...]
    output: int

    def __post_init__(self) -> None:
        arity = _ARITY[self.kind]
        if arity is not None and len(self.inputs) != arity:
            raise ValueError(
                f"{self.kind.value} gate needs {arity} inputs, "
                f"got {len(self.inputs)}")
        if arity is None and len(self.inputs) < 2:
            raise ValueError(
                f"{self.kind.value} gate needs at least 2 inputs")


@dataclasses.dataclass(frozen=True)
class Flop:
    """A D flip-flop: output updates at the clock edge only."""

    data: int      # D input net
    output: int    # Q output net
    clock_pin_cap_ff: float = 1.5
