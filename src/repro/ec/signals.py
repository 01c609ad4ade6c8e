"""Canonical EC interface signal set.

The layer-1 energy model works "like a transaction level to RTL
adapter" (§3.3): every cycle it reconstructs the value of each bus
interface signal and counts bit transitions.  This module is the single
definition of those signals — name, width and group — shared by the
gate-level model (which drives one integer value per signal each
cycle, keyed by these names), the TL1 power model (which reconstructs
the same values) and the power characterisation flow (which keys its
table by these names).

Signal names follow the public MIPS EC interface convention.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from .types import ADDRESS_BITS, DATA_BITS


class SignalGroup(enum.Enum):
    """Grouping used in the paper's Figure 5 power-model data flow."""

    ADDRESS = "address"        # address & control signals
    READ = "read"              # read data path signals
    WRITE = "write"            # write data path signals
    CLOCK = "clock"            # system clock distribution


@dataclasses.dataclass(frozen=True)
class SignalSpec:
    """Static description of one interface wire (or wire bundle)."""

    name: str
    width: int
    group: SignalGroup
    driver: str  # "master" or "slave"

    def mask(self) -> int:
        return (1 << self.width) - 1


#: The EC interface signal set reconstructed from the paper and the
#: public MIPS 4K documentation: unidirectional address, read and write
#: buses, per-direction error indication, slave-inserted wait states.
EC_SIGNALS: typing.Tuple[SignalSpec, ...] = (
    # address & control group (driven by master unless noted)
    SignalSpec("EB_A", ADDRESS_BITS, SignalGroup.ADDRESS, "master"),
    SignalSpec("EB_AValid", 1, SignalGroup.ADDRESS, "master"),
    SignalSpec("EB_Instr", 1, SignalGroup.ADDRESS, "master"),
    SignalSpec("EB_Write", 1, SignalGroup.ADDRESS, "master"),
    SignalSpec("EB_Burst", 1, SignalGroup.ADDRESS, "master"),
    SignalSpec("EB_BFirst", 1, SignalGroup.ADDRESS, "master"),
    SignalSpec("EB_BLast", 1, SignalGroup.ADDRESS, "master"),
    SignalSpec("EB_BE", 4, SignalGroup.ADDRESS, "master"),
    SignalSpec("EB_ARdy", 1, SignalGroup.ADDRESS, "slave"),
    # read group (slave drives data and valid)
    SignalSpec("EB_RData", DATA_BITS, SignalGroup.READ, "slave"),
    SignalSpec("EB_RdVal", 1, SignalGroup.READ, "slave"),
    SignalSpec("EB_RBErr", 1, SignalGroup.READ, "slave"),
    # write group (master drives data; slave acknowledges)
    SignalSpec("EB_WData", DATA_BITS, SignalGroup.WRITE, "master"),
    SignalSpec("EB_WDRdy", 1, SignalGroup.WRITE, "slave"),
    SignalSpec("EB_WBErr", 1, SignalGroup.WRITE, "slave"),
)

SIGNALS_BY_NAME: typing.Dict[str, SignalSpec] = {
    spec.name: spec for spec in EC_SIGNALS
}

SIGNALS_BY_GROUP: typing.Dict[SignalGroup, typing.Tuple[SignalSpec, ...]] = {
    group: tuple(s for s in EC_SIGNALS if s.group is group)
    for group in SignalGroup
}


def total_interface_bits() -> int:
    """Total number of interface wires (sanity metric for tests)."""
    return sum(spec.width for spec in EC_SIGNALS)


def hamming_distance(old: int, new: int, width: int) -> int:
    """Bit transitions between two values of a *width*-bit signal."""
    mask = (1 << width) - 1
    return ((old ^ new) & mask).bit_count()
