"""Gate-level ("layer 0") reference model: gate/net primitives, the
windowed glitch-aware netlist step, a synthesis library, the synthesised
address decoder and the independent signal-level EC bus."""

from .bus_rtl import CONTROL_FLOP_COUNT, RtlBus
from .decoder import AddressDecoder, build_address_decoder, required_width
from .gates import Flop, Gate, GateKind
from .netlist import Net, Netlist, NetlistError
from . import library

__all__ = [
    "AddressDecoder",
    "CONTROL_FLOP_COUNT",
    "Flop",
    "Gate",
    "GateKind",
    "Net",
    "Netlist",
    "NetlistError",
    "RtlBus",
    "build_address_decoder",
    "library",
    "required_width",
]
