"""Gate-level ("layer 0") reference model: gate/net primitives, the
windowed glitch-aware netlist step, a synthesis library, the synthesised
address decoder and the independent signal-level EC bus."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bus_rtl": ("CONTROL_FLOP_COUNT", "RtlBus"),
    "decoder": ("AddressDecoder", "build_address_decoder", "required_width"),
    "gates": ("Flop", "Gate", "GateKind"),
    "netlist": ("Net", "Netlist", "NetlistError"),
    "library": ("library",),
})
