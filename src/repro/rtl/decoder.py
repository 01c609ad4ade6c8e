"""Gate-level address decoder synthesised from a memory map.

The bus controller the paper models "contains the address decoder and
bus control logic" (§3).  This builder turns a behavioural
:class:`~repro.ec.MemoryMap` into a real gate netlist: one range
comparator per slave window plus a miss detector.  Because the
comparators are trees of real gates with unit delays, an address-bus
change ripples through them and produces transient toggles — the glitch
energy that separates the gate-level estimate from the layer-1 model.

The bus drives an address every cycle with :meth:`AddressDecoder.drive`
and never reads the decoder back: its functional decode is the memory
map's.  The netlist is purely combinational, so it defers those cycles
into one bit-parallel window (:mod:`repro.rtl.netlist`) that settles
when its activity is read — by the Diesel estimate, as a rule.
:meth:`AddressDecoder.evaluate` is drive, settle, then read the select.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro.ec import ADDRESS_BITS, MemoryMap, Region

from .library import or_tree, range_decoder
from .netlist import Netlist

#: Capacitance of a decoder-internal net (fF) — short local wires.
DECODER_NET_CAP_FF = 1.5
#: Fanout load within the decoder (fF per connection).
DECODER_FANOUT_CAP_FF = 0.6

#: A memory-map layout as the synthesis sees it: (name, base, end) per
#: region, in map order.
Layout = typing.Tuple[typing.Tuple[str, int, int], ...]


@dataclasses.dataclass
class AddressDecoder:
    """A synthesised decoder plus the mapping back to regions."""

    netlist: Netlist
    width: int
    select_names: typing.Dict[str, Region]  # output name -> region
    miss_name: str

    def __post_init__(self) -> None:
        self.netlist.initialize()
        names = tuple(f"a{i}" for i in range(self.width))
        if self.netlist.input_names != names:
            raise ValueError(
                f"decoder inputs must be a0..a{self.width - 1}, LSB "
                f"first: bit j of an address flips the j-th input")
        #: the address the input nets currently hold
        self._address = sum(self.netlist.input_value(name) << bit
                            for bit, name in enumerate(names))

    def drive(self, address: int) -> None:
        """Drive *address* for one cycle; the netlist defers it.

        Only the address bits that differ from the last driven address
        flip input nets, so a repeated address is a quiet cycle.
        Raises ValueError, at once, for an address the decoder's inputs
        cannot carry.
        """
        if not 0 <= address < 1 << self.width:
            raise ValueError(
                f"address {address:#x} outside the {self.width}-bit "
                f"decoder input")
        self.netlist.drive(address ^ self._address)
        self._address = address

    def evaluate(self, address: int) -> typing.Optional[Region]:
        """Drive *address* for one cycle and settle it; return the
        selected region (None on a miss).

        Glitch/transition activity accumulates in :attr:`netlist`.
        """
        self.drive(address)
        netlist = self.netlist
        # the first read settles the window this cycle joined
        if netlist.output_value(self.miss_name):
            return None
        for name, region in self.select_names.items():
            if netlist.output_value(name):
                return region
        # can only happen if the netlist disagrees with itself
        raise AssertionError("decoder selected no region and no miss")

    def idle_cycle(self) -> None:
        """One cycle with the address bus unchanged (held value)."""
        self.netlist.drive()


def required_width(memory_map: MemoryMap) -> int:
    """Number of low address bits the comparators must examine."""
    return _width(region.end for region in memory_map.regions)


def _width(ends: typing.Iterable[int]) -> int:
    return max(max(end - 1 for end in ends).bit_length(), 1)


def build_address_decoder(memory_map: MemoryMap,
                          address_bits: int = ADDRESS_BITS
                          ) -> AddressDecoder:
    """The decoder for *memory_map*.

    The netlist is synthesised and settled once per layout — the
    regions' (name, base, end) and *address_bits*; each call gets a
    fresh copy of that template, with zero activity, whose select
    outputs map to *memory_map*'s own regions.
    """
    if not memory_map.regions:
        raise ValueError("cannot build a decoder for an empty memory map")
    if required_width(memory_map) > address_bits:
        raise ValueError("memory map exceeds the address width")
    layout = tuple((region.name, region.base, region.end)
                   for region in memory_map.regions)
    netlist = _synthesise(layout, address_bits).fresh_copy()
    select_names = {f"sel_{region.name}": region
                    for region in memory_map.regions}
    return AddressDecoder(netlist, address_bits, select_names, "miss")


@functools.lru_cache(maxsize=16)
def _synthesise(layout: Layout, address_bits: int) -> Netlist:
    """Synthesise and settle the decoder netlist for *layout*.

    Low bits feed per-region range comparators; any high bit outside
    the populated range forces a miss (real decoders AND a "high bits
    zero" term into every select).  The result is cached per layout
    and is a read-only template: use :meth:`Netlist.fresh_copy`.
    """
    width = _width(end for _, _, end in layout)
    netlist = Netlist("address_decoder",
                      default_net_cap_ff=DECODER_NET_CAP_FF,
                      fanout_cap_ff=DECODER_FANOUT_CAP_FF)
    low_bits = [netlist.input(f"a{i}", DECODER_NET_CAP_FF)
                for i in range(width)]
    high_bits = [netlist.input(f"a{i}", DECODER_NET_CAP_FF)
                 for i in range(width, address_bits)]
    if high_bits:
        high_nonzero = or_tree(netlist, high_bits)
        high_zero = netlist.not_gate(high_nonzero)
    else:
        high_zero = None
    selects = []
    for name, base, end in layout:
        in_window = range_decoder(netlist, low_bits, base, end)
        if high_zero is not None:
            in_window = netlist.and_gate(in_window, high_zero)
        netlist.set_output(f"sel_{name}", in_window)
        selects.append(in_window)
    miss = netlist.not_gate(or_tree(netlist, selects))
    netlist.set_output("miss", miss)
    netlist.initialize()
    return netlist
