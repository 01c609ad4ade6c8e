"""Address decoding and the system memory map.

The bus controller the paper models "contains the address decoder and
bus control logic" (§3).  :class:`MemoryMap` is the behavioural address
decoder shared by the TLM layers; the gate-level model synthesises the
equivalent comparator network in :mod:`repro.rtl.bus_rtl`.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

from .interfaces import Slave
from .types import ADDRESS_MASK, TransactionKind


class DecodeError(LookupError):
    """No slave claims the address (decoded as a bus error)."""


class MapConflictError(ValueError):
    """Two slaves claim overlapping address ranges."""


#: Longest bridge chain :meth:`MemoryMap.resolve` will follow.  Real
#: fabrics are two or three segments deep; anything longer is almost
#: certainly a bridge cycle, which would otherwise loop forever.
MAX_ROUTE_DEPTH = 8


@dataclasses.dataclass(frozen=True)
class Region:
    """One decoded window of the memory map."""

    base: int
    size: int
    slave: Slave
    name: str

    @property
    def end(self) -> int:
        """One past the last address of the window."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


@dataclasses.dataclass(frozen=True)
class Route:
    """The decoded path from one bus to the terminal slave.

    ``regions[0]`` is the window on the originating bus (a local slave
    or the first bridge); every following entry is one bus segment
    further downstream; ``regions[-1]`` is the terminal slave that
    actually services the data.  A flat (single-bus) decode is a route
    of length one.
    """

    regions: typing.Tuple[Region, ...]

    @property
    def terminal(self) -> Region:
        """The region of the slave that finally services the access."""
        return self.regions[-1]

    @property
    def bridges(self) -> typing.Tuple[Region, ...]:
        """The bridge hops crossed on the way (may be empty)."""
        return self.regions[:-1]

    @property
    def hops(self) -> int:
        """Number of bridges crossed (0 on a flat map)."""
        return len(self.regions) - 1


class MemoryMap:
    """The address decoder: sorted, non-overlapping slave windows."""

    def __init__(self) -> None:
        self._regions: typing.List[Region] = []
        self._bases: typing.List[int] = []

    def add_slave(self, slave: Slave,
                  name: typing.Optional[str] = None) -> Region:
        """Register *slave* at its own base address/size window."""
        base = slave.base_address
        size = slave.size
        if size <= 0:
            raise MapConflictError(f"slave {name!r} has non-positive size")
        if base < 0 or base + size - 1 > ADDRESS_MASK:
            raise MapConflictError(
                f"slave window [{base:#x}, {base + size:#x}) exceeds "
                f"the 36-bit address space")
        region = Region(base, size, slave, name or type(slave).__name__)
        index = bisect.bisect_left(self._bases, base)
        if index > 0 and self._regions[index - 1].end > base:
            raise MapConflictError(self._conflict_message(
                region, self._regions[index - 1]))
        if index < len(self._regions) and region.end > self._bases[index]:
            raise MapConflictError(self._conflict_message(
                region, self._regions[index]))
        self._regions.insert(index, region)
        self._bases.insert(index, base)
        return region

    @staticmethod
    def _conflict_message(new: Region, existing: Region) -> str:
        """Name *both* windows: which mapping failed, and what it hit."""
        return (f"cannot map {new.name!r} "
                f"[{new.base:#x}, {new.end:#x}): overlaps "
                f"{existing.name!r} "
                f"[{existing.base:#x}, {existing.end:#x})")

    def decode(self, address: int) -> Region:
        """Return the region containing *address*.

        Raises :class:`DecodeError` when no slave claims it — the bus
        turns this into a bus-error response.
        """
        index = bisect.bisect_right(self._bases, address) - 1
        if index >= 0 and self._regions[index].contains(address):
            return self._regions[index]
        raise DecodeError(f"no slave at address {address:#x}")

    def decode_checked(self, address: int, kind: TransactionKind,
                       num_bytes: int) -> Region:
        """Decode and enforce rights + window containment for a burst.

        Raises :class:`DecodeError` when the address misses, the burst
        crosses out of the window, or the slave's access rights forbid
        the transaction kind.
        """
        region = self.decode(address)
        if address + num_bytes > region.end:
            raise DecodeError(
                f"access [{address:#x}, {address + num_bytes:#x}) "
                f"crosses out of {region.name}")
        if not region.slave.access_rights.permits(kind):
            raise DecodeError(
                f"{kind.value} not permitted on {region.name} "
                f"(rights: {region.slave.access_rights})")
        return region

    # -- hierarchical routing ----------------------------------------------

    def resolve(self, address: int) -> Route:
        """Decode *address*, following bridges to the terminal slave.

        On a flat map this is :meth:`decode` wrapped in a one-hop
        :class:`Route`.  When the decoded region is a bridge, decoding
        continues on the bridge's downstream map — the address space is
        global, so no translation happens at the hop.  Raises
        :class:`DecodeError` on a miss at any hop, or when the chain
        exceeds :data:`MAX_ROUTE_DEPTH` (a bridge cycle).
        """
        return self._resolve(address, lambda m: m.decode(address))

    def resolve_checked(self, address: int, kind: TransactionKind,
                        num_bytes: int) -> Route:
        """Like :meth:`resolve`, but enforce rights + containment at
        every hop with :meth:`decode_checked` — a burst must fit the
        bridge window upstream *and* the terminal window downstream,
        and every hop's access rights must permit the kind."""
        return self._resolve(
            address,
            lambda m: m.decode_checked(address, kind, num_bytes))

    def _resolve(self, address: int, decode_one) -> Route:
        regions: typing.List[Region] = []
        memory_map: "MemoryMap" = self
        for _ in range(MAX_ROUTE_DEPTH + 1):
            region = decode_one(memory_map)
            regions.append(region)
            downstream = getattr(region.slave, "downstream_map", None)
            if downstream is None:
                return Route(tuple(regions))
            memory_map = downstream
        raise DecodeError(
            f"route to {address:#x} exceeds {MAX_ROUTE_DEPTH} bridge "
            f"hops — bridge cycle? ({' -> '.join(r.name for r in regions)})")

    @property
    def regions(self) -> typing.Tuple[Region, ...]:
        """All windows in ascending base-address order."""
        return tuple(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

    def __repr__(self) -> str:
        windows = ", ".join(
            f"{r.name}@[{r.base:#x},{r.end:#x})" for r in self._regions)
        return f"MemoryMap({windows})"
