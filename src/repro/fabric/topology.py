"""Declarative multi-bus topologies.

A :class:`Topology` is a pure description — segment names, the slaves
each segment hosts, which bridges join them, and each segment's
arbitration policy.  :func:`repro.fabric.build_fabric` turns one into
live buses, maps and bridges;
:class:`~repro.soc.SmartCardPlatform` accepts one (or a preset name)
and builds the Figure-1 card around it.

The topology must be a tree rooted at :attr:`Topology.root`: every
non-root segment is fed by exactly one bridge.  That is what real
bridged fabrics are (AHB → APB), and it is what keeps routing loop-free
without address translation.
"""

from __future__ import annotations

import dataclasses
import typing

#: slave order of the flat Figure-1 platform — the canonical map
FLAT_SLAVES = ("rom", "flash", "eeprom", "ram",
               "uart", "timers", "trng", "intc")

#: the two-segment preset: memories stay on the CPU bus, the
#: memory-mapped peripherals move behind the bridge
CPU_SLAVES = ("rom", "flash", "eeprom", "ram")
PERIPHERAL_SLAVES = ("uart", "timers", "trng", "intc")

ARBITER_POLICIES = ("priority", "round_robin", "priority_rr")


@dataclasses.dataclass(frozen=True)
class SegmentSpec:
    """One bus segment: a name, its slaves, optional arbitration."""

    name: str
    slaves: typing.Tuple[str, ...]
    #: arbitration policy when the segment has several masters
    #: (see :class:`~repro.tlm.BusArbiter`); None = single master
    arbiter: typing.Optional[str] = None

    def __post_init__(self) -> None:
        if self.arbiter is not None and self.arbiter not in ARBITER_POLICIES:
            raise ValueError(
                f"segment {self.name!r}: unknown arbitration policy "
                f"{self.arbiter!r}; expected one of {ARBITER_POLICIES}")


@dataclasses.dataclass(frozen=True)
class BridgeSpec:
    """One bridge: upstream segment → downstream segment."""

    name: str
    upstream: str
    downstream: str
    #: address-phase wait states every crossing transaction pays
    crossing_cycles: int = 1
    #: bounded posted-write queue depth (full queue back-pressures)
    posted_depth: int = 2

    def __post_init__(self) -> None:
        if self.crossing_cycles < 0:
            raise ValueError(
                f"bridge {self.name!r}: crossing_cycles must be >= 0")
        if self.posted_depth < 1:
            raise ValueError(
                f"bridge {self.name!r}: posted_depth must be >= 1")


class Topology:
    """A validated tree of bus segments joined by bridges."""

    def __init__(self, segments: typing.Sequence[SegmentSpec],
                 bridges: typing.Sequence[BridgeSpec] = (),
                 root: typing.Optional[str] = None) -> None:
        if not segments:
            raise ValueError("a topology needs at least one segment")
        self.segments: typing.Tuple[SegmentSpec, ...] = tuple(segments)
        self.bridges: typing.Tuple[BridgeSpec, ...] = tuple(bridges)
        self.root = root if root is not None else self.segments[0].name
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        names = [segment.name for segment in self.segments]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate segment names in {names}")
        if self.root not in names:
            raise ValueError(f"root segment {self.root!r} is not one "
                             f"of {names}")
        slave_names = [slave for segment in self.segments
                       for slave in segment.slaves]
        if len(set(slave_names)) != len(slave_names):
            raise ValueError(
                f"a slave may live on only one segment; duplicates in "
                f"{sorted(slave_names)}")
        bridge_names = [bridge.name for bridge in self.bridges]
        if len(set(bridge_names)) != len(bridge_names):
            raise ValueError(f"duplicate bridge names in {bridge_names}")
        clash = set(bridge_names) & set(slave_names)
        if clash:
            raise ValueError(f"bridge names clash with slave names: "
                             f"{sorted(clash)}")
        fed_by: typing.Dict[str, str] = {}
        for bridge in self.bridges:
            for end, label in ((bridge.upstream, "upstream"),
                               (bridge.downstream, "downstream")):
                if end not in names:
                    raise ValueError(
                        f"bridge {bridge.name!r}: {label} segment "
                        f"{end!r} is not one of {names}")
            if bridge.downstream == self.root:
                raise ValueError(
                    f"bridge {bridge.name!r} feeds the root segment "
                    f"{self.root!r}; the root has no upstream")
            if bridge.downstream in fed_by:
                raise ValueError(
                    f"segment {bridge.downstream!r} is fed by two "
                    f"bridges ({fed_by[bridge.downstream]!r} and "
                    f"{bridge.name!r}); the topology must be a tree")
            fed_by[bridge.downstream] = bridge.name
        # every non-root segment must be reachable from the root —
        # this also rules out bridge cycles detached from the tree
        reachable = {self.root}
        frontier = [self.root]
        while frontier:
            segment = frontier.pop()
            for bridge in self.bridges:
                if (bridge.upstream == segment
                        and bridge.downstream not in reachable):
                    reachable.add(bridge.downstream)
                    frontier.append(bridge.downstream)
        unreachable = set(names) - reachable
        if unreachable:
            raise ValueError(
                f"segments unreachable from root {self.root!r}: "
                f"{sorted(unreachable)} — every non-root segment needs "
                f"a bridge chain from the root")

    # -- queries ------------------------------------------------------------

    @property
    def is_flat(self) -> bool:
        """True for a single-segment (bridge-free) topology."""
        return len(self.segments) == 1

    def segment(self, name: str) -> SegmentSpec:
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise KeyError(f"no segment named {name!r}")

    def bridges_from(self, segment: str) -> typing.Tuple[BridgeSpec, ...]:
        """Bridges whose upstream side is *segment*, in spec order."""
        return tuple(bridge for bridge in self.bridges
                     if bridge.upstream == segment)

    def slave_names(self) -> typing.Tuple[str, ...]:
        return tuple(slave for segment in self.segments
                     for slave in segment.slaves)

    def with_slave(self, segment_name: str, slave: str) -> "Topology":
        """A new topology with *slave* appended to *segment_name*
        (no-op when the slave is already placed somewhere)."""
        if slave in self.slave_names():
            return self
        segments = tuple(
            dataclasses.replace(spec, slaves=spec.slaves + (slave,))
            if spec.name == segment_name else spec
            for spec in self.segments)
        return Topology(segments, self.bridges, self.root)

    def with_arbiter(self, segment_name: str,
                     policy: str) -> "Topology":
        """A new topology with *segment_name* arbitrated by *policy*."""
        self.segment(segment_name)  # raises on unknown name
        segments = tuple(
            dataclasses.replace(spec, arbiter=policy)
            if spec.name == segment_name else spec
            for spec in self.segments)
        return Topology(segments, self.bridges, self.root)

    # -- presets ------------------------------------------------------------

    @classmethod
    def flat(cls, arbiter: typing.Optional[str] = None) -> "Topology":
        """The single-bus Figure-1 topology (the card's default)."""
        return cls((SegmentSpec("bus", FLAT_SLAVES, arbiter=arbiter),))

    @classmethod
    def two_segment(cls, crossing_cycles: int = 1, posted_depth: int = 2,
                    arbiter: typing.Optional[str] = None) -> "Topology":
        """CPU bus (memories) + peripheral bus behind one bridge.

        *arbiter* arbitrates the CPU (root) segment, where a DMA
        engine contends with the CPU for the bridge.
        """
        return cls(
            (SegmentSpec("cpu", CPU_SLAVES, arbiter=arbiter),
             SegmentSpec("periph", PERIPHERAL_SLAVES)),
            (BridgeSpec("bridge", "cpu", "periph",
                        crossing_cycles=crossing_cycles,
                        posted_depth=posted_depth),))

    @classmethod
    def coerce(cls, value: typing.Union["Topology", str, None]
               ) -> "Topology":
        """None / preset name / instance → a :class:`Topology`."""
        if value is None or value == "flat":
            return cls.flat()
        if value == "two_segment":
            return cls.two_segment()
        if isinstance(value, cls):
            return value
        raise ValueError(
            f"unknown topology {value!r}; expected a Topology, "
            f"'flat' or 'two_segment'")

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{segment.name}({', '.join(segment.slaves)})"
            for segment in self.segments)
        return f"Topology({parts}; bridges={len(self.bridges)})"
