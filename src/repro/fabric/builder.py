"""Build a live bus fabric from a declarative :class:`Topology`.

One :func:`build_fabric` call turns segment/bridge specs into memory
maps, bus models (any rung :func:`repro.soc.layers.build_bus` builds),
bridges and arbiters, wired bottom-up so every bridge is a slave on its
upstream map and a master on its downstream bus.  The resulting :class:`BusFabric` owns
the per-link energy buckets — one per segment bus model, bridge and
arbiter — and can telescope them into a single probe total
(:meth:`BusFabric.energy_report`), the invariant the fabric campaign
enforces.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import MemoryMap
from repro.power.psm import CardPowerModel

from .bridge import BusBridge
from .topology import Topology

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel import Clock, Simulator


class _ModelLedger:
    """Adapter: a segment bus power model as an ``energy_pj`` ledger."""

    def __init__(self, name: str, model: typing.Any) -> None:
        self.name = name
        self.model = model

    @property
    def energy_pj(self) -> float:
        return self.model.total_energy_pj

    def __repr__(self) -> str:
        return f"_ModelLedger({self.name!r})"


@dataclasses.dataclass
class FabricSegment:
    """One built segment: its decoder, bus, power model, arbiter."""

    name: str
    memory_map: MemoryMap
    bus: typing.Any
    power_model: typing.Any = None  # transaction-level; None at gate level
    arbiter: typing.Any = None
    layer_bus: typing.Any = None  # the rung (repro.soc.layers.LayerBus)


@dataclasses.dataclass(frozen=True)
class FabricEnergyReport:
    """Per-link buckets and their telescoped probe total."""

    buckets: typing.Dict[str, float]
    probe_total_pj: float

    @property
    def bucket_sum_pj(self) -> float:
        # same left-to-right addition order as the composite probe, so
        # a balanced fabric matches to the last bit
        total = 0.0
        for value in self.buckets.values():
            total += value
        return total

    @property
    def imbalance_pj(self) -> float:
        return self.probe_total_pj - self.bucket_sum_pj

    @property
    def balanced(self) -> bool:
        """Exact (bitwise) telescoping of buckets into the probe."""
        return self.probe_total_pj == self.bucket_sum_pj


class BusFabric:
    """A built topology: segments, bridges and their energy buckets."""

    def __init__(self, topology: Topology,
                 segments: typing.Dict[str, FabricSegment],
                 bridges: typing.Dict[str, BusBridge]) -> None:
        self.topology = topology
        self.segments = segments
        self.bridges = bridges

    # -- shorthands ---------------------------------------------------------

    @property
    def root(self) -> FabricSegment:
        return self.segments[self.topology.root]

    @property
    def root_bus(self) -> typing.Any:
        return self.root.bus

    def segment(self, name: str) -> FabricSegment:
        return self.segments[name]

    def bridge(self, name: str) -> BusBridge:
        return self.bridges[name]

    def master_port(self, segment_name: str, name: str,
                    priority: int = 0) -> typing.Any:
        """A new arbiter port on *segment_name* for an extra master."""
        segment = self.segments[segment_name]
        if segment.arbiter is None:
            raise ValueError(
                f"segment {segment_name!r} has no arbiter; declare one "
                f"in the topology to attach multiple masters")
        return segment.arbiter.port(name, priority=priority)

    # -- energy attribution -------------------------------------------------

    def sync_accounts(self) -> None:
        """Bring lazily-accrued accounts (layer 2's per-cycle clock
        baseline) up to each segment's current cycle."""
        for segment in self.segments.values():
            account = getattr(segment.power_model, "account_cycles", None)
            if account is not None:
                account(segment.bus.cycle)

    def _link_ledgers(self) -> typing.List[typing.Any]:
        """Non-root per-link ledgers in canonical (telescoping) order:
        non-root segment models, then bridges, then arbiters."""
        ledgers: typing.List[typing.Any] = []
        for spec in self.topology.segments:
            segment = self.segments[spec.name]
            if (spec.name != self.topology.root
                    and segment.power_model is not None):
                ledgers.append(_ModelLedger(f"bus:{spec.name}",
                                            segment.power_model))
        for spec in self.topology.bridges:
            ledgers.append(self.bridges[spec.name])
        for spec in self.topology.segments:
            segment = self.segments[spec.name]
            if segment.arbiter is not None:
                ledgers.append(segment.arbiter)
        return ledgers

    def composite(self, extra_ledgers: typing.Sequence[typing.Any] = ()
                  ) -> CardPowerModel:
        """One :class:`~repro.power.CardPowerModel` over every link:
        the root bus model plus every per-link ledger (plus any
        *extra_ledgers* — peripherals, DMA, PSMs)."""
        return CardPowerModel(
            self.root.power_model,
            ledgers=self._link_ledgers() + list(extra_ledgers))

    def link_energy_pj(self, extra_ledgers: typing.Sequence[typing.Any]
                       = ()) -> typing.Dict[str, float]:
        """Per-link buckets, in the composite's addition order."""
        self.sync_accounts()
        buckets: typing.Dict[str, float] = {}
        root_model = self.root.power_model
        buckets[f"bus:{self.topology.root}"] = (
            root_model.total_energy_pj if root_model is not None else 0.0)
        for ledger in self._link_ledgers():
            name = getattr(ledger, "name", None) or repr(ledger)
            if isinstance(ledger, BusBridge):
                name = f"bridge:{ledger.name}"
            elif not isinstance(ledger, _ModelLedger):
                name = f"arbiter:{name}"
            buckets[name] = ledger.energy_pj
        for index, ledger in enumerate(extra_ledgers):
            name = getattr(ledger, "name", f"ledger{index}")
            key = f"ledger:{name}"
            # disambiguate duplicate names (a peripheral and its power
            # state machine both answer to "uart"): a silently collapsed
            # bucket would break the telescoping invariant
            while key in buckets:
                key = f"{key}+"
            buckets[key] = ledger.energy_pj
        return buckets

    def energy_report(self, extra_ledgers: typing.Sequence[typing.Any]
                      = ()) -> FabricEnergyReport:
        """Buckets + probe total; ``balanced`` is the telescoping
        invariant: the composite probe equals the bucket sum exactly
        (same ledgers, same addition order — any ledger registered
        twice, dropped, or double-booked breaks the equality)."""
        buckets = self.link_energy_pj(extra_ledgers)
        probe = self.composite(extra_ledgers).total_energy_pj
        return FabricEnergyReport(buckets=buckets, probe_total_pj=probe)

    # -- diagnostics --------------------------------------------------------

    @property
    def posted_writes_pending(self) -> int:
        return sum(bridge.posted_occupancy
                   for bridge in self.bridges.values())

    def transactions_completed(self) -> typing.Dict[str, int]:
        return {name: segment.bus.transactions_completed
                for name, segment in self.segments.items()}

    def __repr__(self) -> str:
        return (f"BusFabric(root={self.topology.root!r}, "
                f"segments={list(self.segments)}, "
                f"bridges={list(self.bridges)})")


def build_fabric(topology: Topology,
                 slaves: typing.Mapping[str, typing.Any],
                 bus_layer: typing.Union[int, str] = 1,
                 simulator: typing.Optional["Simulator"] = None,
                 clock: typing.Optional["Clock"] = None,
                 table: typing.Any = None,
                 power_model: typing.Any = None,
                 ) -> BusFabric:
    """Instantiate *topology* over the named *slaves*.

    * ``bus_layer`` names the rung of every segment bus (see
      :func:`repro.soc.layers.layer_name`), each built through
      :func:`repro.soc.layers.build_bus`.  The clocked rungs need
      *simulator* and *clock*, and gate level only builds a
      single-segment topology — it models the flat card;
      ``"layer3"`` (or ``3``) builds untimed segments whose routing is
      synchronous, and no arbiter.
    * ``power_model`` is the root segment's bus power model; with a
      characterisation *table* every other segment gets a fresh model
      of its own, and without one it runs unpriced.
    * Each bridge becomes a slave window on its upstream map (spanning
      the downstream map) and a master on the downstream segment — via
      a priority-0 arbiter port when the downstream segment declares
      an arbiter, directly on the bus otherwise.
    """
    from repro.soc.layers import build_bus, layer_name
    from repro.tlm.arbiter import BusArbiter

    bus_layer = layer_name(bus_layer)
    timed = bus_layer != "layer3"
    if bus_layer == "gate-level" and not topology.is_flat:
        raise ValueError("a routed topology needs transaction-level "
                         "segment buses; gate level models the flat "
                         "card")
    if timed and (simulator is None or clock is None):
        raise ValueError("timed bus layers need a simulator and clock")

    missing = [name for name in topology.slave_names()
               if name not in slaves]
    if missing:
        raise ValueError(f"topology names slaves the platform does not "
                         f"provide: {missing}")

    segments: typing.Dict[str, FabricSegment] = {}
    bridges: typing.Dict[str, BusBridge] = {}

    def build_segment(spec_name: str) -> FabricSegment:
        spec = topology.segment(spec_name)
        if spec.arbiter is not None and not timed:
            raise ValueError(
                f"segment {spec_name!r}: arbitration is a timed "
                f"concept; layer 3 is untimed")
        memory_map = MemoryMap()
        for slave_name in spec.slaves:
            memory_map.add_slave(slaves[slave_name], slave_name)
        pending = []
        for bridge_spec in topology.bridges_from(spec_name):
            child = build_segment(bridge_spec.downstream)
            bridge = BusBridge(
                bridge_spec.name, child.memory_map,
                crossing_cycles=bridge_spec.crossing_cycles,
                posted_depth=bridge_spec.posted_depth)
            memory_map.add_slave(bridge, bridge_spec.name)
            bridges[bridge_spec.name] = bridge
            pending.append((bridge, child))
        layer_bus = build_bus(
            bus_layer, simulator, clock, memory_map, table=table,
            power_model=power_model if spec_name == topology.root else None,
            name=f"ec_bus_{spec_name}")
        bus = layer_bus.bus
        arbiter = (BusArbiter(simulator, clock, bus, policy=spec.arbiter,
                              name=f"{spec_name}_arbiter")
                   if spec.arbiter is not None else None)
        segment = FabricSegment(spec_name, memory_map, bus,
                                power_model=layer_bus.tlm_model,
                                arbiter=arbiter, layer_bus=layer_bus)
        for bridge, child in pending:
            downstream = (child.arbiter.port(bridge.name, priority=0)
                          if child.arbiter is not None else child.bus)
            if timed:
                bridge.connect(downstream, simulator, clock)
            else:
                bridge.connect(downstream)
        segments[spec_name] = segment
        return segment

    build_segment(topology.root)
    return BusFabric(topology, segments, bridges)
