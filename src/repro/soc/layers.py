"""The model hierarchy's rungs, built and priced in one place.

The paper replays one memory map and one stimulus on every rung of a
model hierarchy (§3, §4.1).  Each rung is a bus class, an energy model
and a rule for reading the final energy:

``"gate-level"``
    :class:`~repro.rtl.RtlBus`; its energy model is the
    :class:`~repro.power.diesel.InterfaceActivityLog` the bus fills,
    priced after the run by the Diesel estimator (wires, decoder nets
    and control registers).
``"layer1"``
    :class:`~repro.tlm.EcBusLayer1` with
    :class:`~repro.power.Layer1PowerModel` (per-signal transition
    energy, cycle by cycle).
``"layer2"``
    :class:`~repro.tlm.EcBusLayer2` with
    :class:`~repro.power.Layer2PowerModel` (per-phase energy); the
    model accrues the clock baseline lazily, so the final read first
    brings it up to the bus's last cycle.
``"layer3"``
    :class:`~repro.tlm.EcBusLayer3`, the untimed message layer: no
    clock, no energy model yet (:meth:`LayerBus.energy_pj` is
    ``None``).  Scripts complete on it through
    :class:`~repro.tlm.MessageRun`.

A fresh clocked rung runs on a simulator and a clock of its own, at
the replay period :data:`CLOCK_PERIOD`; :func:`build_bus` makes both
when given neither.

:func:`layer_name` is the one layer vocabulary: the four names above,
plus the integers ``1``, ``2`` and ``3`` that
``SmartCardPlatform(bus_layer=)`` accepts.  Anything else is a
:class:`ValueError`.  :data:`LAYERS` holds the clocked rungs, the ones
a campaign sweeps by default; :func:`clocked_layer_name` is the check
for callers that need a clock.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.kernel import Clock, Simulator
from repro.power import Layer1PowerModel, Layer2PowerModel
from repro.tlm import EcBusLayer1, EcBusLayer2, EcBusLayer3

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ec import MemoryMap
    from repro.power import SignalStateRecorder
    from repro.power.diesel import DieselReport, WireLoadModel
    from repro.power.table import CharacterizationTable

#: the clock period a fresh rung replays at (kernel time units)
CLOCK_PERIOD = 100

#: the clocked rungs, from the most abstract to the reference
LAYERS = ("layer1", "layer2", "gate-level")

#: every rung: the clocked ones and the untimed message layer
_NAMES = LAYERS + ("layer3",)

_ALIASES = {1: "layer1", 2: "layer2", 3: "layer3"}


def layer_name(layer: typing.Union[str, int]) -> str:
    """The canonical name of *layer*; :class:`ValueError` when it names
    no rung."""
    name = _ALIASES.get(layer, layer) if isinstance(layer, int) else layer
    if name not in _NAMES:
        raise ValueError(f"unknown layer {layer!r}; choose from "
                         f"{', '.join(_NAMES)}")
    return name


def clocked_layer_name(layer: typing.Union[str, int]) -> str:
    """:func:`layer_name` for a caller that runs a clock:
    :class:`ValueError` on the untimed layer 3 too."""
    name = layer_name(layer)
    if name not in LAYERS:
        raise ValueError(f"layer {layer!r} is untimed; choose a clocked "
                         f"layer from {', '.join(LAYERS)}")
    return name


def _new_model(layer: str, table: "CharacterizationTable",
               recorder: typing.Optional["SignalStateRecorder"]):
    """A fresh energy model for *layer*: the layer-1/layer-2 model over
    *table*, or an empty activity log at gate level (Diesel needs no
    table, and the gate-level waveform is recorded by the bus)."""
    if layer == "layer1":
        return Layer1PowerModel(table, recorder=recorder)
    if layer == "layer2":
        return Layer2PowerModel(table)
    from repro.power.diesel import InterfaceActivityLog
    return InterfaceActivityLog()


@dataclasses.dataclass
class LayerBus:
    """One built rung: its bus and energy model (``None`` = unpriced,
    always so at layer 3), and the simulator and clock it runs on
    (``None`` at layer 3)."""

    layer: str
    bus: typing.Any
    power_model: typing.Any = None
    simulator: typing.Optional[Simulator] = None
    clock: typing.Optional[Clock] = None

    @property
    def tlm_model(self) -> typing.Any:
        """The transaction-level energy model (``None`` at gate level,
        where the model is an activity log, and when unpriced)."""
        return None if self.layer == "gate-level" else self.power_model

    def diesel_report(self, wire_load: typing.Optional[
            "WireLoadModel"] = None) -> "DieselReport":
        """The gate-level Diesel estimate of the run so far."""
        from repro.power.diesel import DieselEstimator
        bus = self.bus
        return DieselEstimator(wire_load).estimate(
            self.power_model, netlists=[bus.decoder.netlist],
            control_register_toggles=bus.control_register_toggles,
            control_flop_count=bus.control_flop_count,
            cycles=bus.cycle)

    def energy_pj(self) -> typing.Optional[float]:
        """The run's bus energy under this rung's reading rule, or
        ``None`` when the run is unpriced."""
        if self.power_model is None:
            return None
        if self.layer == "gate-level":
            return self.diesel_report().total_energy_pj
        if self.layer == "layer2":
            self.power_model.account_cycles(self.bus.cycle)
        return self.power_model.total_energy_pj


def build_bus(layer: typing.Union[str, int],
              simulator: typing.Optional[Simulator],
              clock: typing.Optional[Clock], memory_map: "MemoryMap",
              table: typing.Optional["CharacterizationTable"] = None,
              power_model: typing.Any = None,
              recorder: typing.Optional["SignalStateRecorder"] = None,
              **bus_options) -> LayerBus:
    """Build *layer*'s bus over *memory_map*, priced when *table* (or
    an explicit *power_model*) is given.

    A clocked rung runs on *simulator* and *clock* (a card's own);
    given neither, it gets a fresh simulator and a clock at
    :data:`CLOCK_PERIOD`, returned as :attr:`LayerBus.simulator` and
    :attr:`LayerBus.clock`.  Only one of the two is a
    :class:`ValueError`.  The model is built before the bus, and the
    map's dynamic slaves (EEPROM busy windows, fault wrappers) are
    bound to this bus's cycle counter after it — callers add their
    masters next, so process registration order is simulator, clock,
    bus, masters.
    *recorder* captures the per-cycle waveform (layer 1 through its
    power model, gate level through the bus); *bus_options* (``name``,
    layer 2's ``requery_wait_states``) go to the bus class.

    Layer 3 is untimed: it needs no *simulator* or *clock*, runs
    unpriced whatever the *table*, and leaves the slaves unbound (a
    dynamic slave then reads cycle 0).
    """
    layer = layer_name(layer)
    if (simulator is None) != (clock is None):
        raise ValueError("pass both a simulator and a clock, or neither")
    if recorder is not None and layer in ("layer2", "layer3"):
        raise ValueError(f"{layer} records no per-cycle waveform")
    if layer == "layer3":
        if power_model is not None:
            raise ValueError("layer 3 is unpriced")
        return LayerBus(layer, EcBusLayer3(memory_map, **bus_options))
    if power_model is None and table is not None:
        power_model = _new_model(layer, table, recorder)
    if simulator is None:
        simulator = Simulator(layer)
        clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
    if layer == "gate-level":
        from repro.rtl import RtlBus
        bus = RtlBus(simulator, clock, memory_map,
                     activity_log=power_model, recorder=recorder,
                     **bus_options)
    else:
        bus_class = EcBusLayer1 if layer == "layer1" else EcBusLayer2
        bus = bus_class(simulator, clock, memory_map,
                        power_model=power_model, **bus_options)
    for region in memory_map.regions:
        if hasattr(region.slave, "bind_cycle_source"):
            region.slave.bind_cycle_source(lambda: bus.cycle)
    return LayerBus(layer, bus, power_model, simulator, clock)
