"""Gate-level power estimation — the Diesel substitute (§3.3, [10]).

The paper's reference numbers come from Philips' Diesel tool: a
gate-level power estimator attached to the gate-level simulator that
"uses information from the layout about parasitic capacitances and
resistances", "estimates the dissipated energy for each wire and module
on the chip", distinguishes "all combinations of signal transitions
with regard to their signal slopes" and reports "the number of
transitions between false, true and high-impedance".

This module reproduces that behaviour over our substrate:

* interface wires — per-bit layout capacitances from a wire-load
  table; rise and fall transitions carry different energies and
  simultaneous switching within a bundle adds a slope penalty
  (IR-drop slows edges, increasing short-circuit current); the EC
  interface's read and write buses are unidirectional, so no wire
  ever goes high-impedance,
* decoder — every internal net of the synthesised netlist, at its own
  capacitance, including glitch transitions,
* datapath — the bus controller's internal pipeline/mux nets, which
  toggle a configurable number of times per interface bus-bit
  transition (the slave read-data multiplexer, write buffers...),
* control — the bus controller's sequential registers,
* clock — the clock tree load of all sequential elements, charged
  twice per cycle.

The characterisation flow (:mod:`repro.power.characterize`) collapses
the per-wire report into the average-energy-per-transition table the
TLM models consume — exactly the abstraction step the paper describes.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import EC_SIGNALS

from .units import DEFAULT_VDD, transition_energy_pj

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtl.netlist import Netlist


@dataclasses.dataclass(frozen=True)
class WireLoadModel:
    """Layout parasitics and slope parameters of the bus wiring.

    Per-bit capacitances (fF) reflect the physical structure: address
    and data buses are long top-level routes spanning the die, control
    wires are shorter, and everything inside the bus controller is
    local.  ``rise_factor``/``fall_factor`` model the asymmetry of the
    P/N drive strengths; ``simultaneous_switching_alpha`` adds energy
    when many bits of one bundle switch in the same cycle.
    """

    wire_cap_ff: typing.Mapping[str, float]
    #: internal controller-datapath nets (pipeline registers, slave
    #: multiplexers) toggling per interface bus-bit transition
    datapath_depth: int = 4
    datapath_net_cap_ff: float = 10.0
    register_cap_ff: float = 5.0
    clock_pin_cap_ff: float = 1.6
    clock_wire_cap_ff: float = 90.0
    rise_factor: float = 1.05
    fall_factor: float = 0.95
    simultaneous_switching_alpha: float = 0.0015
    vdd: float = DEFAULT_VDD

    def bit_cap(self, signal_name: str) -> float:
        try:
            return self.wire_cap_ff[signal_name]
        except KeyError:
            raise KeyError(
                f"no wire load for signal {signal_name!r}") from None


def default_wire_load() -> WireLoadModel:
    """Wire loads for the modelled smart card floorplan.

    Calibrated so the bus-interface wiring dominates the subsystem
    (long top-level routes) while the decoder and control logic
    contribute the high-single-digit share the paper's gate-level
    reference attributes to logic the layer-1 model cannot see.
    """
    caps = {
        # address & control group (long top-level routes with one tap
        # per slave plus the security/scrambling buffers smart card
        # buses carry)
        "EB_A": 420.0, "EB_AValid": 280.0, "EB_Instr": 220.0,
        "EB_Write": 220.0, "EB_Burst": 220.0, "EB_BFirst": 200.0,
        "EB_BLast": 200.0, "EB_BE": 240.0, "EB_ARdy": 280.0,
        # read group
        "EB_RData": 460.0, "EB_RdVal": 280.0, "EB_RBErr": 180.0,
        # write group
        "EB_WData": 460.0, "EB_WDRdy": 280.0, "EB_WBErr": 180.0,
    }
    return WireLoadModel(caps)


class InterfaceActivityLog:
    """Per-signal switching statistics of the interface wires.

    Recorded once per cycle from the RTL bus's old/new values; keeps
    rise and fall counts separately and a simultaneity weight
    (sum over cycles of t*(t-1) where t = bits toggling that cycle).
    """

    def __init__(self) -> None:
        self.rises = {spec.name: 0 for spec in EC_SIGNALS}
        self.falls = {spec.name: 0 for spec in EC_SIGNALS}
        self.simultaneity = {spec.name: 0 for spec in EC_SIGNALS}
        self.cycles = 0

    def record_cycle(self, old: typing.Mapping[str, int],
                     new: typing.Mapping[str, int]) -> None:
        self.cycles += 1
        for name, new_value in new.items():
            toggled = old[name] ^ new_value
            if toggled:
                total = toggled.bit_count()
                rises = (toggled & new_value).bit_count()
                self.rises[name] += rises
                self.falls[name] += total - rises
                self.simultaneity[name] += total * (total - 1)

    def transitions(self, signal_name: str) -> int:
        return self.rises[signal_name] + self.falls[signal_name]

    def total_transitions(self) -> int:
        return sum(self.transitions(spec.name) for spec in EC_SIGNALS)


@dataclasses.dataclass
class DieselReport:
    """The estimator's output: energy per wire and per module."""

    wire_energy_pj: typing.Dict[str, float]
    wire_transitions: typing.Dict[str, int]
    module_energy_pj: typing.Dict[str, float]
    glitch_transitions: int
    cycles: int

    @property
    def total_energy_pj(self) -> float:
        return sum(self.module_energy_pj.values())

    def module_share(self, module: str) -> float:
        total = self.total_energy_pj
        return self.module_energy_pj[module] / total if total else 0.0

    def average_energy_per_transition(self, signal_name: str
                                      ) -> typing.Optional[float]:
        """The paper's abstraction: mean pJ per transition of a wire."""
        transitions = self.wire_transitions.get(signal_name, 0)
        if not transitions:
            return None
        return self.wire_energy_pj[signal_name] / transitions

    def format_summary(self) -> str:
        lines = [f"Diesel estimate over {self.cycles} cycles:"]
        for module, energy in sorted(self.module_energy_pj.items()):
            share = 100.0 * self.module_share(module)
            lines.append(f"  {module:<10} {energy:12.2f} pJ ({share:5.1f}%)")
        lines.append(f"  {'total':<10} {self.total_energy_pj:12.2f} pJ")
        lines.append(f"  glitch transitions: {self.glitch_transitions}")
        return "\n".join(lines)


class DieselEstimator:
    """Computes a :class:`DieselReport` from collected activity."""

    def __init__(self, wire_load: typing.Optional[WireLoadModel] = None
                 ) -> None:
        self.wire_load = wire_load or default_wire_load()

    def estimate(self, activity: InterfaceActivityLog,
                 netlists: typing.Sequence["Netlist"] = (),
                 control_register_toggles: int = 0,
                 control_flop_count: int = 0,
                 cycles: typing.Optional[int] = None) -> DieselReport:
        """Turn activity logs into per-wire and per-module energies."""
        load = self.wire_load
        vdd = load.vdd
        cycles = activity.cycles if cycles is None else cycles
        wire_energy: typing.Dict[str, float] = {}
        wire_transitions: typing.Dict[str, int] = {}
        interface_total = 0.0
        for spec in EC_SIGNALS:
            name = spec.name
            base = transition_energy_pj(load.bit_cap(name), vdd)
            energy = (activity.rises[name] * load.rise_factor
                      + activity.falls[name] * load.fall_factor
                      + activity.simultaneity[name]
                      * load.simultaneous_switching_alpha) * base
            wire_energy[name] = energy
            wire_transitions[name] = activity.transitions(name)
            interface_total += energy
        # decoder netlists: every internal net at its own capacitance,
        # glitches already included in the transition counts
        decoder_total = 0.0
        glitches = 0
        for netlist in netlists:
            caps, transitions, net_glitches = netlist.net_activity()
            for cap_ff, count in zip(caps, transitions):
                if count:
                    decoder_total += count * transition_energy_pj(cap_ff,
                                                                  vdd)
            glitches += sum(net_glitches)
        # controller datapath: mux/pipeline nets behind the data and
        # address buses switch with every bus-bit transition — visible
        # to the gate-level estimator, invisible to the TLM layers
        datapath_transitions = 0
        for name in ("EB_A", "EB_RData", "EB_WData", "EB_BE"):
            datapath_transitions += (activity.rises[name]
                                     + activity.falls[name])
        datapath_total = (datapath_transitions * load.datapath_depth
                          * transition_energy_pj(load.datapath_net_cap_ff,
                                                 vdd))
        # control registers of the bus controller
        control_total = control_register_toggles * transition_energy_pj(
            load.register_cap_ff, vdd)
        # clock tree: flop clock pins plus the clock route, twice/cycle
        flops = control_flop_count + sum(
            len(netlist.flops) for netlist in netlists)
        clock_cap = flops * load.clock_pin_cap_ff + load.clock_wire_cap_ff
        clock_total = 2 * cycles * transition_energy_pj(clock_cap, vdd)
        modules = {
            "interface": interface_total,
            "decoder": decoder_total,
            "datapath": datapath_total,
            "control": control_total,
            "clock": clock_total,
        }
        return DieselReport(wire_energy, wire_transitions, modules,
                            glitches, cycles)
