"""Power characterisation: gate level → TLM coefficients (§3.3).

"We do characterization for embedded system design based on this smart
card architecture. ... We abstracted all different transitions and use
the average energy per transition for each signal."

The flow here is the paper's, with our substrate standing in for the
prototype + Diesel:

1. drive a characterisation workload through the signal-level RTL bus,
2. let the Diesel estimator produce per-wire energies and transition
   counts (slopes, simultaneous switching, parasitics included),
3. divide: one *average energy per transition* per interface signal,
4. additionally extract what the layer-2 model needs: the average
   inter-transaction Hamming distances of the address and data buses
   (layer 2 charges these constants because it cannot see the previous
   transaction), and the per-cycle clock baseline.

Everything the characterisation cannot attribute to interface wires —
decoder-internal activity, glitches, control registers — is *absent*
from the table; that is precisely why the layer-1 estimate
under-reports the gate-level reference (Table 2's −x%).
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.ec import EC_SIGNALS, MemoryMap, SIGNALS_BY_NAME
from repro.rtl import Netlist
from repro.soc.layers import build_bus
from repro.tlm import PipelinedMaster, run_script

from .diesel import (DieselReport, InterfaceActivityLog, WireLoadModel,
                     default_wire_load)
from .layer1 import SignalStateRecorder
from .table import CharacterizationTable
from .units import transition_energy_pj


@dataclasses.dataclass
class CharacterizationResult:
    """The produced table plus everything used to derive it."""

    table: CharacterizationTable
    report: DieselReport
    activity: InterfaceActivityLog
    cycles: int
    #: the gate-level decoder whose net activity the report priced
    netlist: Netlist


def extract_inter_transaction_hamming(
        recorder: SignalStateRecorder,
        completed: typing.Sequence = ()) -> typing.Tuple[float, float]:
    """Mean address/data-bus Hamming distances across transactions.

    Address: between the tenure-start (``EB_BFirst``) values of
    consecutive address phases, read off the wire trace.  Data: between
    the last data word of one transaction and the first data word of
    the next transaction in the same direction — exactly the distance
    the layer-2 model cannot compute because it considers each phase
    in isolation.
    """
    tenure_addresses = [values["EB_A"] for values in recorder.values
                        if values["EB_BFirst"]]
    if len(tenure_addresses) >= 2:
        distances = [(a ^ b).bit_count() for a, b in
                     zip(tenure_addresses, tenure_addresses[1:])]
        address_hamming = sum(distances) / len(distances)
    else:
        address_hamming = 0.0
    from repro.ec import Direction
    data_distances: typing.List[int] = []
    last_word = {Direction.READ: None, Direction.WRITE: None}
    ordered = sorted((t for t in completed if t.data_done_cycle is not None),
                     key=lambda t: (t.data_done_cycle, t.txn_id))
    for txn in ordered:
        if txn.error or not txn.data:
            continue
        previous = last_word[txn.direction]
        if previous is not None:
            data_distances.append((previous ^ txn.data[0]).bit_count())
        last_word[txn.direction] = txn.data[-1]
    data_hamming = (sum(data_distances) / len(data_distances)
                    if data_distances else 0.0)
    return address_hamming, data_hamming


def extract_phase_toggle_averages(
        activity: InterfaceActivityLog,
        recorder: SignalStateRecorder
) -> typing.Tuple[typing.Dict[str, float], typing.Dict[str, float]]:
    """Average control-signal transitions per address phase / data beat.

    These feed the layer-2 control model: per-phase averages are all a
    phase-in-isolation model can apply (§3.3 "does not allow an
    accurate count of transitions for control signals").
    """
    phases = sum(values["EB_BFirst"] for values in recorder.values)
    beats = {"EB_RdVal": sum(v["EB_RdVal"] for v in recorder.values),
             "EB_WDRdy": sum(v["EB_WDRdy"] for v in recorder.values)}
    address_phase_toggles = {}
    if phases:
        for name in ("EB_AValid", "EB_BFirst", "EB_BLast", "EB_ARdy",
                     "EB_Instr", "EB_Write", "EB_Burst", "EB_BE"):
            address_phase_toggles[name] = \
                activity.transitions(name) / phases
    data_beat_toggles = {}
    for name, count in beats.items():
        if count:
            data_beat_toggles[name] = activity.transitions(name) / count
    return address_phase_toggles, data_beat_toggles


def build_table(report: DieselReport, activity: InterfaceActivityLog,
                recorder: SignalStateRecorder,
                wire_load: WireLoadModel,
                source: str,
                completed: typing.Sequence = ()) -> CharacterizationTable:
    """Collapse a Diesel report into the TLM characterisation table."""
    coefficients: typing.Dict[str, float] = {}
    for spec in EC_SIGNALS:
        average = report.average_energy_per_transition(spec.name)
        if average is None:
            # the workload never toggled this wire: fall back to the
            # wire-load base energy (slope factor 1)
            average = transition_energy_pj(wire_load.bit_cap(spec.name),
                                           wire_load.vdd)
        coefficients[spec.name] = average
    clock_per_cycle = (report.module_energy_pj["clock"] / report.cycles
                       if report.cycles else 0.0)
    address_hamming, data_hamming = \
        extract_inter_transaction_hamming(recorder, completed)
    phase_toggles, beat_toggles = \
        extract_phase_toggle_averages(activity, recorder)
    return CharacterizationTable(
        coefficients,
        clock_energy_per_cycle_pj=clock_per_cycle,
        inter_txn_address_hamming=address_hamming,
        inter_txn_data_hamming=data_hamming,
        address_phase_toggles=phase_toggles,
        data_beat_toggles=beat_toggles,
        source=source,
    )


def characterize(memory_map_factory: typing.Callable[[], MemoryMap],
                 script_factory: typing.Callable[[], list],
                 wire_load: typing.Optional[WireLoadModel] = None,
                 source: str = "characterisation run",
                 max_cycles: int = 200_000) -> CharacterizationResult:
    """Run the full characterisation flow.

    *memory_map_factory* builds a fresh memory map (slaves carry
    state); *script_factory* builds the stimulus script.
    """
    wire_load = wire_load or default_wire_load()
    activity = InterfaceActivityLog()
    recorder = SignalStateRecorder()
    layer_bus = build_bus("gate-level", None, None, memory_map_factory(),
                          power_model=activity, recorder=recorder)
    simulator, clock, bus = layer_bus.simulator, layer_bus.clock, layer_bus.bus
    master = PipelinedMaster(simulator, clock, bus, script_factory())
    run_script(simulator, master, max_cycles, clock)
    report = layer_bus.diesel_report(wire_load)
    table = build_table(report, activity, recorder, wire_load, source,
                        completed=master.completed)
    return CharacterizationResult(table, report, activity, bus.cycle,
                                  bus.decoder.netlist)


def default_characterization(seed: int = 2004,
                             transactions: int = 400
                             ) -> CharacterizationResult:
    """Characterise on the Figure-1 platform with a mixed workload.

    The stimulus is the EC-spec verification suite followed by a
    random mix — deliberately *not* the evaluation workloads, so the
    accuracy experiments measure genuine cross-workload transfer.
    """
    from repro.workloads import full_suite, generate_script, Window
    from repro.workloads.generator import PROGRAM_MIX
    from repro.soc.smartcard import (EEPROM_BASE, RAM_BASE, ROM_BASE,
                                     fresh_memory_map)

    def script_factory() -> list:
        rng = random.Random(seed)
        windows = [Window(RAM_BASE, 0x1000),
                   Window(EEPROM_BASE, 0x1000),
                   Window(ROM_BASE, 0x1000, executable=True,
                          writable=False)]
        return full_suite() + generate_script(
            rng, transactions, windows, PROGRAM_MIX,
            gap_probability=0.2, sequential_fraction=0.6)

    return characterize(fresh_memory_map, script_factory,
                        source=f"ecspec+random(seed={seed})")


def coefficient_report(table: CharacterizationTable) -> str:
    """Human-readable dump of a characterisation table."""
    lines = [f"characterisation table ({table.source}):"]
    for name, value in sorted(table.energy_per_transition_pj.items()):
        width = SIGNALS_BY_NAME[name].width
        lines.append(f"  {name:<10} {value:8.4f} pJ/transition "
                     f"({width} bit)")
    lines.append(f"  clock      {table.clock_energy_per_cycle_pj:8.4f} "
                 f"pJ/cycle")
    lines.append(f"  inter-txn address Hamming: "
                 f"{table.inter_txn_address_hamming:.2f} bits")
    lines.append(f"  inter-txn data Hamming:    "
                 f"{table.inter_txn_data_hamming:.2f} bits")
    return "\n".join(lines)
