"""Figure 6 — energy sampling through the layer-2 power interface.

The paper's Figure 6 illustrates the layer-2 power interface: three
pipelined transactions (read 1, write 2, read 3); sampling the
"energy since last call" method at time t1 captures the finished
address phases of requests 1 and 2, sampling at t2 captures the
address phase of request 3 plus the data phases of the first two
requests — the data phase of request 3, still in flight, is *not*
included.  "As shown, this model does not support cycle-accurate
energy estimation."

The experiment reproduces that profile: it runs the same three
transactions on layer 2 (sampling at t1/t2/end) and on layer 1 (whose
per-cycle trace is integrated over the same windows), and reports both
series.  The shape to reproduce: layer 2's samples are quantised to
whole finished phases — a phase in flight at the sample instant lands
entirely in the next sample — while layer 1 splits energy exactly at
the cycle boundary.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import data_read, data_write
from repro.kernel import Clock, Process, Simulator
from repro.power import (Layer1PowerModel, Layer2PowerModel,
                         SignalStateRecorder)
from repro.soc.smartcard import EEPROM_BASE, RAM_BASE
from repro.tlm import EcBusLayer1, EcBusLayer2, PipelinedMaster, run_script

from .common import CLOCK_PERIOD, characterization, fresh_memory_map


def figure6_script() -> list:
    """Request 1 (read), request 2 (write), request 3 (read), with
    wait states so the address and data phases pipeline visibly."""
    return [
        data_read(EEPROM_BASE, burst_length=2),          # R-phase 1
        data_write(EEPROM_BASE + 0x20, [0xAAAA, 0x5555]),  # W-phase 2
        data_read(RAM_BASE, burst_length=2),             # R-phase 3
    ]


@dataclasses.dataclass
class PhaseTiming:
    """When each transaction's phases finished (bus cycles)."""

    label: str
    address_done_cycle: int
    data_done_cycle: int


@dataclasses.dataclass
class Figure6Result:
    sample_cycles: typing.List[int]
    layer2_samples_pj: typing.List[float]
    layer1_window_pj: typing.List[float]
    phases: typing.List[PhaseTiming]
    layer2_total_pj: float
    layer1_total_pj: float

    def format(self) -> str:
        lines = ["Figure 6: energy sampling profile (layer 2 vs layer 1)",
                 "phase completion times:"]
        for phase in self.phases:
            lines.append(f"  {phase.label:<12} A-phase done at cycle "
                         f"{phase.address_done_cycle}, data phase done "
                         f"at cycle {phase.data_done_cycle}")
        lines.append(f"{'sample cycle':>14}{'layer 2 (pJ)':>16}"
                     f"{'layer 1 (pJ)':>16}")
        for cycle, l2, l1 in zip(self.sample_cycles,
                                 self.layer2_samples_pj,
                                 self.layer1_window_pj):
            lines.append(f"{cycle:>14}{l2:>16.2f}{l1:>16.2f}")
        lines.append(f"{'total':>14}{self.layer2_total_pj:>16.2f}"
                     f"{self.layer1_total_pj:>16.2f}")
        return "\n".join(lines)


def _layer2_task(sample_cycles, table) -> dict:
    """Run layer 2, sampling the energy interface at the given
    cycles."""
    simulator = Simulator("figure6_l2")
    clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
    memory_map = fresh_memory_map()
    model = Layer2PowerModel(table)
    bus = EcBusLayer2(simulator, clock, memory_map, power_model=model)
    master = PipelinedMaster(simulator, clock, bus, figure6_script())
    samples: typing.List[float] = []
    remaining = list(sample_cycles)

    def sampler():
        if remaining and bus.cycle >= remaining[0]:
            remaining.pop(0)
            samples.append(model.energy_since_last_call_pj())

    Process(simulator, sampler, "sampler", dont_initialize=True).sensitive(
        clock.posedge_event)
    run_script(simulator, master, 10_000, clock)
    model.account_cycles(bus.cycle)  # clock baseline for the whole run
    samples.append(model.energy_since_last_call_pj())  # final drain
    phases = [(txn.address_done_cycle, txn.data_done_cycle)
              for txn in sorted(master.completed,
                                key=lambda t: (t.issue_cycle, t.txn_id))]
    return {"samples": samples, "phases": phases,
            "total_pj": model.total_energy_pj}


def _layer1_task(sample_cycles, table) -> dict:
    """Run layer 1 and integrate its per-cycle trace over the same
    sampling windows."""
    simulator = Simulator("figure6_l1")
    clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
    memory_map = fresh_memory_map()
    recorder = SignalStateRecorder()
    model = Layer1PowerModel(table, recorder=recorder)
    bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    master = PipelinedMaster(simulator, clock, bus, figure6_script())
    run_script(simulator, master, 10_000, clock)
    windows: typing.List[float] = []
    previous = 0
    for cycle in list(sample_cycles) + [len(recorder.energies)]:
        windows.append(sum(recorder.energies[previous:cycle]))
        previous = cycle
    return {"windows": windows, "total_pj": model.total_energy_pj}


def run_figure6(sample_cycles: typing.Sequence[int] = (4, 9)
                ) -> Figure6Result:
    """Reproduce the Figure-6 sampling profile (t1, t2 = cycles)."""
    table = characterization().table
    layer2 = _layer2_task(tuple(sample_cycles), table)
    layer1 = _layer1_task(tuple(sample_cycles), table)
    phases = [
        PhaseTiming(f"request {i + 1}", address_done, data_done)
        for i, (address_done, data_done) in enumerate(layer2["phases"])
    ]
    return Figure6Result(list(sample_cycles), layer2["samples"],
                         layer1["windows"], phases,
                         layer2["total_pj"], layer1["total_pj"])
