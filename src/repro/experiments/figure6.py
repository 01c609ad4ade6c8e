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
from repro.kernel import Process
from repro.power import SamplingProfiler, SignalStateRecorder
from repro.report import Column, Report, Reported
from repro.soc.layers import build_bus
from repro.soc.smartcard import EEPROM_BASE, RAM_BASE, fresh_memory_map
from repro.tlm import PipelinedMaster, run_script

from .common import characterization


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
class Figure6Result(Reported):
    sample_cycles: typing.List[int]
    layer2_samples_pj: typing.List[float]
    layer1_window_pj: typing.List[float]
    phases: typing.List[PhaseTiming]
    layer2_total_pj: float
    layer1_total_pj: float

    def report(self) -> Report:
        return Report(
            "Figure 6: energy sampling profile (layer 2 vs layer 1)",
            before=["phase completion times:"] + [
                f"  {phase.label:<12} A-phase done at cycle "
                f"{phase.address_done_cycle}, data phase done at cycle "
                f"{phase.data_done_cycle}" for phase in self.phases],
            columns=[
                Column("sample cycle", 14, "{cycle}"),
                Column("layer 2 (pJ)", 16, "{layer2:.2f}"),
                Column("layer 1 (pJ)", 16, "{layer1:.2f}"),
            ],
            rows=[*(dict(cycle=cycle, layer2=layer2, layer1=layer1)
                    for cycle, layer2, layer1 in zip(
                        self.sample_cycles, self.layer2_samples_pj,
                        self.layer1_window_pj)),
                  dict(cycle="total", layer2=self.layer2_total_pj,
                       layer1=self.layer1_total_pj)])


def _layer2_task(sample_cycles, table) -> dict:
    """Run layer 2, sampling the energy interface at the given
    cycles."""
    layer_bus = build_bus("layer2", None, None, fresh_memory_map(), table)
    simulator, clock = layer_bus.simulator, layer_bus.clock
    bus = layer_bus.bus
    master = PipelinedMaster(simulator, clock, bus, figure6_script())
    profiler = SamplingProfiler(layer_bus.power_model)
    remaining = list(sample_cycles)

    def sampler():
        if remaining and bus.cycle >= remaining[0]:
            remaining.pop(0)
            profiler.sample(bus.cycle)

    Process(simulator, sampler, "sampler", dont_initialize=True).sensitive(
        clock.posedge_event)
    run_script(simulator, master, 10_000, clock)
    total = layer_bus.energy_pj()  # clock baseline for the whole run
    profiler.sample(bus.cycle)  # final drain
    phases = [(txn.address_done_cycle, txn.data_done_cycle)
              for txn in sorted(master.completed,
                                key=lambda t: (t.issue_cycle, t.txn_id))]
    return {"samples": [s.energy_pj for s in profiler.samples],
            "phases": phases, "total_pj": total}


def _layer1_task(sample_cycles, table) -> dict:
    """Run layer 1 and integrate its per-cycle trace over the same
    sampling windows."""
    recorder = SignalStateRecorder()
    layer_bus = build_bus("layer1", None, None, fresh_memory_map(), table,
                          recorder=recorder)
    simulator, clock = layer_bus.simulator, layer_bus.clock
    master = PipelinedMaster(simulator, clock, layer_bus.bus,
                             figure6_script())
    run_script(simulator, master, 10_000, clock)
    windows: typing.List[float] = []
    previous = 0
    for cycle in list(sample_cycles) + [len(recorder.energies)]:
        windows.append(sum(recorder.energies[previous:cycle]))
        previous = cycle
    return {"windows": windows, "total_pj": layer_bus.energy_pj()}


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
