"""Core/bus parameter sweep (extension; the related-work exploration).

The paper's related work opens with Givargis/Vahid/Henkel's parametric
cache-and-bus exploration [1]; the substrate built here supports the
same style of study natively.  The sweep runs the §4.1 test program on
the layer-1 platform across the fetch-path parameters of the core:

* fetch burst length (1, 2 or 4 words per line fill),
* line buffer capacity (1, 4 or 8 lines),

reporting execution cycles, bus energy and fetch traffic for every
point — the latency/energy trade-off a platform integrator tunes.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import TransactionKind
from repro.power import Layer1PowerModel
from repro.soc.cpu import MipsCore
from repro.soc.smartcard import ROM_BASE, SmartCardPlatform

from .common import TEST_PROGRAM, characterization
from .supervisor import CampaignSupervisor

BURST_LENGTHS = (1, 2, 4)
BUFFER_LINES = (1, 4, 8)


@dataclasses.dataclass
class SweepPoint:
    fetch_burst_length: int
    line_buffer_lines: int
    cycles: int = 0
    bus_energy_pj: float = 0.0
    fetch_transactions: int = 0
    fetch_words: int = 0
    status: str = "ok"
    error: typing.Optional[str] = None

    @property
    def label(self) -> str:
        return (f"burst={self.fetch_burst_length} "
                f"lines={self.line_buffer_lines}")


@dataclasses.dataclass
class BusSweepResult:
    points: typing.List[SweepPoint]

    def point(self, burst: int, lines: int) -> SweepPoint:
        for point in self.points:
            if (point.fetch_burst_length == burst
                    and point.line_buffer_lines == lines):
                return point
        raise KeyError((burst, lines))

    @property
    def passed(self) -> bool:
        """Every grid point ran."""
        return all(point.status == "ok" for point in self.points)

    def _usable(self) -> typing.List[SweepPoint]:
        usable = [point for point in self.points
                  if point.status == "ok"]
        if not usable:
            raise ValueError("every sweep point degraded")
        return usable

    def best_by_energy(self) -> SweepPoint:
        return min(self._usable(), key=lambda point: point.bus_energy_pj)

    def best_by_cycles(self) -> SweepPoint:
        return min(self._usable(), key=lambda point: point.cycles)

    def format(self) -> str:
        lines = [
            "Fetch-path parameter sweep (section-4.1 test program):",
            f"{'configuration':<20}{'cycles':>8}{'bus pJ':>11}"
            f"{'fetch txns':>12}{'fetch words':>13}",
        ]
        for point in self.points:
            if point.status != "ok":
                lines.append(f"{point.label:<20}  DEGRADED: "
                             f"{point.error}")
                continue
            lines.append(
                f"{point.label:<20}{point.cycles:>8}"
                f"{point.bus_energy_pj:>11.1f}"
                f"{point.fetch_transactions:>12}{point.fetch_words:>13}")
        lines.append(f"fastest: {self.best_by_cycles().label}   "
                     f"lowest energy: {self.best_by_energy().label}")
        return "\n".join(lines)


def run_point(fetch_burst_length: int, line_buffer_lines: int,
              table) -> SweepPoint:
    """Run the test program with one fetch-path configuration."""
    power_model = Layer1PowerModel(table)
    platform = SmartCardPlatform(bus_layer=1, power_model=power_model)
    platform.bus.enable_tracing()
    platform.cpu = MipsCore(platform.simulator, platform.clock,
                            platform.bus, reset_pc=ROM_BASE,
                            line_buffer_lines=line_buffer_lines,
                            fetch_burst_length=fetch_burst_length)
    platform.cpu.bind_interrupt_source(platform.intc.active,
                                       vector=ROM_BASE + 0x180)
    platform.load_assembly(TEST_PROGRAM)
    platform.cpu.run_to_halt(500_000)
    if platform.cpu.fault:
        raise RuntimeError(f"sweep point faulted: {platform.cpu.fault}")
    fetches = [t for t in platform.bus.trace_log
               if t.kind is TransactionKind.INSTRUCTION_READ]
    finished = [t for t in platform.bus.trace_log
                if t.data_done_cycle is not None]
    cycles = (max(t.data_done_cycle for t in finished)
              - min(t.issue_cycle for t in finished) + 1)
    return SweepPoint(
        fetch_burst_length, line_buffer_lines, cycles,
        power_model.total_energy_pj, len(fetches),
        sum(t.burst_length for t in fetches))


def _point_job(burst: int, lines: int, table) -> dict:
    """Module-level (picklable) grid-point runner for the worker pool."""
    return dataclasses.asdict(run_point(burst, lines, table))


def run_bus_sweep(burst_lengths: typing.Sequence[int] = BURST_LENGTHS,
                  buffer_lines: typing.Sequence[int] = BUFFER_LINES,
                  journal_path: typing.Optional[str] = None,
                  resume: bool = False,
                  workers: int = 1) -> BusSweepResult:
    """Sweep the fetch-path parameter grid.

    Each grid point runs under the campaign supervisor: with
    *journal_path* its result checkpoints to a JSONL journal, *resume*
    replays journaled points, and a point that keeps crashing is
    reported as degraded instead of aborting the sweep.  *workers* > 1
    shards the grid over a process pool with results journaled in grid
    order, byte-identical to a serial run.
    """
    supervisor = CampaignSupervisor(
        "bus_sweep", seed=0, journal_path=journal_path, resume=resume)
    table = characterization().table
    specs = [
        ({"burst": burst, "lines": lines}, _point_job,
         (burst, lines, table))
        for burst in burst_lengths
        for lines in buffer_lines]
    return BusSweepResult([
        outcome.cell(SweepPoint,
                     fetch_burst_length=outcome.params["burst"],
                     line_buffer_lines=outcome.params["lines"])
        for outcome in supervisor.run_cells(specs, workers=workers)])
