"""HW/SW interface design-space exploration (§4.3, Figure 7).

"This evaluation aims to support finding the best HW/SW interface
between the java card interpreter and the hardware stack. ... During
HW/SW interface evaluation we change the address map, organization of
these registers and used bus transactions to access them."

For every explored configuration the same bytecode benchmarks run on
the refined model (interpreter → master adapter → energy-aware layer-1
bus → stack coprocessor); the result table reports bus cycles, bus
energy and transaction counts per configuration — the numbers a
designer uses to pick the interface.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import MemoryMap, MergePattern
from repro.power.table import CharacterizationTable
from repro.report import Column, Report, Reported, yes_no
from repro.soc.layers import build_bus, clocked_layer_name
from repro.soc.memory import Rom, ScratchpadRam
from repro.soc.smartcard import RAM_BASE, ROM_BASE

from .adapters import StackMasterAdapter, StaticsBusPort
from .bytecode import Package
from .interpreter import BytecodeInterpreter
from .stack import HardwareStack, SfrLayout
from .workloads import BENCHMARKS, benchmark_package

#: candidate coprocessor base addresses: one a single address-bus bit
#: away from the RAM the statics live in, one across many bits
STACK_BASE_NEAR = RAM_BASE | 0x0008_0000   # Hamming distance 1 to RAM
STACK_BASE_FAR = 0x0055_5540               # many bits from RAM


@dataclasses.dataclass(frozen=True)
class InterfaceConfig:
    """One point of the explored HW/SW interface space."""

    name: str
    layout: SfrLayout
    stack_base: int
    access_pattern: MergePattern

    def describe(self) -> str:
        return (f"{self.layout.value} registers @ {self.stack_base:#010x}, "
                f"{self.access_pattern.name.lower()} accesses")


def default_configurations() -> typing.List[InterfaceConfig]:
    """The §4.3 sweep: register organisation x address map x width."""
    configs = []
    for layout in SfrLayout:
        for base, where in ((STACK_BASE_NEAR, "near"),
                            (STACK_BASE_FAR, "far")):
            for pattern in (MergePattern.HALFWORD, MergePattern.WORD):
                configs.append(InterfaceConfig(
                    f"{layout.value}/{where}/{pattern.name.lower()}",
                    layout, base, pattern))
    return configs


@dataclasses.dataclass
class ConfigResult:
    """Measured cost of one configuration over all benchmarks."""

    config: InterfaceConfig
    bus_cycles: int
    bus_energy_pj: float
    bus_transactions: int
    results_correct: bool


@dataclasses.dataclass
class ExplorationResult(Reported):
    rows: typing.List[ConfigResult]

    def best_by_energy(self) -> ConfigResult:
        return min(self.rows, key=lambda row: row.bus_energy_pj)

    def best_by_cycles(self) -> ConfigResult:
        return min(self.rows, key=lambda row: row.bus_cycles)

    def row(self, name: str) -> ConfigResult:
        for row in self.rows:
            if row.config.name == name:
                return row
        raise KeyError(name)

    def report(self) -> Report:
        best = self.best_by_energy()
        return Report(
            "HW/SW interface exploration (java card VM vs HW stack):",
            columns=[
                Column("configuration", 26, "{config.name}", "<"),
                Column("cycles", 9, "{bus_cycles}"),
                Column("energy pJ", 12, "{bus_energy_pj:.1f}"),
                Column("bus txns", 10, "{bus_transactions}"),
                Column("ok", 4, lambda row: yes_no(row.results_correct)),
            ],
            rows=sorted(self.rows, key=lambda row: row.bus_energy_pj),
            after=[f"best by energy: {best.config.name} "
                   f"({best.config.describe()})"])


def _build_refined_model(config: InterfaceConfig,
                         table: CharacterizationTable,
                         applet: Package,
                         bus_layer: typing.Union[str, int] = "layer1"):
    """Figure 7(b): interpreter + adapters + TLM bus + coprocessor."""
    memory_map = MemoryMap()
    memory_map.add_slave(Rom(ROM_BASE), "rom")
    memory_map.add_slave(ScratchpadRam(RAM_BASE), "ram")
    hw_stack = HardwareStack(config.stack_base, layout=config.layout)
    memory_map.add_slave(hw_stack, "hw_stack")
    layer_bus = build_bus(clocked_layer_name(bus_layer), None, None,
                          memory_map, table=table)
    adapter = StackMasterAdapter(layer_bus.simulator, layer_bus.clock,
                                 layer_bus.bus, config.stack_base,
                                 layout=config.layout,
                                 access_pattern=config.access_pattern)
    statics = StaticsBusPort(adapter, RAM_BASE, applet.num_statics)
    interpreter = BytecodeInterpreter(applet, adapter,
                                      statics_port=statics)
    return layer_bus, adapter, interpreter


def evaluate_configuration(config: InterfaceConfig,
                           table: CharacterizationTable,
                           bus_layer: typing.Union[str, int] = "layer1"
                           ) -> ConfigResult:
    """Run all benchmarks on the refined model for one configuration.

    *bus_layer* selects the model accuracy: layer 1 resolves every
    exploration dimension; layer 2 is faster but its per-phase energy
    model cannot see address-map effects (it charges a characterised
    average per address phase regardless of the actual addresses).
    An unknown layer raises :class:`ValueError`.
    """
    applet = benchmark_package()
    layer_bus, adapter, interpreter = \
        _build_refined_model(config, table, applet, bus_layer)
    correct = True
    for method_name, arguments, reference in BENCHMARKS:
        result = interpreter.run(method_name, arguments)
        if result != reference(*arguments):
            correct = False
    energy = layer_bus.energy_pj()
    return ConfigResult(config, layer_bus.bus.cycle, energy,
                        adapter.bus_transactions, correct)


def run_exploration(table: typing.Optional[CharacterizationTable] = None,
                    configurations: typing.Optional[
                        typing.List[InterfaceConfig]] = None,
                    bus_layer: typing.Union[str, int] = "layer1"
                    ) -> ExplorationResult:
    """The §4.3 experiment: sweep the interface configurations."""
    if table is None:
        from repro.power.characterize import default_characterization
        table = default_characterization().table
    configs = configurations or default_configurations()
    rows = [evaluate_configuration(config, table, bus_layer)
            for config in configs]
    return ExplorationResult(rows)
