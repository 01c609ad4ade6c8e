"""Table 1 — timing accuracy of the transaction-level models.

Paper (DATE 2004, §4.1):

    ==================  ======  =====
    Abstraction level   Cycles  Error
    ==================  ======  =====
    Gate-level model      100%      -
    Layer one model       100%     0%
    Layer two model     100.5%   0.5%
    ==================  ======  =====

The reproduction replays the traced assembly test program (plus the
EEPROM-contention epilogue) on the gate-level bus, the layer-1 bus and
the layer-2 bus, and compares total cycle counts.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.report import Column, Report, Reported

from .common import (RunResult, evaluation_script, percent_error,
                     run_on_layer)


@dataclasses.dataclass
class Table1Row:
    """One row of the reproduced table."""

    abstraction_level: str
    cycles: int
    cycles_relative: float      # percent of the gate-level count
    error_percent: typing.Optional[float]  # None for the reference


@dataclasses.dataclass
class Table1Result(Reported):
    rows: typing.List[Table1Row]
    runs: typing.List[RunResult]

    def row(self, name: str) -> Table1Row:
        for row in self.rows:
            if row.abstraction_level == name:
                return row
        raise KeyError(name)

    def report(self) -> Report:
        return Report(
            "Table 1: timing error vs gate-level simulation",
            columns=[
                Column("Abstraction Level", 22, "{abstraction_level}", "<"),
                Column("Cycles", 10, "{cycles_relative:.2f}%"),
                Column("Error", 10, "{error_percent:+.2f}%", missing="-"),
            ], rows=self.rows)


def run_table1(script_factory: typing.Callable[[], list] = None
               ) -> Table1Result:
    """Reproduce Table 1; returns rows in the paper's order."""
    factory = script_factory or evaluation_script
    gate = run_on_layer("gate-level", factory())
    layer1 = run_on_layer("layer1", factory())
    layer2 = run_on_layer("layer2", factory())
    rows = [
        Table1Row("Gate-level model", gate.cycles, 100.0, None),
        Table1Row("Layer one model", layer1.cycles,
                  100.0 * layer1.cycles / gate.cycles,
                  percent_error(layer1.cycles, gate.cycles)),
        Table1Row("Layer two model", layer2.cycles,
                  100.0 * layer2.cycles / gate.cycles,
                  percent_error(layer2.cycles, gate.cycles)),
    ]
    return Table1Result(rows, [gate, layer1, layer2])
