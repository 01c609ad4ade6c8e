"""Table 2 — energy estimation accuracy of the hierarchical models.

Paper (DATE 2004, §4.1):

    =====================  ======  ======
    Abstraction level      Energy   Error
    =====================  ======  ======
    Gate-level estimation     100       -
    TL layer 1 estimation    92.1   -7.8%
    TL layer 2 estimation   114.7  +14.7%
    =====================  ======  ======

The reproduction characterises the TLM energy models on a separate
characterisation workload (EC-spec suite + random mix), then replays
the evaluation workload on all three models: the gate-level bus with
the Diesel-style estimator as reference, layer 1 with its
transition-counting model, layer 2 with its per-phase analytic model.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.report import Column, Report, Reported

from .common import (RunResult, characterization, evaluation_script,
                     percent_error, run_on_layer)


@dataclasses.dataclass
class Table2Row:
    abstraction_level: str
    energy_pj: float
    energy_relative: float      # paper's "Energy" column (ref = 100)
    error_percent: typing.Optional[float]


@dataclasses.dataclass
class Table2Result(Reported):
    rows: typing.List[Table2Row]
    runs: typing.List[RunResult]

    def row(self, name: str) -> Table2Row:
        for row in self.rows:
            if row.abstraction_level == name:
                return row
        raise KeyError(name)

    def report(self) -> Report:
        return Report(
            "Table 2: energy estimation error vs gate-level estimation",
            columns=[
                Column("Abstraction Level", 26, "{abstraction_level}", "<"),
                Column("Energy", 10, "{energy_relative:.1f}"),
                Column("Error", 10, "{error_percent:+.1f}%", missing="-"),
            ], rows=self.rows)


def run_table2(script_factory: typing.Callable[[], list] = None
               ) -> Table2Result:
    """Reproduce Table 2; returns rows in the paper's order."""
    factory = script_factory or evaluation_script
    table = characterization().table
    gate = run_on_layer("gate-level", factory(), table=table)
    layer1 = run_on_layer("layer1", factory(), table=table)
    layer2 = run_on_layer("layer2", factory(), table=table)
    reference = gate.energy_pj
    rows = [
        Table2Row("Gate-level estimation", reference, 100.0, None),
        Table2Row("TL layer 1 estimation", layer1.energy_pj,
                  100.0 * layer1.energy_pj / reference,
                  percent_error(layer1.energy_pj, reference)),
        Table2Row("TL layer 2 estimation", layer2.energy_pj,
                  100.0 * layer2.energy_pj / reference,
                  percent_error(layer2.energy_pj, reference)),
    ]
    return Table2Result(rows, [gate, layer1, layer2])
