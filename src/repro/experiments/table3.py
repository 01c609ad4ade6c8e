"""Table 3 — simulation performance of the transaction-level models.

Paper (DATE 2004, §4.2): executed bus transactions per second for the
two TLM layers, with and without energy estimation; the stimulus
"contained all combinations between of single reads, single writes,
burst reads, and burst write transactions":

    ==========  ================  ======  ==================  ======
    model       with estimation   factor  without estimation  factor
    ==========  ================  ======  ==================  ======
    TL layer 1        85.3 kT/s     1.0           94.6 kT/s     1.1
    TL layer 2       129.6 kT/s    1.52          145.8 kT/s     1.7
    ==========  ================  ======  ==================  ======

Absolute kT/s depend on the host (the paper's 2003 workstation vs this
Python port); the reproduced *shape* is the factor column: layer 2
about 1.5x layer 1 with estimation, about 1.7x without, and roughly
10% gained by switching estimation off.  The same harness also
measures the gate-level model to show the TLM speed-up the paper cites
from prior work.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.report import Column, Report, Reported
from repro.soc.smartcard import EEPROM_BASE, RAM_BASE
from repro.workloads import table3_script

from .common import characterization, run_on_layer


@dataclasses.dataclass
class Table3Row:
    model: str
    with_estimation_kts: float
    with_estimation_factor: float
    without_estimation_kts: float
    without_estimation_factor: float


@dataclasses.dataclass
class Table3Result(Reported):
    rows: typing.List[Table3Row]
    transactions: int
    gate_level_kts: typing.Optional[float] = None

    def row(self, name: str) -> Table3Row:
        for row in self.rows:
            if row.model == name:
                return row
        raise KeyError(name)

    def report(self) -> Report:
        rows = list(self.rows)
        if self.gate_level_kts is not None:
            # gate level is timed with its Diesel estimate only: no
            # factor, no run without estimation
            rows.append(dict(model="gate level",
                             with_estimation_kts=self.gate_level_kts))
        return Report(
            "Table 3: simulation performance (executed transactions/s)",
            columns=[
                Column("", 14, "{model}", "<"),
                Column("kT/s", 12, "{with_estimation_kts:.1f}",
                       missing="-", group="with estimation"),
                Column("factor", 10, "{with_estimation_factor:.2f}",
                       missing="-", group="with estimation"),
                Column("kT/s", 14, "{without_estimation_kts:.1f}",
                       missing="-", group="without estimation"),
                Column("factor", 10, "{without_estimation_factor:.2f}",
                       missing="-", group="without estimation"),
            ], rows=rows)


def make_script(transactions: int, seed: int = 42) -> list:
    """The Table-3 stimulus (single/burst read/write mix)."""
    return table3_script(random.Random(seed), transactions,
                         fast_base=RAM_BASE, slow_base=EEPROM_BASE)


#: timed runs per configuration; each keeps its fastest, and the
#: rounds interleave the configurations so a slow spell on the host
#: hits all of them alike
REPEATS = 5


def run_table3(transactions: int = 2_000, seed: int = 42,
               include_gate_level: bool = False,
               gate_level_transactions: int = 200) -> Table3Result:
    """Reproduce Table 3 by timing all four model configurations (and
    gate level), best of :data:`REPEATS` interleaved runs each."""
    table = characterization().table
    configurations = [(layer, estimate, transactions)
                      for layer in ("layer1", "layer2")
                      for estimate in (True, False)]
    if include_gate_level:
        configurations.append(("gate-level", True, gate_level_transactions))
    kts: typing.Dict[typing.Tuple[str, bool], float] = {}
    for _ in range(REPEATS):
        for layer, estimate, count in configurations:
            run = run_on_layer(layer, make_script(count, seed),
                               table=table if estimate else None)
            kts[layer, estimate] = max(kts.get((layer, estimate), 0.0),
                                       run.transactions_per_second / 1e3)
    baseline = kts["layer1", True]
    rows = [Table3Row(label, kts[layer, True], kts[layer, True] / baseline,
                      kts[layer, False], kts[layer, False] / baseline)
            for layer, label in (("layer1", "TL Layer 1"),
                                 ("layer2", "TL Layer 2"))]
    return Table3Result(rows, transactions, kts.get(("gate-level", True)))
