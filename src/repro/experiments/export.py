"""Machine-readable export of the reproduced results.

``write_csv_reports`` writes one CSV per artefact of a
:class:`~repro.experiments.report.PaperResults` — the same results the
printed report shows — so downstream tooling (plots, regression dashboards,
the paper-vs-repro comparison in EXPERIMENTS.md) can consume the
numbers without scraping text tables.
"""

from __future__ import annotations

import csv
import pathlib
import typing

from .casestudy import CaseStudyResult
from .figure6 import Figure6Result
from .report import PaperResults
from .table1 import Table1Result
from .table2 import Table2Result
from .table3 import Table3Result


def _write(path: pathlib.Path, header: typing.Sequence[str],
           rows: typing.Iterable[typing.Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_table1(directory: pathlib.Path,
                  result: Table1Result) -> pathlib.Path:
    path = directory / "table1_timing.csv"
    _write(path,
           ["abstraction_level", "cycles", "cycles_relative_percent",
            "error_percent"],
           [(row.abstraction_level, row.cycles,
             f"{row.cycles_relative:.4f}",
             "" if row.error_percent is None
             else f"{row.error_percent:.4f}")
            for row in result.rows])
    return path


def export_table2(directory: pathlib.Path,
                  result: Table2Result) -> pathlib.Path:
    path = directory / "table2_energy.csv"
    _write(path,
           ["abstraction_level", "energy_pj", "energy_relative",
            "error_percent"],
           [(row.abstraction_level, f"{row.energy_pj:.4f}",
             f"{row.energy_relative:.4f}",
             "" if row.error_percent is None
             else f"{row.error_percent:.4f}")
            for row in result.rows])
    return path


def export_table3(directory: pathlib.Path,
                  result: Table3Result) -> pathlib.Path:
    path = directory / "table3_performance.csv"
    _write(path,
           ["model", "with_estimation_kts", "with_estimation_factor",
            "without_estimation_kts", "without_estimation_factor"],
           [(row.model, f"{row.with_estimation_kts:.3f}",
             f"{row.with_estimation_factor:.3f}",
             f"{row.without_estimation_kts:.3f}",
             f"{row.without_estimation_factor:.3f}")
            for row in result.rows])
    return path


def export_figure6(directory: pathlib.Path,
                   result: Figure6Result) -> pathlib.Path:
    path = directory / "figure6_sampling.csv"
    rows = []
    labels = [str(cycle) for cycle in result.sample_cycles] + ["final"]
    for label, layer2, layer1 in zip(labels, result.layer2_samples_pj,
                                     result.layer1_window_pj):
        rows.append((label, f"{layer2:.4f}", f"{layer1:.4f}"))
    _write(path, ["sample_cycle", "layer2_pj", "layer1_pj"], rows)
    return path


def export_casestudy(directory: pathlib.Path,
                     result: CaseStudyResult) -> pathlib.Path:
    path = directory / "casestudy_exploration.csv"
    _write(path,
           ["configuration", "layout", "stack_base", "access_pattern",
            "bus_cycles", "bus_energy_pj", "bus_transactions",
            "results_correct"],
           [(row.config.name, row.config.layout.value,
             f"{row.config.stack_base:#x}",
             row.config.access_pattern.name,
             row.bus_cycles, f"{row.bus_energy_pj:.4f}",
             row.bus_transactions, int(row.results_correct))
            for row in result.exploration.rows])
    return path


def write_csv_reports(directory, paper: PaperResults
                      ) -> typing.List[pathlib.Path]:
    """Write one CSV per artefact of *paper* (runs nothing)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [
        export_table1(directory, paper.table1),
        export_table2(directory, paper.table2),
        export_table3(directory, paper.table3),
        export_figure6(directory, paper.figure6),
        export_casestudy(directory, paper.casestudy),
    ]
