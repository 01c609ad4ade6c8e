"""One-shot reproduction report: every table and figure of the paper.

``python -m repro.experiments.report`` prints the reproduced Table 1,
Table 2, Table 3, the Figure-6 sampling profile and the §4.3 case
study, each next to the paper's published values.
"""

from __future__ import annotations

import typing

from repro.report import Reported

from .casestudy import CaseStudyResult, run_casestudy
from .figure6 import Figure6Result, run_figure6
from .table1 import Table1Result, run_table1
from .table2 import Table2Result, run_table2
from .table3 import Table3Result, run_table3

PAPER_TABLE1 = """paper: gate level 100% | layer one 100% (0% error) \
| layer two 100.5% (+0.5% error)"""
PAPER_TABLE2 = """paper: gate level 100 | TL layer 1: 92.1 (-7.8%) \
| TL layer 2: 114.7 (+14.7%)"""
PAPER_TABLE3 = """paper: L1 85.3 kT/s (1.0) / 94.6 (1.1 without est.); \
L2 129.6 (1.52) / 145.8 (1.7)"""


class PaperResults(typing.NamedTuple):
    """One run of each of the paper's experiments: the printed report
    and the CSV export (:func:`~repro.experiments.export
    .write_csv_reports`) are both written from it, so they agree."""

    table1: Table1Result
    table2: Table2Result
    table3: Table3Result
    figure6: Figure6Result
    casestudy: CaseStudyResult


def run_paper(transactions: int = 2_000,
              include_gate_level: bool = True) -> PaperResults:
    """Run Tables 1-3, Figure 6 and the case study once each."""
    return PaperResults(
        run_table1(), run_table2(),
        run_table3(transactions=transactions,
                   include_gate_level=include_gate_level),
        run_figure6(), run_casestudy())


def run_extended() -> typing.Tuple[Reported, ...]:
    """Run the beyond-the-paper studies: the crypto coprocessor HW/SW
    comparison, the accuracy-robustness sweep and the fetch-path
    parameter sweep."""
    from .coprocessor import run_coprocessor_study
    from .robustness import run_robustness
    from .bus_sweep import run_bus_sweep
    return run_coprocessor_study(), run_robustness(), run_bus_sweep()


def full_report(paper: PaperResults,
                extended: typing.Sequence[Reported] = ()) -> str:
    """Produce the complete reproduction report of *paper* as text,
    with the *extended* studies (:func:`run_extended`) appended."""
    sections = [f"{paper.table1.format()}\n{PAPER_TABLE1}",
                f"{paper.table2.format()}\n{PAPER_TABLE2}",
                f"{paper.table3.format()}\n{PAPER_TABLE3}",
                paper.figure6.format(), paper.casestudy.format()]
    sections += [study.format() for study in extended]
    return "\n\n".join(sections)


def main() -> None:  # pragma: no cover - CLI entry point
    print(full_report(run_paper()))


if __name__ == "__main__":  # pragma: no cover
    main()
