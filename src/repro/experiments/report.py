"""One-shot reproduction report: every table and figure of the paper.

``python -m repro.experiments.report`` prints the reproduced Table 1,
Table 2, Table 3, the Figure-6 sampling profile and the §4.3 case
study, each next to the paper's published values.
"""

from __future__ import annotations

from .casestudy import run_casestudy
from .figure6 import run_figure6
from .table1 import run_table1
from .table2 import run_table2
from .table3 import run_table3

PAPER_TABLE1 = """paper: gate level 100% | layer one 100% (0% error) \
| layer two 100.5% (+0.5% error)"""
PAPER_TABLE2 = """paper: gate level 100 | TL layer 1: 92.1 (-7.8%) \
| TL layer 2: 114.7 (+14.7%)"""
PAPER_TABLE3 = """paper: L1 85.3 kT/s (1.0) / 94.6 (1.1 without est.); \
L2 129.6 (1.52) / 145.8 (1.7)"""


def full_report(transactions: int = 2_000,
                include_gate_level: bool = True,
                extended: bool = False) -> str:
    """Produce the complete reproduction report as text.

    With *extended* the beyond-the-paper studies are appended: the
    crypto coprocessor HW/SW comparison, the accuracy-robustness sweep
    and the fetch-path parameter sweep.
    """
    sections = [f"{run_table1().format()}\n{PAPER_TABLE1}",
                f"{run_table2().format()}\n{PAPER_TABLE2}"]
    table3 = run_table3(transactions=transactions,
                        include_gate_level=include_gate_level)
    sections += [f"{table3.format()}\n{PAPER_TABLE3}",
                 run_figure6().format(), run_casestudy().format()]
    if extended:
        from .coprocessor import run_coprocessor_study
        from .robustness import run_robustness
        from .bus_sweep import run_bus_sweep
        sections += [run_coprocessor_study().format(),
                     run_robustness().format(), run_bus_sweep().format()]
    return "\n\n".join(sections)


def main() -> None:  # pragma: no cover - CLI entry point
    print(full_report())


if __name__ == "__main__":  # pragma: no cover
    main()
