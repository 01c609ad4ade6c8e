"""§4.3 / Figure 7 — energy optimisation with the TLM bus models.

The paper's closing experiment: refine the untimed Java Card VM's
stack interface onto the energy-aware layer-1 bus and explore the
HW/SW interface.  The paper reports the methodology, not numbers; the
reproduction produces the exploration table a designer would read:

* the functional and refined models agree on every benchmark result
  (communication refinement preserves behaviour),
* register organisation dominates cost (a command-register protocol
  needs two bus transactions per stack operation),
* the pop2 accelerator of the packed layout pays off on
  arithmetic-heavy bytecode,
* address-map placement changes bus energy through address-bus
  Hamming distances without changing cycle counts.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.javacard import (BytecodeInterpreter, ExplorationResult,
                            FunctionalStack, benchmark_package,
                            run_exploration)
from repro.javacard.workloads import BENCHMARKS
from repro.report import Report, Reported

from .common import characterization


@dataclasses.dataclass
class CaseStudyResult(Reported):
    functional_results: typing.Dict[str, int]
    exploration: ExplorationResult

    def report(self) -> Report:
        """The exploration's table, under the functional results."""
        exploration = self.exploration.report()
        return dataclasses.replace(
            exploration,
            title="Case study (section 4.3): java card VM refinement",
            before=["functional (untimed) model results:",
                    *(f"  {name:<20} = {value}" for name, value
                      in self.functional_results.items()),
                    "", exploration.title, *exploration.before])


def run_casestudy() -> CaseStudyResult:
    """Run the functional model, then the refined exploration."""
    applet = benchmark_package()
    interpreter = BytecodeInterpreter(applet, FunctionalStack())
    functional = {}
    for method_name, arguments, _reference in BENCHMARKS:
        functional[method_name] = interpreter.run(method_name, arguments)
    exploration = run_exploration(characterization().table)
    return CaseStudyResult(functional, exploration)
