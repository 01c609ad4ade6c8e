"""Accuracy robustness across workload classes (extension).

Table 1 and Table 2 report one number each, on one workload.  A model
is only useful if its error is *stable*, so this study re-measures the
layer-1 and layer-2 timing and energy errors across qualitatively
different workload classes — with one characterisation table held
fixed (the realistic deployment: characterise once, estimate forever):

* ``traced_program`` — the §4.1 CPU trace (the paper's evaluation),
* ``random_mix``     — seeded uniform single/burst read/write mix,
* ``burst_heavy``    — cache-line-fill style burst streams,
* ``subword``        — 8/16-bit merge-pattern traffic,
* ``eeprom_contention`` — write/read interleaving inside
  programming-busy windows (the layer-2 worst case),
* ``apdu_session``   — an ISO-7816-style card command session,
* ``sparse``         — isolated transactions with long idle gaps.

Expected shape: layer-1 energy error stays in a narrow negative band
on every class (it misses the same structurally-invisible share);
layer-2 errors swing class to class (its per-phase averages fit some
traffic shapes better than others); layer-2 timing error is zero
except under dynamic wait states.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.ec import data_read, data_write
from repro.report import Column, Report, Reported
from repro.soc.smartcard import EEPROM_BASE, RAM_BASE, ROM_BASE
from repro.workloads import (Mix, Window, apdu_session,
                             generate_script, sub_word_script)

from .common import (characterization, percent_error, run_on_layer,
                     test_program_trace)
from .supervisor import CampaignSupervisor


#: Seed of record for the study.  Every workload factory below receives
#: an explicit ``random.Random`` derived from it — no factory owns a
#: private seed, so the whole study replays bit-identically from one
#: number (and a different seed regenerates every stochastic class).
DEFAULT_SEED: typing.Union[int, str] = 2004


def class_rng(seed: typing.Union[int, str],
              name: str) -> random.Random:
    """The per-class random stream: independent across classes, stable
    against reordering or subsetting of ``WORKLOAD_CLASSES``."""
    return random.Random(f"{seed}:{name}")


def _traced_program(rng: random.Random) -> list:
    return test_program_trace().to_script()


def _random_mix(rng: random.Random) -> list:
    windows = [Window(RAM_BASE, 0x1000), Window(EEPROM_BASE, 0x1000)]
    return generate_script(rng, 150, windows)


def _burst_heavy(rng: random.Random) -> list:
    windows = [Window(RAM_BASE, 0x1000),
               Window(ROM_BASE, 0x1000, executable=True, writable=False)]
    mix = Mix(single_read=0.2, single_write=0.2, burst_read=2.0,
              burst_write=1.0, instruction_burst=2.0)
    return generate_script(rng, 120, windows, mix)


def _subword(rng: random.Random) -> list:
    return sub_word_script(rng, 120, RAM_BASE)


def _eeprom_contention(rng: random.Random) -> list:
    script: list = []
    for i in range(12):
        script.append(data_write(EEPROM_BASE + 64 * i, [0xA5000000 + i]))
        script.append((10, data_read(EEPROM_BASE + 64 * i + 4)))
        script.append(data_read(EEPROM_BASE + 64 * i + 8))
        script.append(data_read(RAM_BASE + 4 * i))
    return script


def _apdu_session(rng: random.Random) -> list:
    return apdu_session(rng, commands=8).script


def _sparse(rng: random.Random) -> list:
    windows = [Window(RAM_BASE, 0x1000)]
    return generate_script(rng, 60, windows, gap_probability=0.9,
                           max_gap=12)


WORKLOAD_CLASSES: typing.Dict[
        str, typing.Callable[[random.Random], list]] = {
    "traced_program": _traced_program,
    "random_mix": _random_mix,
    "burst_heavy": _burst_heavy,
    "subword": _subword,
    "eeprom_contention": _eeprom_contention,
    "apdu_session": _apdu_session,
    "sparse": _sparse,
}


@dataclasses.dataclass
class RobustnessRow:
    workload: str
    cycles: int = 0
    layer1_timing_error: float = 0.0
    layer2_timing_error: float = 0.0
    layer1_energy_error: float = 0.0
    layer2_energy_error: float = 0.0
    status: str = "ok"
    error: typing.Optional[str] = None


@dataclasses.dataclass
class RobustnessResult(Reported):
    rows: typing.List[RobustnessRow]

    def row(self, workload: str) -> RobustnessRow:
        for row in self.rows:
            if row.workload == workload:
                return row
        raise KeyError(workload)

    def report(self) -> Report:
        usable = [row for row in self.rows if row.status == "ok"]
        if usable:
            l1_errors = [row.layer1_energy_error for row in usable]
            l2_errors = [row.layer2_energy_error for row in usable]
            summary = (f"L1 energy error band: [{min(l1_errors):+.2f}%, "
                       f"{max(l1_errors):+.2f}%]   "
                       f"L2: [{min(l2_errors):+.2f}%, "
                       f"{max(l2_errors):+.2f}%]")
        else:
            summary = "every workload class degraded"
        return Report(
            "Accuracy robustness across workload classes "
            "(one fixed characterisation):",
            columns=[
                Column("workload", 20, "{workload}", "<"),
                Column("cycles", 8, "{cycles}"),
                Column("L1 t-err", 10, "{layer1_timing_error:+.2f}%"),
                Column("L2 t-err", 10, "{layer2_timing_error:+.2f}%"),
                Column("L1 E-err", 10, "{layer1_energy_error:+.2f}%"),
                Column("L2 E-err", 10, "{layer2_energy_error:+.2f}%"),
            ], rows=self.rows, after=[summary],
            checks=[("every workload class ran",
                     all(row.status == "ok" for row in self.rows))],
            verdict="errors measured on every workload class")


def workload_script(name: str,
                    seed: typing.Union[int, str] = DEFAULT_SEED) -> list:
    """One workload class's script, regenerated fresh from *seed*."""
    return WORKLOAD_CLASSES[name](class_rng(seed, name))


def _robustness_row(name: str, seed: typing.Union[int, str],
                    table) -> dict:
    gate = run_on_layer("gate-level", workload_script(name, seed),
                        table=table)
    layer1 = run_on_layer("layer1", workload_script(name, seed),
                          table=table)
    layer2 = run_on_layer("layer2", workload_script(name, seed),
                          table=table)
    return dataclasses.asdict(RobustnessRow(
        name, gate.cycles,
        percent_error(layer1.cycles, gate.cycles),
        percent_error(layer2.cycles, gate.cycles),
        percent_error(layer1.energy_pj, gate.energy_pj),
        percent_error(layer2.energy_pj, gate.energy_pj)))


def run_robustness(classes: typing.Optional[
        typing.Sequence[str]] = None,
        seed: typing.Union[int, str] = DEFAULT_SEED,
        journal_path: typing.Optional[str] = None,
        resume: bool = False) -> RobustnessResult:
    """Measure all four errors on every workload class.

    Each class runs under the campaign supervisor: with *journal_path*
    finished rows checkpoint to a JSONL journal, *resume* replays them,
    and a class that keeps crashing is reported as a degraded row.
    """
    supervisor = CampaignSupervisor(
        "robustness", seed, journal_path=journal_path, resume=resume)
    table = characterization().table
    specs = [({"workload": name}, _robustness_row, (name, seed, table))
             for name in (classes or WORKLOAD_CLASSES)]
    return RobustnessResult([
        outcome.cell(RobustnessRow, **outcome.params)
        for outcome in supervisor.run_cells(specs)])
