"""Chaos campaign: seeded fabric-fault scenarios under the oracle.

``repro chaos`` is the robustness gate for the routable fabric.  Each
cell generates one :class:`~repro.chaos.ChaosScenario` — a pure
function of ``(seed, index)`` composing topology knobs, a workload, a
fabric fault schedule and optional DMA/DPM — and hands it to the
cross-layer differential oracle (:func:`~repro.chaos.run_scenario`),
which replays it on bus layers 1, 2 and 3 and demands that the layers
agree on everything but time: per-item outcomes, memory contents,
fault accounting, and bitwise-telescoping per-link energy books, with
every run under a progress watchdog so a hang is a finding rather
than a timeout.

One extra cell exercises the *failure* path end-to-end: a scenario
with a deliberately unsurvivable stall window (a read crossing stalled
far past the watchdog budget) must fail, and
:func:`~repro.chaos.shrink_scenario` must bisect it to a minimal
deterministic repro — a single fault, the irrelevant machinery
stripped — that replays to the same signature.  The campaign fails if
the shrinker cannot produce that repro.

Deterministic in (seed, scenarios): journaled cells replay
byte-identically under ``--resume`` and ``workers > 1`` shards the
scenario list over a process pool with identical results.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.chaos import generate_scenario, run_scenario, shrink_scenario
from repro.chaos.scenario import ChaosScenario
from repro.faults.fabric import FabricFaultSpec

from .supervisor import CampaignSupervisor, check_counts

#: campaign default; the acceptance run is ``--scenarios 200 --seed 7``
DEFAULT_CHAOS_SEED = 7

#: oracle-run budget of the self-test shrink (validated: the seeded
#: hang below shrinks to one fault well inside this)
_SELFTEST_MAX_RUNS = 40


@dataclasses.dataclass
class ChaosCell:
    """One generated scenario's differential verdict."""

    index: int
    name: str
    scenario: dict = dataclasses.field(default_factory=dict)
    signature: str = ""
    passed: bool = False
    divergences: typing.List[typing.Dict[str, str]] = dataclasses.field(
        default_factory=list)
    faults_scheduled: int = 0
    faults_fired: int = 0
    fired: typing.Dict[str, int] = dataclasses.field(default_factory=dict)
    hangs: int = 0
    balanced: bool = False
    recovered: int = 0
    fault_reports: int = 0
    layer_summary: typing.Dict[str, dict] = dataclasses.field(
        default_factory=dict)
    status: str = "ok"
    error: typing.Optional[str] = None


@dataclasses.dataclass
class ShrinkCell:
    """The self-test arm: an injected failure and its minimal repro."""

    signature: str = ""
    runs: int = 0
    steps: int = 0
    replayed: bool = False
    original: dict = dataclasses.field(default_factory=dict)
    minimal: dict = dataclasses.field(default_factory=dict)
    minimal_faults: int = 0
    smaller: bool = False
    divergences: typing.List[typing.Dict[str, str]] = dataclasses.field(
        default_factory=list)
    status: str = "ok"
    error: typing.Optional[str] = None


@dataclasses.dataclass
class ChaosCampaignResult:
    seed: typing.Union[int, str]
    scenarios: int
    cells: typing.List[ChaosCell]
    selftest: typing.Optional[ShrinkCell]

    @property
    def all_cells_ok(self) -> bool:
        cells_ok = all(cell.status == "ok" for cell in self.cells)
        selftest_ok = (self.selftest is None
                       or self.selftest.status == "ok")
        return cells_ok and selftest_ok

    @property
    def no_hangs(self) -> bool:
        """No layer of any scenario tripped the progress watchdog or
        refused to drain its fabric after the script completed."""
        return all(cell.hangs == 0 for cell in self.cells
                   if cell.status == "ok")

    @property
    def no_divergences(self) -> bool:
        """Every generated scenario passed the cross-layer oracle —
        zero unexplained divergences between layers 1, 2 and 3."""
        return all(cell.passed for cell in self.cells
                   if cell.status == "ok")

    @property
    def books_balanced(self) -> bool:
        """Every layer of every scenario telescoped its per-link
        energy buckets bitwise into the composite probe total."""
        return all(cell.balanced for cell in self.cells
                   if cell.status == "ok")

    @property
    def faults_exercised(self) -> bool:
        """The campaign scheduled fabric faults and they actually
        landed on crossings — a fault schedule that never fires tests
        nothing."""
        scheduled = sum(cell.faults_scheduled for cell in self.cells
                        if cell.status == "ok")
        fired = sum(cell.faults_fired for cell in self.cells
                    if cell.status == "ok")
        return fired > 0 if scheduled > 0 else True

    @property
    def shrinker_ok(self) -> bool:
        """The injected-for-test failure shrank to a one-fault minimal
        scenario that replayed deterministically to the same
        signature.  (True when the self-test arm was not requested.)"""
        if self.selftest is None:
            return True
        cell = self.selftest
        return (cell.status == "ok" and cell.replayed and cell.smaller
                and cell.minimal_faults == 1)

    @property
    def passed(self) -> bool:
        return (self.all_cells_ok and self.no_hangs
                and self.no_divergences and self.books_balanced
                and self.faults_exercised and self.shrinker_ok)

    # -- aggregates -------------------------------------------------------

    def fired_histogram(self) -> typing.Dict[str, int]:
        histogram: typing.Dict[str, int] = {}
        for cell in self.cells:
            if cell.status != "ok":
                continue
            for kind, count in cell.fired.items():
                histogram[kind] = histogram.get(kind, 0) + count
        return histogram

    def failing_cells(self) -> typing.List[ChaosCell]:
        return [cell for cell in self.cells
                if cell.status != "ok" or not cell.passed]

    def format(self) -> str:
        ok = [cell for cell in self.cells if cell.status == "ok"]
        degraded = len(self.cells) - len(ok)
        faulted = sum(1 for cell in ok if cell.faults_scheduled)
        fired_total = sum(cell.faults_fired for cell in ok)
        reports = sum(cell.fault_reports for cell in ok)
        recovered = sum(cell.recovered for cell in ok)
        lines = [
            f"chaos campaign (seed={self.seed!r}, "
            f"{self.scenarios} scenarios x 3 layers):",
            f"  scenarios: {len(ok)} ok / {degraded} degraded; "
            f"{faulted} with fault schedules, "
            f"{fired_total} faults fired",
        ]
        histogram = self.fired_histogram()
        if histogram:
            lines.append("  fired: " + ", ".join(
                f"{kind}={count}" for kind, count
                in sorted(histogram.items())))
        lines.append(f"  recovery: {reports} fault reports, "
                     f"{recovered} recovered within the retry budget")
        failing = self.failing_cells()
        for cell in failing[:10]:
            if cell.status != "ok":
                lines.append(f"  DEGRADED {cell.name}: {cell.error}")
            else:
                lines.append(f"  FAIL {cell.name}: {cell.signature}"
                             + (f" — {cell.divergences[0]['detail']}"
                                if cell.divergences else ""))
        if len(failing) > 10:
            lines.append(f"  ... and {len(failing) - 10} more "
                         f"failing scenarios")
        if self.selftest is not None:
            cell = self.selftest
            if cell.status != "ok":
                lines.append(f"  selftest shrink DEGRADED: {cell.error}")
            else:
                original_faults = len(cell.original.get("faults", ()))
                lines.append(
                    f"  selftest shrink: signature {cell.signature!r}, "
                    f"{original_faults} -> {cell.minimal_faults} "
                    f"fault(s) in {cell.steps} steps / {cell.runs} "
                    f"oracle runs, replay "
                    f"{'ok' if cell.replayed else 'DIVERGED'}")
        checks = [
            ("all cells ran", self.all_cells_ok),
            ("zero hangs under the progress watchdog", self.no_hangs),
            ("zero unexplained cross-layer divergences",
             self.no_divergences),
            ("per-link energy books telescope bitwise",
             self.books_balanced),
            ("scheduled fabric faults fired", self.faults_exercised),
            ("injected failure shrank to a deterministic minimal repro",
             self.shrinker_ok),
        ]
        for label, good in checks:
            lines.append(f"  [{'pass' if good else 'FAIL'}] {label}")
        lines.append("verdict: "
                     + ("layers agree under fabric faults and "
                        "failures shrink to minimal repros"
                        if self.passed else "FAILED"))
        return "\n".join(lines)


def _run_scenario_cell(index: int,
                       seed: typing.Union[int, str]) -> dict:
    """One campaign cell: generate scenario *index*, run the oracle.
    Module-level and pure in its arguments so worker processes can
    pickle and replay it byte-identically."""
    scenario = generate_scenario(seed, index)
    result = run_scenario(scenario)
    first = result.layers[0]
    fired = dict(first.fired)
    fired["arb_glitch"] = first.glitches_fired
    return {
        "index": index,
        "name": scenario.name,
        "scenario": scenario.to_dict(),
        "signature": result.failure_signature,
        "passed": result.passed,
        "divergences": result.divergences,
        "faults_scheduled": len(scenario.faults),
        "faults_fired": result.faults_fired,
        "fired": fired,
        "hangs": sum(1 for run in result.layers if run.hang),
        "balanced": all(run.balanced for run in result.layers),
        "recovered": first.recovered,
        "fault_reports": first.fault_reports,
        "layer_summary": {
            run.layer: {"cycles": run.cycles,
                        "transactions": run.transactions,
                        "errors": run.errors,
                        "retries": run.retries,
                        "probe_total_pj": run.probe_total_pj}
            for run in result.layers},
    }


def _selftest_scenario(seed: typing.Union[int, str]) -> ChaosScenario:
    """A scenario engineered to fail: the first forwarded read stalls
    for 50k cycles against a 1.5k-cycle watchdog budget, buried under
    two extra faults and every orthogonal knob (DMA, DPM, retry, mixed
    workload) the shrinker must learn to strip."""
    return ChaosScenario(
        name="selftest", seed=f"{seed}/selftest", workload="mixed",
        commands=5, with_dma=True, dpm=True, crossing_cycles=2,
        posted_depth=2, arbiter="priority_rr",
        faults=(FabricFaultSpec("read_stall", 0, 50_000),
                FabricFaultSpec("dup_write", 0, 0),
                FabricFaultSpec("arb_glitch", 3, 0)),
        retry=True, max_cycles=120_000, stall_cycles=1_500)


def _run_selftest_cell(seed: typing.Union[int, str]) -> dict:
    """The shrinker's end-to-end self-test cell."""
    scenario = _selftest_scenario(seed)
    shrink = shrink_scenario(scenario, max_runs=_SELFTEST_MAX_RUNS)
    if shrink is None:
        raise RuntimeError(
            "selftest scenario unexpectedly passed the oracle; "
            "the shrinker has nothing to minimise")
    return {
        "signature": shrink.signature,
        "runs": shrink.runs,
        "steps": shrink.steps,
        "replayed": shrink.replayed,
        "original": shrink.original.to_dict(),
        "minimal": shrink.minimal.to_dict(),
        "minimal_faults": shrink.minimal.fault_count,
        "smaller": shrink.minimal.size() < shrink.original.size(),
        "divergences": shrink.minimal_result.divergences,
    }


def run_chaos_campaign(
        scenarios: int = 25,
        seed: typing.Union[int, str] = DEFAULT_CHAOS_SEED,
        journal_path: typing.Optional[str] = None,
        resume: bool = False,
        workers: int = 1,
        selftest: bool = True) -> ChaosCampaignResult:
    """Run *scenarios* seeded chaos cells plus the shrinker self-test.

    Every scenario run is bounded by its own ``stall_cycles`` progress
    watchdog, so a hang is a finding rather than a stuck campaign.
    With *journal_path* every finished cell is checkpointed (JSONL);
    *resume* replays journaled cells byte-identically; *workers* > 1
    shards the scenario list over a process pool with identical
    results.  ``selftest=False`` skips the shrinker arm (bench runs).
    """
    check_counts(scenarios=scenarios)
    supervisor = CampaignSupervisor(
        "chaos_campaign", seed, journal_path=journal_path,
        resume=resume)
    specs: typing.List[tuple] = [
        ({"cell": "scenario", "index": index},
         _run_scenario_cell, (index, seed))
        for index in range(scenarios)]
    if selftest:
        specs.append(({"cell": "selftest"}, _run_selftest_cell, (seed,)))
    outcomes = supervisor.run_cells(specs, workers=workers)
    cells = [outcome.cell(ChaosCell, index=index,
                          name=f"s{seed}-{index:04d}")
             for index, outcome in enumerate(outcomes[:scenarios])]
    selftest_cell = (outcomes[scenarios].cell(ShrinkCell) if selftest
                     else None)
    return ChaosCampaignResult(seed=seed, scenarios=scenarios,
                               cells=cells, selftest=selftest_cell)
