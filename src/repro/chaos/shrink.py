"""Self-shrinking of failing chaos scenarios.

A campaign finding is only actionable once it is *small*: one fault,
the shortest workload that still reaches it, every irrelevant knob
switched off.  :func:`shrink_scenario` takes a failing scenario and
greedily applies simplifying transformations — drop a fault, halve the
command count, strip the DMA engine / power management / retry policy,
shrink a fault's stall window or crossing index, zero the topology
knobs — re-running the oracle after each step and keeping a candidate
only when it still fails with the *same signature* (the sorted set of
divergence kinds).  The loop runs to a fixpoint or until the run
budget is exhausted; the survivor is replayed once more to confirm the
repro is deterministic.

Everything is bounded and deterministic: the transformation order is
fixed, each candidate either reproduces the signature or is discarded,
and the result carries the full run count so campaign budgets are
auditable.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.faults.fabric import FabricFaultSpec

from .oracle import ScenarioResult, run_scenario
from .scenario import ChaosScenario

#: default oracle-run budget of one shrink (baseline + replay included)
DEFAULT_MAX_RUNS = 48


@dataclasses.dataclass
class ShrinkResult:
    """Outcome of one shrink: the minimal deterministic repro."""

    original: ChaosScenario
    minimal: ChaosScenario
    signature: str
    runs: int                 # oracle runs spent (incl. baseline+replay)
    steps: int                # accepted simplifications
    replayed: bool            # minimal re-ran to the same signature
    minimal_result: ScenarioResult

    def to_dict(self) -> dict:
        return {
            "original": self.original.to_dict(),
            "minimal": self.minimal.to_dict(),
            "signature": self.signature,
            "runs": self.runs,
            "steps": self.steps,
            "replayed": self.replayed,
            "divergences": self.minimal_result.divergences,
        }


def _replace(scenario: ChaosScenario, **changes: typing.Any
             ) -> ChaosScenario:
    return dataclasses.replace(scenario, **changes)


def _candidates(scenario: ChaosScenario
                ) -> typing.Iterator[ChaosScenario]:
    """Simplified variants of *scenario*, most aggressive first."""
    faults = scenario.faults
    # drop whole faults (largest win first: drop all but one)
    if len(faults) > 1:
        for keep in range(len(faults)):
            yield _replace(scenario, faults=(faults[keep],))
    for drop in range(len(faults)):
        yield _replace(scenario,
                       faults=faults[:drop] + faults[drop + 1:])
    # shorter workload
    if scenario.commands > 1:
        yield _replace(scenario, commands=max(1, scenario.commands // 2))
        yield _replace(scenario, commands=scenario.commands - 1)
    # strip orthogonal machinery
    if scenario.with_dma:
        yield _replace(scenario, with_dma=False)
    if scenario.dpm:
        yield _replace(scenario, dpm=False)
    if scenario.retry:
        yield _replace(scenario, retry=False)
    if scenario.workload == "mixed":
        yield _replace(scenario, workload="apdu")
    # smaller fault parameters / earlier crossings
    for position, spec in enumerate(faults):
        if spec.kind == "read_stall" and spec.param > 1:
            for param in {max(1, spec.param // 2), spec.param - 1}:
                smaller = FabricFaultSpec(spec.kind, spec.index, param)
                yield _replace(
                    scenario, faults=faults[:position] + (smaller,)
                    + faults[position + 1:])
        if spec.index > 0:
            earlier = FabricFaultSpec(spec.kind, spec.index // 2,
                                      spec.param)
            yield _replace(
                scenario, faults=faults[:position] + (earlier,)
                + faults[position + 1:])
    # simpler topology knobs
    if scenario.crossing_cycles > 0:
        yield _replace(scenario, crossing_cycles=0)
    if scenario.posted_depth > 1:
        yield _replace(scenario, posted_depth=1)


def shrink_scenario(scenario: ChaosScenario,
                    max_runs: int = DEFAULT_MAX_RUNS,
                    baseline: typing.Optional[ScenarioResult] = None
                    ) -> typing.Optional[ShrinkResult]:
    """Minimise a failing *scenario*; None when it does not fail.

    *baseline* optionally reuses an oracle result the caller already
    has (the campaign's own run), saving one run of the budget.
    """
    runs = 0
    if baseline is None:
        baseline = run_scenario(scenario)
        runs += 1
    if baseline.passed:
        return None
    signature = baseline.failure_signature
    current = scenario
    current_result = baseline
    steps = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        seen: typing.Set[typing.Tuple] = set()
        for candidate in _candidates(current):
            if runs >= max_runs:
                break
            key = (candidate.to_dict().__repr__(),)
            if key in seen or candidate == current:
                continue
            seen.add(key)
            result = run_scenario(candidate)
            runs += 1
            if (not result.passed
                    and result.failure_signature == signature
                    and candidate.size() < current.size()):
                current = candidate
                current_result = result
                steps += 1
                improved = True
                break  # restart candidate generation from the smaller
    # determinism: the minimal scenario must replay to the same failure
    replay = run_scenario(current)
    runs += 1
    replayed = (not replay.passed
                and replay.failure_signature == signature)
    return ShrinkResult(
        original=scenario, minimal=current, signature=signature,
        runs=runs, steps=steps, replayed=replayed,
        minimal_result=replay)
