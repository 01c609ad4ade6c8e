"""Chaos-hardening of the multi-bus fabric.

Three pieces, layered exactly like a property-based testing harness
for the whole platform:

* :mod:`repro.chaos.scenario` — a :class:`ChaosScenario` is one fully
  seeded experiment (topology knobs x workload x fabric-fault schedule
  x power management), serialisable to JSON and back bit-identically,
* :mod:`repro.chaos.oracle` — :func:`run_scenario` executes one
  scenario on bus layers 1, 2 and 3 and differentially checks the
  cross-layer invariants (same outcomes, same memory, balanced books,
  accounted faults, no hangs),
* :mod:`repro.chaos.shrink` — :func:`shrink_scenario` bisects a
  failing scenario to a minimal deterministic repro that still fails
  with the same signature.

The ``repro chaos`` campaign (:mod:`repro.experiments.chaos_campaign`)
drives all three under the journaled supervisor.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "scenario": ("CHAOS_WORKLOADS", "ChaosScenario", "generate_scenario",
                 "scenario_script"),
    "oracle": ("LayerRun", "ScenarioResult", "run_scenario"),
    "shrink": ("ShrinkResult", "shrink_scenario"),
})
