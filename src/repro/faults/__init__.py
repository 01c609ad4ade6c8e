"""Fault injection and fault tolerance for the bus models.

The paper's protocol defines an ``ERROR`` state (§3.1); this package
makes error traffic a first-class modeled workload: seeded, composable
fault injectors (:mod:`repro.faults.injectors`), a wrapper that attaches
them to any behavioural slave identically under every model layer
(:mod:`repro.faults.wrapper`), and — together with the master-side
:class:`~repro.ec.RetryPolicy` — the machinery behind the
``fault_campaign`` experiment that measures what recovery *costs* in
cycles and energy on each layer.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "fabric": ("ArbiterGlitchProcess", "BRIDGE_FAULT_KINDS",
               "BridgeFaultProcess", "FABRIC_FAULT_KINDS", "FabricFaultSpec",
               "FaultyBridge", "ROUTE_ERROR_CAUSES", "build_fault_processes",
               "split_fault_specs"),
    "injectors": ("BitFlipInjector", "ErrorSlave", "FaultAction",
                  "FaultEvent", "FaultInjector", "FaultKind",
                  "IntermittentErrorInjector", "StuckWaitInjector",
                  "TransientErrorInjector"),
    "tear": ("TearInjector", "tear_schedule"),
    "wrapper": ("FaultySlave",),
})
